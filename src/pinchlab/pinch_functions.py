"""Pinching functions and inequality kernels for the eigenvalue reaction
system.

Natural logarithms throughout.  The central objects:

* ``f_pinch`` - the convex increasing comparison function
  f(x) = x (log x - 2(1-2 rho)) / (2(1-2 rho)) on [e^{1-4 rho}, oo),
  whose graph bounds the preserved region relating the trace to the
  smallest Ricci eigenvalue.
* ``lambda_pinch_array`` - the logarithmic pinching quantity
  -lam/(mu+nu) - log(-mu-nu)/(2(1-2 rho)), defined where mu+nu < 0, and
  ``lambda_pinch_rate_array``, its closed-form rate along the flow.
* ``j_poly_array`` - the degree-3 polynomial controlling the time
  derivative of ``lambda_pinch`` along the reaction flow:
  d/dt lambda_pinch = 2 (mu+nu)^{-2} J.
* ``i_poly_array`` - the degree-3 polynomial controlling the derivative
  of ``xi_pinch`` for the nonnegative-rho cone (theta = 1, eta = -4).
* ``xi_pinch_array`` - the time-dependent pinching quantity
  (lam+mu+nu)/(-nu) - theta log(-nu) - theta log(1 + 2(1+eta rho) t),
  defined where nu < 0, and ``xi_pinch_rate_array``, its closed-form rate.
* ``ricci_log_bound`` and ``nu_log_bound`` - the logarithmic trace bounds
  of region W and of regions K and Y, each written only here.
* ``estimate_rhs_array`` - right-hand sides of the three lower bounds for the
  scalar curvature in terms of its most negative eigenvalue direction,
  each twice a region's log bound since R = 2 trace.

The ``*_array`` kernels take aligned coordinate arrays or plain floats,
one kernel per formula; a domain check names the first entry that
fails it, and NaN fails every check.  ``lambda_pinch``,
``lambda_pinch_rate``, ``xi_pinch`` and ``xi_pinch_rate`` evaluate
their kernels at one :class:`~pinchlab.eigen_ode.EigenTriple`.  The
pinching kernels take logarithms through ``math.log``, one element at
a time, so a batch keeps the bits of its one-triple evaluations; the
two log bounds use ``np.log``.  Each variant's parameter window and
both time factors are stated once, on
:class:`~pinchlab.eigen_ode.FlowParams`.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from dataclasses import replace

from .eigen_ode import EigenTriple, FlowParams, rhs_array
from .errors import DomainError

__all__ = [
    "EstimateVariant",
    "f_pinch",
    "f_inverse",
    "f_domain_min",
    "f_range_min",
    "lambda_pinch",
    "lambda_pinch_rate",
    "xi_pinch",
    "xi_pinch_rate",
    "lambda_pinch_array",
    "lambda_pinch_rate_array",
    "xi_pinch_array",
    "xi_pinch_rate_array",
    "estimate_rhs_array",
    "ricci_log_bound",
    "nu_log_bound",
    "validate_variant_params",
    "j_poly_array",
    "i_poly_array",
    "xi_prime_numerator_array",
]


class EstimateVariant(enum.Enum):
    """Which scalar-curvature lower bound is being evaluated.

    NEG_RHO_SCALAR      rho < 0; bound in terms of the smallest Ricci
                        eigenvalue mu+nu, time factor 1 - 4 rho t.
    NEG_RHO_SECTIONAL   eta > 0, -1/eta < rho < 0; bound in terms of the
                        smallest eigenvalue nu, time factor
                        1 + 2(1+eta rho) t, theta = -1/(2 rho) built in.
    NONNEG_RHO          0 <= rho < 1/4; bound in terms of nu with
                        eta = -4 and theta = 1 built in, time factor
                        1 + 2(1-4 rho) t.
    """

    NEG_RHO_SCALAR = "neg-rho-scalar"
    NEG_RHO_SECTIONAL = "neg-rho-sectional"
    NONNEG_RHO = "nonneg-rho"


# ----------------------------------------------------------------------
# blockwise evaluation of big batches


# Points per block of a big batch, so that a block's temporaries stay in
# cache; the scans, f_inverse and margin_array all read it.  On a 2-vCPU
# Intel Xeon, in the kernels benchmark's op sequence (medians over 8
# processes of 20 passes), f_inverse and X margins on 2e5 points took
# 10.9 and 20.8 ms at 2^16 and 11.1 and 19.1 ms at 2^15, against 22.4
# and 33.1 ms in one pass; the i-poly grid scan took 38.0 ms at 2^16,
# 41.7 ms at 2^15 and 48.2 ms at 2^14.
_BLOCK = 1 << 16


def _blockwise(kernel, *args):
    """``kernel(*args)`` on arrays that broadcast together, run ``_BLOCK``
    points at a time into one output when an argument is larger than
    that.  ``kernel`` is elementwise, so every entry keeps its bits; a
    batch of smaller arguments is passed whole, and an argument with one
    entry is passed whole to every block."""
    if max(map(np.size, args)) <= _BLOCK:
        return kernel(*args)
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    size = math.prod(shape)
    flat = [a.reshape(()) if a.size == 1 else np.broadcast_to(a, shape).ravel() for a in args]
    out = np.empty(size)
    for i in range(0, size, _BLOCK):
        out[i:i + _BLOCK] = kernel(*(a if a.ndim == 0 else a[i:i + _BLOCK] for a in flat))
    return out.reshape(shape)


# ----------------------------------------------------------------------
# comparison function f and its inverse


def f_domain_min(params: FlowParams) -> float:
    """Left endpoint e^{1-4 rho} of the domain of ``f_pinch``."""
    return math.exp(1.0 - 4.0 * params.rho)


def f_range_min(params: FlowParams) -> float:
    """Minimum value of ``f_pinch``, attained at the domain endpoint."""
    return -f_domain_min(params) / (2.0 * (1.0 - 2.0 * params.rho))


def _f_kernel(x, rho: float):
    # the quotient is formed first, so x times it stays finite wherever f is
    c = 2.0 * (1.0 - 2.0 * rho)
    return x * ((np.log(x) - c) / c)


def f_pinch(x, params: FlowParams):
    """Evaluate f(x) = x (log x - 2(1-2 rho)) / (2(1-2 rho)).

    Accepts a scalar or an array; raises DomainError if any entry lies
    below the domain edge e^{1-4 rho}.  Values within 1e-14 of the edge
    evaluate normally (no fuzz, plain comparison).
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < f_domain_min(params)):
        raise DomainError(
            f"f_pinch argument below domain edge e^(1-4*rho)="
            f"{f_domain_min(params):.6g} (rho={params.rho})"
        )
    out = _f_kernel(xa, params.rho)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def f_inverse(y, params: FlowParams):
    """Unique x >= e^{1-4 rho} with f(x) = y, to ~1e-12 relative accuracy.

    Closed form through the principal Lambert-W branch W0 (Corless et
    al., "On the Lambert W function", Adv. Comput. Math. 5, 1996).  With
    c = 2(1-2 rho) and u = log x - c, f(x) = y reads u e^u = z with
    z = c e^{-c} y, so x = e^{c + W0(z)} = e^{1-4 rho} e^v, v = W0(z) + 1.
    The branch point z = -1/e is the domain edge: q = (y - y_min)/|y_min|
    = 1 + e z is formed from y directly, so it keeps its precision there.

    v starts from the branch-point series p - p^2/3 + 11 p^3/72 in
    p = sqrt(2q) where z < 0 (y < 0), and from Winitzki's uniform log
    form L (1 - log(1+L)/(2+L)), L = log(1+z), where z >= 0; the latter
    tends to the log asymptotic log z - log log z for large z.  Each
    argument is clamped to its own branch, so no branch overflows.  Two
    Halley steps on (v-1) e^v = q - 1 follow, then two Newton steps on
    f itself.  A Newton step is taken only where it moves x by less
    than half its distance to the domain edge: f' vanishes there and a
    longer step would overshoot the convex f, so x never leaves the
    domain, and y = y_min returns the domain edge exactly.

    Every element runs the same fixed steps with elementwise arithmetic,
    so a result does not depend on the batch it was computed in, and a
    batch larger than one block runs a block at a time with the same
    bits.  NaN raises DomainError; +inf maps to +inf, the limit of f^{-1}.
    """
    ya = np.asarray(y, dtype=float)
    y_min = f_range_min(params)
    if not np.all(ya >= y_min):
        if np.isnan(ya).any():
            raise DomainError(f"f_inverse argument is NaN (rho={params.rho})")
        raise DomainError(
            f"f_inverse argument below range minimum {y_min:.6g} "
            f"(rho={params.rho})"
        )
    x = _blockwise(lambda ya: _f_inverse_kernel(ya, params), ya)
    return float(x) if x.ndim == 0 else x


def _f_inverse_kernel(ya, params: FlowParams):
    """``f_inverse`` on checked arguments."""
    rho = params.rho
    y_min = f_range_min(params)
    edge = f_domain_min(params)
    top = ya == np.inf
    ya = np.where(top, y_min, ya)
    q = (ya - y_min) / -y_min
    qm1 = q - 1.0
    p = np.sqrt(2.0 * np.minimum(q, 1.0))
    log1p_z = np.log1p(np.maximum(qm1 / math.e, 0.0))
    v = np.where(
        qm1 < 0.0,
        p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0))),
        log1p_z * (1.0 - np.log1p(log1p_z) / (2.0 + log1p_z)) + 1.0,
    )
    # den vanishes only at the branch point v = 0, whose step is zero
    for _ in range(2):
        r = (v - 1.0) - qm1 * np.exp(-v)
        den = 2.0 * v * v - r * (v + 1.0)
        v -= 2.0 * r * v / np.where(den > 0.0, den, np.inf)
    x = edge * np.exp(v)
    c = 2.0 * (1.0 - 2.0 * rho)
    for _ in range(2):
        slope = (np.log(x) - (1.0 - 4.0 * rho)) / c
        step = (_f_kernel(x, rho) - ya) / np.where(slope > 0.0, slope, np.inf)
        x = np.where(np.abs(step) < 0.5 * (x - edge), x - step, x)
    x[top] = np.inf
    return x


# ----------------------------------------------------------------------
# pinching quantities and their polynomial derivatives


def _require(ok, x, condition: str) -> None:
    """Raise DomainError naming the first entry of ``x`` (C order) where
    ``ok`` is False; ``ok`` is a strict comparison, so NaN fails it."""
    ok = np.ravel(ok)
    if not ok.all():
        raise DomainError(f"{condition}, got {float(np.ravel(x)[ok.argmin()])}")


def _log(x):
    """math.log elementwise, as an array of x's shape: numpy's vector log
    rounds some arguments differently, and each kernel keeps the bits of
    its one-triple evaluation in scalar arithmetic."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def lambda_pinch_array(l, m, n, rho: float):
    """-lam/(mu+nu) - log(-mu-nu)/(2(1-2 rho)); needs mu+nu < 0."""
    mn = m + n
    _require(mn < 0, mn, "lambda_pinch needs mu+nu < 0")
    return -l / mn - _log(-mn) / (2.0 * (1.0 - 2.0 * rho))


def lambda_pinch(state: EigenTriple, params: FlowParams) -> float:
    """``lambda_pinch_array`` at one triple."""
    return float(lambda_pinch_array(state.lam, state.mu, state.nu, params.rho))


def j_poly_array(l, m, n, rho: float):
    """Degree-3 polynomial J with d/dt lambda_pinch = 2 (mu+nu)^{-2} J."""
    mn = m + n
    sq = m * m + n * n
    c = 2.0 * (1.0 - 2.0 * rho)
    return (
        l * sq
        - mn * m * n
        - (mn * sq + l * mn * mn) / c
        + rho * mn * mn * (l + m + n) / (1.0 - 2.0 * rho)
    )


def lambda_pinch_rate_array(l, m, n, rho: float):
    """Closed-form time derivative of ``lambda_pinch`` along the flow."""
    mn = m + n
    _require(mn < 0, mn, "lambda_pinch_rate needs mu+nu < 0")
    return 2.0 * j_poly_array(l, m, n, rho) / (mn * mn)


def lambda_pinch_rate(state: EigenTriple, params: FlowParams) -> float:
    """``lambda_pinch_rate_array`` at one triple."""
    return float(lambda_pinch_rate_array(state.lam, state.mu, state.nu, params.rho))


def i_poly_array(l, m, n, rho: float):
    """Degree-3 polynomial I controlling the xi derivative at theta=1,
    eta=-4: nu^2 xi' >= I under the trigger nu <= -1/(1+2(1-4 rho)t)."""
    return (
        -2.0 * n * (l * l + m * m)
        + 2.0 * m * l * (m + l)
        - 2.0 * n * m * l
        + 4.0 * rho * n * n * (l + m)
        - 4.0 * rho * n * n * n
    )


def _cone_time_factor(params: FlowParams, t):
    """The sectional time factor at t (float or array), checked positive."""
    params.require_cone_admissible()
    tf = params.sectional_time_factor(t)
    _require(tf > 0, tf, "time factor 1+2(1+eta*rho)t must be > 0")
    return tf


def xi_pinch_array(l, m, n, params: FlowParams, t):
    """(lam+mu+nu)/(-nu) - theta log(-nu) - theta log(1+2(1+eta rho)t);
    ``t`` broadcasts against the triples."""
    tf = _cone_time_factor(params, t)
    _require(n < 0, n, "xi_pinch needs nu < 0")
    th = params.theta
    return (l + m + n) / (-n) - th * _log(-n) - th * _log(tf)


def xi_pinch(state: EigenTriple, params: FlowParams, t: float) -> float:
    """``xi_pinch_array`` at one triple."""
    return float(xi_pinch_array(state.lam, state.mu, state.nu, params, t))


def xi_pinch_rate_array(l, m, n, params: FlowParams, t):
    """Closed-form time derivative of ``xi_pinch`` along the flow,
    including the explicit time term (no trigger substitution)."""
    tf = _cone_time_factor(params, t)
    _require(n < 0, n, "xi_pinch_rate needs nu < 0")
    dl, dm, dn = rhs_array(l, m, n, params.rho)
    th = params.theta
    return (
        (dl + dm + dn) / (-n)
        + (l + m + n) * dn / (n * n)
        - th * dn / n
        - 2.0 * th * params.eta_factor / tf
    )


def xi_pinch_rate(state: EigenTriple, params: FlowParams, t: float) -> float:
    """``xi_pinch_rate_array`` at one triple."""
    return float(xi_pinch_rate_array(state.lam, state.mu, state.nu, params, t))


def xi_prime_numerator_array(l, m, n, params: FlowParams):
    """nu^2 xi' with the time term bounded through the trigger, at t = 0.

    At time t it is (lam'+mu')(-nu) + (lam+mu) nu' - theta nu nu'
    + 2 theta (1+eta rho) nu^3 / (1+2(1+eta rho)t), and under the trigger
    nu <= -1/(1+2(1+eta rho)t) a lower bound for nu^2 xi'.  For nu < 0
    the time term is negative and shrinks as t grows, so t = 0 is the
    most adverse time; there the numerator is homogeneous of degree 3,
    which is what lets the verifier scan it on the unit sup-norm slice.
    """
    params.require_cone_admissible()
    dl, dm, dn = rhs_array(l, m, n, params.rho)
    th = params.theta
    return (
        (dl + dm) * (-n)
        + (l + m) * dn
        - th * n * dn
        + 2.0 * th * params.eta_factor * n * n * n
    )


# ----------------------------------------------------------------------
# scalar-curvature lower bounds


def validate_variant_params(variant: EstimateVariant, params: FlowParams) -> None:
    """Reject parameter combinations for which ``variant`` says nothing;
    a bound with eta or theta built in ignores those fields."""
    if variant is EstimateVariant.NEG_RHO_SCALAR:
        reason = params.neg_rho_window()
    elif variant is EstimateVariant.NEG_RHO_SECTIONAL:
        reason = params.neg_rho_sectional_window(check_theta=False)
    elif variant is EstimateVariant.NONNEG_RHO:
        reason = params.nonneg_rho_window(check_eta_theta=False)
    else:
        raise DomainError(f"unknown estimate variant {variant!r}")
    if reason is not None:
        raise DomainError(f"{variant.value} needs {reason}")


def ricci_log_bound(a, tf, rho: float):
    """a (log a + log tf - c)/c with c = 2(1-2 rho): region W's lower
    bound on the trace, at a = -(mu+nu) and the Ricci time factor tf."""
    c = 2.0 * (1.0 - 2.0 * rho)
    return a * (np.log(a) + np.log(tf) - c) / c


def nu_log_bound(a, tf, theta: float):
    """theta a (log a + log tf - 3/theta): the lower bound on the trace
    of regions K and Y, at a = -nu and the sectional time factor tf."""
    return theta * a * (np.log(a) + np.log(tf) - 3.0 / theta)


def estimate_rhs_array(variant: EstimateVariant, smallest, params: FlowParams, t):
    """Right-hand side of the scalar-curvature lower bound ``variant``.

    ``smallest`` holds the relevant most-negative curvature scalar per
    point (mu+nu for NEG_RHO_SCALAR, nu for the other two) and must be
    negative everywhere, since the bound is only asserted there; ``t``
    broadcasts against it.  Both may be plain floats.  Each bound is
    R = 2 trace >= twice a region's trace bound: W's for NEG_RHO_SCALAR,
    K/Y's at theta = -1/(2 rho) for NEG_RHO_SECTIONAL and at eta = -4,
    theta = 1 for NONNEG_RHO.
    """
    validate_variant_params(variant, params)
    smallest = np.asarray(smallest, dtype=float)
    t = np.asarray(t, dtype=float)
    # written to fail on NaN
    if not np.all(smallest < 0):
        raise DomainError("estimate_rhs_array needs negative scalars everywhere")
    if not np.all(t >= 0):
        raise DomainError("estimate_rhs_array needs t >= 0 everywhere")
    a = -smallest
    if variant is EstimateVariant.NEG_RHO_SCALAR:
        return 2.0 * ricci_log_bound(a, params.ricci_time_factor(t), params.rho)
    if variant is EstimateVariant.NEG_RHO_SECTIONAL:
        tf = params.sectional_time_factor(t)
        return 2.0 * nu_log_bound(a, tf, params.sectional_theta)
    tf = replace(params, eta=-4.0).sectional_time_factor(t)  # eta = -4 built in
    return 2.0 * nu_log_bound(a, tf, 1.0)
