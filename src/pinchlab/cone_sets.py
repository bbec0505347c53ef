"""Preserved regions of eigenvalue space and samplers for them.

Four families of closed, ordering-respecting regions are implemented;
the short tokens ``X``/``K``/``Y``/``W`` are the stable external names
used by the command line and in reports, while the enum members spell
out what each region is:

``X``  (static): trace bounded below by the pinching function's range
       minimum, and smallest Ricci eigenvalue mu+nu bounded below by
       -f_inverse(trace), the pinching function's inverse in closed
       form through the Lambert W function.  A state's margin does not
       depend on the batch it is evaluated in, and an infinite trace
       gives margin +inf.  Requires rho < 0.  Time-independent.
``K``  (shrinking trace floor): trace >= -3/(1+2(1+eta rho)t), and a
       logarithmic lower bound on the trace triggered once nu drops
       below -1/(1+2(1+eta rho)t).  Requires 1+eta*rho > 0, theta > 0.
``Y``  K intersected with nonnegative smallest Ricci (mu+nu >= 0).
``W``  nonnegative trace plus a logarithmic trace bound triggered once
       mu+nu drops below -1/(1-4 rho t).  Requires rho < 0.

The rho < 0 window of X and W, the windows in which K and Y are claimed
invariant and both time factors are stated once, on ``FlowParams``.

Conditional bounds are encoded as "trigger => bound": an inactive
trigger contributes margin +inf, and a state exactly at the trigger
threshold evaluates the bound (closed conditions).  Margins are raw
inequality slacks, no normalization; callers that need scale-free
numbers divide by 1 + |trace|.

The sampler rejects from a cube whose half-width defaults to ten times
the region's trigger scale at the requested time, then lands each
accepted point in a prescribed boundary band by bisecting along the
inward diagonal direction (1,1,1) — every margin above is strictly
decreasing under state - s*(1,1,1), so the bisection is well posed.
Randomness is numpy PCG64; sample i draws from
SeedSequence(seed).spawn(count)[i], which keeps output independent of
any sharding of the count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .eigen_ode import EigenTriple, FlowParams
from .errors import DomainError, SamplingExhausted
from .pinch_functions import f_inverse, f_range_min

__all__ = [
    "SetKind",
    "SetSpec",
    "MembershipResult",
    "membership",
    "margin_array",
    "constraint_margins",
    "default_box_halfwidth",
    "sample_set",
]


class SetKind(enum.Enum):
    """Region families, by what their constraints do (token = CLI name)."""

    RICCI_LOG_STATIC = "X"
    SECTIONAL_LOG = "K"
    SECTIONAL_LOG_NONNEG_RICCI = "Y"
    TRACE_POSITIVE_RICCI_LOG = "W"


@dataclass(frozen=True)
class SetSpec:
    """A region family bound to flow parameters.

    X and W need rho < 0 (W reads only rho; eta and theta are ignored).
    K and Y need 1 + eta*rho > 0 and theta > 0.
    """

    kind: SetKind
    params: FlowParams

    def __post_init__(self) -> None:
        if self.kind in (SetKind.RICCI_LOG_STATIC, SetKind.TRACE_POSITIVE_RICCI_LOG):
            reason = self.params.neg_rho_window()
            if reason is not None:
                raise DomainError(f"set {self.kind.value} needs {reason}")
        else:
            self.params.require_cone_admissible()

    def time_factor(self, t):
        """The positive factor entering this region's trigger threshold
        (scalar or array t)."""
        if self.kind is SetKind.TRACE_POSITIVE_RICCI_LOG:
            return self.params.ricci_time_factor(t)
        if self.kind is SetKind.RICCI_LOG_STATIC:
            return 1.0 + 0.0 * t
        return self.params.sectional_time_factor(t)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    margin: float
    active_constraint: str


def _check_time(t) -> None:
    """At t >= 0 every region's time factor is >= 1: W has rho < 0 and
    K and Y have 1 + eta*rho > 0."""
    t = np.asarray(t)
    if np.any(t < 0):
        raise DomainError(f"membership time must be >= 0, got {t[t < 0].min()}")


def constraint_margins(spec: SetSpec, lam, mu, nu, t=0.0):
    """Per-constraint margins for a batch of states.

    Returns a list of (label, ndarray) pairs in fixed declaration order;
    membership means every array entry >= 0.  Inactive conditional
    bounds hold +inf.  States and t broadcast like numpy arrays, so a
    trajectory's checkpoints can carry their own times.
    """
    _check_time(t)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    p = spec.params
    trace = lam + mu + nu
    ric = mu + nu

    if spec.kind is SetKind.RICCI_LOG_STATIC:
        floor = f_range_min(p)
        m1 = trace - floor
        ok = m1 >= 0.0
        inv = f_inverse(np.where(ok, trace, floor), p)
        m2 = np.where(ok, ric + inv, np.inf)
        return [("trace_floor", m1), ("ricci_log", m2)]

    if spec.kind is SetKind.TRACE_POSITIVE_RICCI_LOG:
        tw = spec.time_factor(t)
        c = 2.0 * (1.0 - 2.0 * p.rho)
        trig = ric <= -1.0 / tw
        safe = np.where(trig, -ric, 1.0)
        bound = np.where(
            trig, -ric * (np.log(safe) + np.log(tw) - c) / c, -np.inf
        )
        m2 = np.where(trig, trace - bound, np.inf)
        return [("trace_sign", trace + 0.0), ("ricci_log", m2)]

    # K and Y share the sectional-log constraints
    tf = spec.time_factor(t)
    theta = p.theta
    m1 = trace + 3.0 / tf
    trig = nu <= -1.0 / tf
    safe = np.where(trig, -nu, 1.0)
    bound = np.where(
        trig,
        -theta * nu * (np.log(safe) + np.log(tf) - 3.0 / theta),
        -np.inf,
    )
    m2 = np.where(trig, trace - bound, np.inf)
    out = [("trace_floor", m1), ("nu_log", m2)]
    if spec.kind is SetKind.SECTIONAL_LOG_NONNEG_RICCI:
        out.append(("ricci_sign", ric + 0.0))
    return out


def margin_array(spec: SetSpec, lam, mu, nu, t: float = 0.0) -> np.ndarray:
    """Minimum constraint margin per state; >= 0 means member."""
    pairs = constraint_margins(spec, lam, mu, nu, t)
    out = pairs[0][1]
    for _, m in pairs[1:]:
        out = np.minimum(out, m)
    return out


def membership(spec: SetSpec, state: EigenTriple, t: float = 0.0) -> MembershipResult:
    """Evaluate membership of one state at time t.

    margin is the smallest slack among the region's inequalities
    (negative when violated); active_constraint names the binding one,
    first in declaration order on ties.
    """
    pairs = constraint_margins(
        spec, np.asarray([state.lam]), np.asarray([state.mu]),
        np.asarray([state.nu]), t,
    )
    best_label, best = pairs[0][0], float(pairs[0][1][0])
    for label, arr in pairs[1:]:
        v = float(arr[0])
        if v < best:
            best_label, best = label, v
    return MembershipResult(member=best >= 0.0, margin=best,
                            active_constraint=best_label)


def default_box_halfwidth(spec: SetSpec, t: float) -> float:
    """Sampling-cube half-width: ten times the trigger scale at t."""
    if spec.kind is SetKind.RICCI_LOG_STATIC:
        return 10.0 * abs(f_range_min(spec.params))
    return 10.0 / spec.time_factor(t)


_BATCH = 64
_MAX_DRAWS = 10_000  # rejection budget per sample
_MAX_LAND = 120  # bisection budget for landing in the margin band


def sample_set(
    spec: SetSpec,
    t: float,
    count: int,
    seed: int,
    band: float = math.inf,
) -> list[EigenTriple]:
    """Draw ``count`` ordered states inside the region at time t.

    With finite ``band``, each state is pushed down the inward diagonal
    until its margin lies in [0, band]; with band = +inf the raw
    rejection draws are returned.  Bit-for-bit reproducible for fixed
    (seed, count, spec, t, band).

    Raises SamplingExhausted when the per-sample rejection budget or
    the band-landing bisection budget runs out (thin or empty target).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if band < 0:
        raise ValueError("band must be >= 0")
    _check_time(t)
    half = default_box_halfwidth(spec, t)

    children = np.random.SeedSequence(seed).spawn(count)
    base = np.empty((count, 3))
    for i in range(count):
        rng = np.random.Generator(np.random.PCG64(children[i]))
        found = False
        for _ in range(_MAX_DRAWS // _BATCH):
            cand = rng.uniform(-half, half, size=(_BATCH, 3))
            cand.sort(axis=1)
            cand = cand[:, ::-1]
            good = margin_array(spec, cand[:, 0], cand[:, 1], cand[:, 2], t) >= 0.0
            hits = np.nonzero(good)[0]
            if hits.size:
                base[i] = cand[hits[0]]
                found = True
                break
        if not found:
            raise SamplingExhausted(
                f"no {spec.kind.value}-member found in [-{half}, {half}]^3 "
                f"after {_MAX_DRAWS} draws (sample {i}, t={t})"
            )

    if math.isinf(band):
        return [EigenTriple(*row) for row in base]

    # land each point's margin in [0, band] along the inward diagonal;
    # every margin decreases strictly in s for state - s*(1,1,1)
    def margins(shift: np.ndarray) -> np.ndarray:
        l = base[:, 0] - shift
        return margin_array(spec, l, base[:, 1] - shift, base[:, 2] - shift, t)

    lo = np.zeros(count)
    m0 = margins(lo)
    done = m0 <= band
    landed = np.where(done, 0.0, np.nan)

    hi = np.full(count, 1.0 + 2.0 * band)
    for _ in range(200):
        if done.all():
            break
        m_hi = margins(hi)
        still_in = ~done & (m_hi >= 0.0)
        if not still_in.any():
            break
        hi[still_in] *= 2.0
    for _ in range(_MAX_LAND):
        if done.all():
            break
        mid = 0.5 * (lo + hi)
        m = margins(mid)
        in_band = ~done & (m >= 0.0) & (m <= band)
        landed[in_band] = mid[in_band]
        done |= in_band
        go_down = ~done & (m > band)
        go_up = ~done & (m < 0.0)
        lo[go_down] = mid[go_down]
        hi[go_up] = mid[go_up]
    if not done.all():
        bad = int(np.nonzero(~done)[0][0])
        raise SamplingExhausted(
            f"could not land margin in [0, {band}] for sample {bad} "
            f"of set {spec.kind.value} within {_MAX_LAND} bisections"
        )
    shifted = base - landed[:, None]
    return [EigenTriple(*row) for row in shifted]
