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
invariant and both time factors are stated once, on ``FlowParams``.  W's
log bound is ``pinch_functions.ricci_log_bound`` and that of K and Y is
``pinch_functions.nu_log_bound``; the curvature estimates double them.

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
any sharding of the count.  Rejection runs in rounds: round k draws the
k-th batch of every sample still without a member from that sample's
own stream, one ``margin_array`` call checks the whole round, and each
sample keeps its first hit, so the draws are those of rejecting sample
by sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigen_ode import EigenTriple, FlowParams
from .errors import DomainError, SamplingExhausted
from .pinch_functions import _blockwise, f_inverse, f_range_min, nu_log_bound, ricci_log_bound

__all__ = [
    "SetKind",
    "SetSpec",
    "MembershipResult",
    "membership",
    "margin_array",
    "constraint_margins",
    "standard_trigger_events",
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
    K and Y have 1 + eta*rho > 0.  A NaN time fails the check too, and
    is the one named."""
    t = np.asarray(t)
    bad = ~(t >= 0)
    if np.any(bad):
        raise DomainError(f"membership time must be >= 0, got {t[bad].min()}")


def constraint_margins(spec: SetSpec, lam, mu, nu, t=0.0):
    """Per-constraint margins for a batch of states.

    Returns a list of (label, ndarray) pairs in fixed declaration order;
    membership means every array entry >= 0.  Inactive conditional
    bounds hold +inf.  States and t broadcast like numpy arrays, so a
    trajectory's checkpoints can carry their own times.
    """
    _check_time(t)
    return _margins(spec, lam, mu, nu, t)


def _margins(spec: SetSpec, lam, mu, nu, t):
    """``constraint_margins`` at checked times."""
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
        trig = ric <= -1.0 / tw
        # an untriggered entry takes a = 1, a finite bound that m2 discards
        bound = ricci_log_bound(np.where(trig, -ric, 1.0), tw, p.rho)
        m2 = np.where(trig, trace - bound, np.inf)
        return [("trace_sign", trace + 0.0), ("ricci_log", m2)]

    # K and Y share the sectional-log constraints
    tf = spec.time_factor(t)
    m1 = trace + 3.0 / tf
    trig = nu <= -1.0 / tf
    bound = nu_log_bound(np.where(trig, -nu, 1.0), tf, p.theta)
    m2 = np.where(trig, trace - bound, np.inf)
    out = [("trace_floor", m1), ("nu_log", m2)]
    if spec.kind is SetKind.SECTIONAL_LOG_NONNEG_RICCI:
        out.append(("ricci_sign", ric + 0.0))
    return out


def standard_trigger_events(params: FlowParams):
    """Event functions for the conditional-bound triggers of the cones.

    Returns (name, g) pairs for whichever of these are admissible:

    * ``nu_trigger``:    nu + 1/(1 + 2(1+eta rho) t)   (K/Y bound trigger)
    * ``ricci_trigger``: mu + nu + 1/(1 - 4 rho t)     (W bound trigger)
    * ``nu_zero`` and ``ricci_zero``: plain sign changes of nu and mu+nu.
    """
    out: list[tuple[str, Callable]] = [
        ("nu_zero", lambda t, l, m, n: n),
        ("ricci_zero", lambda t, l, m, n: m + n),
    ]
    if params.eta_factor > 0:
        out.append(
            ("nu_trigger",
             lambda t, l, m, n: n + 1.0 / params.sectional_time_factor(t))
        )
    if params.neg_rho_window() is None:
        out.append(
            ("ricci_trigger",
             lambda t, l, m, n: m + n + 1.0 / params.ricci_time_factor(t))
        )
    return out


def margin_array(spec: SetSpec, lam, mu, nu, t: float = 0.0) -> np.ndarray:
    """Minimum constraint margin per state; >= 0 means member.

    States and t broadcast as in ``constraint_margins``.  A batch larger
    than one block runs a block at a time with the same bits, after the
    whole of t is checked.
    """
    _check_time(t)

    def smallest(lam, mu, nu, t):
        pairs = _margins(spec, lam, mu, nu, t)
        out = pairs[0][1]
        for _, m in pairs[1:]:
            out = np.minimum(out, m)
        return out

    return _blockwise(smallest, lam, mu, nu, t)


def membership(spec: SetSpec, state: EigenTriple, t: float = 0.0) -> MembershipResult:
    """Evaluate membership of one state at time t.

    margin is the smallest slack among the region's inequalities
    (negative when violated); active_constraint names the binding one,
    first in declaration order on ties.
    """
    pairs = constraint_margins(spec, [state.lam], [state.mu], [state.nu], t)
    label, margins = min(pairs, key=lambda pair: pair[1][0])
    best = float(margins[0])
    return MembershipResult(member=best >= 0.0, margin=best, active_constraint=label)


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
    if not band >= 0:  # NaN too
        raise ValueError("band must be >= 0")
    _check_time(t)
    half = default_box_halfwidth(spec, t)

    # round k: the k-th batch of each sample still without a member
    rngs = [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(count)]
    base = np.empty((count, 3))
    todo = np.arange(count)
    for _ in range(_MAX_DRAWS // _BATCH):
        if not len(todo):
            break
        cand = np.stack([rngs[i].uniform(-half, half, size=(_BATCH, 3)) for i in todo])
        cand.sort(axis=2)
        cand = cand[:, :, ::-1]
        rows = cand.reshape(-1, 3)
        good = margin_array(spec, rows[:, 0], rows[:, 1], rows[:, 2], t) >= 0.0
        good = good.reshape(len(todo), _BATCH)
        hit = good.any(axis=1)
        base[todo[hit]] = cand[hit, good.argmax(axis=1)[hit]]
        todo = todo[~hit]
    if len(todo):
        raise SamplingExhausted(
            f"no {spec.kind.value}-member found in [-{half}, {half}]^3 "
            f"after {_MAX_DRAWS} draws (sample {todo[0]}, t={t})"
        )

    # land each point's margin in [0, band] along the inward diagonal;
    # every margin decreases strictly in s for state - s*(1,1,1).  With
    # band = +inf every draw lands at shift 0 and keeps its bits.
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
