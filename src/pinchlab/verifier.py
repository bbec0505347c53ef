"""Executable checks for the claims the rest of the package encodes.

Four instruments:

* ``scan_inequality`` — brute-force sign scans of the homogeneous
  polynomial claims (the two J cases, the I polynomial, the xi-rate
  numerator at t = 0, and the trace comparison) on a deterministic grid
  over the sup-norm unit slice of each claim's cone, or over random
  ordered states for the trace comparison.  Both modes feed one
  reduction loop over blocks of about 2^16 points, the package's one
  block size ``pinch_functions._BLOCK`` (runs of grid rows, or runs of
  draws), so a scan's memory stays bounded at any resolution or sample
  count and its temporaries stay in cache.
* ``check_invariance`` — samples states in a thin band along a region's
  boundary, pushes each through the flow, and re-evaluates membership
  at dense checkpoints (with the membership clock advancing along the
  trajectory for the time-dependent regions).
* ``check_estimate`` — asserts the scalar-curvature lower bounds along
  a trajectory wherever their trigger holds.
* ``derivative_consistency`` — central-difference vs closed-form rate
  for the two monotone quantities, the numerical cross-examination of
  the exact derivative identities.  A trajectory's windows, at h and
  h/2 in ``deriv_suite``, are evaluated in one dense call, and the
  quantity and its rate in one kernel call each, not one call per
  difference point or per step.

Reports normalize drift by 1/(1+|trace|): raw membership margins grow
like the state and are meaningless near blow-up, where time-shift error
moves points *along* the flow (and the regions are flow-invariant), so
only the scale-free transverse defect is informative.  Scan margins
stay raw on the normalized slice; for unnormalized trace-bound inputs
the violation cutoff is scaled by max(1, sup-norm)^3.

Each claim's parameter window (scan, region claim, estimate) is stated
once, on ``FlowParams``; this module only applies it.  The ensemble loop
of the three suites (integrate each seeded start, check it, sum the
integrator's work) is written once, in ``_run_lanes``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import pinch_functions
from .cone_sets import SetKind, SetSpec, margin_array, sample_set
from .eigen_ode import EigenTriple, FlowParams, rhs_array
from .errors import DomainError, EmptyRegion, HypothesisViolated
from .integrator import BLOWUP, IntegratorConfig, Trajectory, integrate
from .pinch_functions import (
    EstimateVariant,
    estimate_rhs_array,
    i_poly_array,
    j_poly_array,
    lambda_pinch,
    lambda_pinch_array,
    lambda_pinch_rate,
    lambda_pinch_rate_array,
    validate_variant_params,
    xi_pinch,
    xi_pinch_array,
    xi_pinch_rate,
    xi_pinch_rate_array,
    xi_prime_numerator_array,
)

__all__ = [
    "InequalityKind",
    "QuantityKind",
    "ScanReport",
    "InvarianceReport",
    "EstimateReport",
    "EstimateSuiteReport",
    "DerivReport",
    "DerivSuiteReport",
    "scan_inequality",
    "check_invariance",
    "invariance_is_claimed",
    "check_estimate",
    "estimate_suite",
    "derivative_consistency",
    "deriv_suite",
]

DEFAULT_SCAN_TOL = 1e-12


def thread_count() -> int:
    """Worker count of the checks, which run serially: always 1.  Kept
    for the benchmark's environment record."""
    return 1


class InequalityKind(enum.Enum):
    """Scannable sign claims, each with its own cone of validity.

    J_NEG_TRACE      rho<0, region {ordered, trace<=0, mu+nu<0}: J >= 0.
    J_NONNEG_TRACE   rho<0, region {ordered, trace>=0, mu+nu<0}:
                     J >= rho/(1-2rho) * (mu+nu)^3.
    I_POLY           0<=rho<1/4, region {ordered, nu<0}: I >= 0.
    XI_PRIME         -1/eta<rho<0, eta>0, theta=-1/(2rho), region
                     {ordered, mu+nu>=0, nu<0}: nu^2 xi' numerator >= 0.
    TRACE_BOUND      any admissible rho, all ordered states:
                     trace' >= (4/3)(1-3rho) trace^2.
    """

    J_NEG_TRACE = "j-neg-trace"
    J_NONNEG_TRACE = "j-nonneg-trace"
    I_POLY = "i-poly"
    XI_PRIME = "xi-prime"
    TRACE_BOUND = "trace-bound"


@dataclass(frozen=True)
class ScanReport:
    kind: InequalityKind
    params: FlowParams
    resolution: int | None  # None in random mode, which reads no grid
    points_checked: int
    min_margin: float
    argmin_state: EigenTriple
    violations: int
    tol: float
    near_boundary_points: int
    mode: str = "grid"  # "grid" or "random"
    samples: int | None = None
    seed: int | None = None
    injected_max_abs_margin: float | None = None


def _grid_blocks(kind: InequalityKind, resolution: int):
    """The region's points of the sup-norm unit slice, a block at a time.

    An ordered state with sup-norm exactly 1 has lam = 1 or nu = -1 (the
    largest-magnitude entry is the top one if positive, the bottom one
    if negative), so over xs = linspace(-1, 1, resolution) the slice is
    two square faces: face a is (1, xs[r], xs[c]) and face b is
    (xs[r], xs[c], -1) without its last row, the edge lam = 1, nu = -1
    that face a holds.  Both keep c <= r.  A block is a run of rows of
    one face; it yields the ``lam, mu, nu`` columns of its points inside
    the region and how many of them lie within 2/resolution of the
    region's boundary.  The face's constant coordinate (lam = 1 on face
    a, nu = -1 on face b) is a zero-stride view of the float: no column
    of it is gathered, and every column still holds one entry per point.
    """
    xs = np.linspace(-1.0, 1.0, resolution)
    step = max(1, pinch_functions._BLOCK // resolution)
    for face_a, face_rows in ((True, resolution), (False, resolution - 1)):
        for r0 in range(0, face_rows, step):
            r1 = min(r0 + step, face_rows)
            keep = np.arange(r1) <= np.arange(r0, r1)[:, None]
            rows, cols = xs[r0:r1, None], xs[None, :r1]
            lam, mu, nu = (1.0, rows, cols) if face_a else (rows, cols, -1.0)
            trace = lam + mu + nu
            ric = mu + nu
            slack = None
            if kind is InequalityKind.J_NEG_TRACE:
                keep &= (trace <= 0) & (ric < 0)
                slack = np.minimum(-trace, -ric)
            elif kind is InequalityKind.J_NONNEG_TRACE:
                keep &= (trace >= 0) & (ric < 0)
                slack = np.minimum(trace, -ric)
            elif kind is InequalityKind.I_POLY:
                keep &= nu < 0
                slack = -nu
            elif kind is InequalityKind.XI_PRIME:
                keep &= (ric >= 0) & (nu < 0)
                slack = np.minimum(ric, -nu)
            if not keep.any():
                continue
            near = 0
            if slack is not None:  # every ordered state is in the trace-bound region
                near = int((np.broadcast_to(slack, keep.shape)[keep] < 2.0 / resolution).sum())
            rows, cols = (np.broadcast_to(v, keep.shape)[keep] for v in (rows, cols))
            const = np.broadcast_to(lam if face_a else nu, rows.shape)
            yield (const, rows, cols, near) if face_a else (rows, cols, const, near)


_ISO_INJECT = (1.0, -1.0, 0.5, -2.0, 3.25)


def _random_blocks(samples: int, seed: int):
    """``samples`` seeded ordered states of [-5, 5]^3 a block at a time,
    then the injected isotropic states as a block of their own.  Blocks
    yield ``lam, mu, nu`` columns and 0 near-boundary points."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    block = pinch_functions._BLOCK
    for start in range(0, samples, block):
        a, b, c = np.ascontiguousarray(
            rng.uniform(-5.0, 5.0, size=(min(block, samples - start), 3)).T
        )
        # a three-element compare-exchange network orders each row in
        # place, lam >= mu >= nu, with the same values as a row sort
        lo = np.minimum(a, b)
        np.maximum(a, b, out=a)
        np.maximum(lo, c, out=b)
        np.minimum(lo, c, out=c)
        np.minimum(a, b, out=lo)
        np.maximum(a, b, out=a)
        yield a, lo, c, 0
    iso = np.asarray(_ISO_INJECT)
    yield iso, iso, iso, 0


def _validate_scan_params(kind: InequalityKind, params: FlowParams) -> None:
    reason = None
    if kind in (InequalityKind.J_NEG_TRACE, InequalityKind.J_NONNEG_TRACE):
        reason = params.neg_rho_window()
    elif kind is InequalityKind.I_POLY:  # I has eta = -4 and theta = 1 built in
        reason = params.nonneg_rho_window(check_eta_theta=False)
    elif kind is InequalityKind.XI_PRIME:
        reason = params.neg_rho_sectional_window()
    if reason is not None:
        raise DomainError(f"{kind.value} scan needs {reason}")


def _margin_for(kind: InequalityKind, lam, mu, nu, params: FlowParams):
    rho = params.rho
    if kind is InequalityKind.J_NEG_TRACE:
        return j_poly_array(lam, mu, nu, rho)
    if kind is InequalityKind.J_NONNEG_TRACE:
        ric = mu + nu
        # products, not ric**3: numpy sends a negative base through scalar
        # libm pow, 13x the products' time on a resolution-1500 scan
        return j_poly_array(lam, mu, nu, rho) - rho / (1.0 - 2.0 * rho) * (ric * ric * ric)
    if kind is InequalityKind.I_POLY:
        return i_poly_array(lam, mu, nu, rho)
    if kind is InequalityKind.XI_PRIME:
        return xi_prime_numerator_array(lam, mu, nu, params)
    dl, dm, dn = rhs_array(lam, mu, nu, rho)
    trace = lam + mu + nu
    return (dl + dm + dn) - (4.0 / 3.0) * (1.0 - 3.0 * rho) * trace * trace


def _require_integer(name: str, value) -> None:
    """Raise TypeError naming ``name`` unless ``value`` is an integer
    (bools excluded); range() and linspace would refuse a float later,
    naming no argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def validate_tol(tol: float) -> None:
    """A verdict's tolerance must be finite and >= 0: a NaN or infinite
    tol passes every run, a negative one fails runs that hold."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def scan_inequality(
    kind: InequalityKind,
    params: FlowParams,
    resolution: int = 200,
    tol: float = DEFAULT_SCAN_TOL,
    samples: int | None = None,
    seed: int = 0,
) -> ScanReport:
    """Evaluate one sign claim over its region and report the minimum.

    Grid mode (default) exploits degree-3 homogeneity: the claim margin
    is evaluated on a resolution^2-scale grid over the sup-norm unit
    slice of the region (two cube faces), where an affine threshold like
    mu+nu <= -e^(1-4 rho) homogenizes to mu+nu < 0.  XI_PRIME is scanned
    at t = 0, which covers every t >= 0: its time term
    2 theta (1+eta rho) nu^3 / (1+2(1+eta rho)t) is negative for nu < 0
    and shrinks in t.

    Random mode (``samples`` set, TRACE_BOUND only) checks the margin at
    that many seeded random ordered states in [-5, 5]^3, with the
    violation cutoff scaled per point by max(1, sup-norm)^3, plus a few
    injected isotropic states where the margin must vanish identically.
    The report holds ``resolution`` only in grid mode, where the verdict
    read it; random mode neither reads nor checks it.

    Points are generated and reduced a block at a time: each block adds
    its violation and near-boundary counts and keeps the points tied at
    its minimum, and of the points tied at the overall minimum the
    lexicographically smallest (lam, mu, nu) is reported.  The verdict
    does not depend on the block size; memory is a few blocks' worth.
    A NaN margin is a violation and ranks below every number, so it is
    never dropped: the report then gives min_margin = nan.

    Raises EmptyRegion when no grid point lands in the region.
    """
    random_mode = samples is not None
    if random_mode:
        _require_integer("samples", samples)
    else:
        _require_integer("resolution", resolution)
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
    validate_tol(tol)
    _validate_scan_params(kind, params)
    if random_mode and kind is not InequalityKind.TRACE_BOUND:
        raise ValueError("random-state mode exists only for trace-bound scans")
    if random_mode and samples <= 0:
        raise ValueError("samples must be positive")

    blocks = _random_blocks(samples, seed) if random_mode else _grid_blocks(kind, resolution)
    points = violations = near = 0
    lowest, ties = math.inf, []
    for lam, mu, nu, near_block in blocks:
        margins = _margin_for(kind, lam, mu, nu, params)
        below = ~(margins >= -tol)  # a NaN margin is a violation
        if random_mode and below.any():
            # the per-point cutoff tol * max(1, sup-norm)^3 is never below
            # tol, so only points already below -tol can fall below it; the
            # largest magnitude of an ordered triple sits at one of its ends
            at = np.flatnonzero(below)
            scale = np.maximum(1.0, np.maximum(np.abs(lam[at]), np.abs(nu[at])))
            below = ~(margins[at] >= -(tol * scale**3))
        points += len(margins)
        violations += int(below.sum())
        near += near_block
        # keep every point tied at the minimum so far; min() is NaN if any
        # margin is, and a NaN ranks below every number
        low = margins.min()
        if low < lowest or (math.isnan(low) and not math.isnan(lowest)):
            lowest, ties = low, []
        if low == lowest or math.isnan(low):
            at = np.flatnonzero(np.isnan(margins) if math.isnan(low) else margins == low)
            ties.append([v[at] for v in (margins, lam, mu, nu)])
    if points == 0:
        raise EmptyRegion(
            f"no grid point of the resolution-{resolution} slice lies in "
            f"the {kind.value} region"
        )
    # every tied point holds the minimum: report the smallest (lam, mu, nu)
    tied, *cols = (np.concatenate(v) for v in zip(*ties))
    amin = np.lexsort(cols[::-1])[0]
    return ScanReport(
        kind=kind,
        params=params,
        resolution=None if random_mode else resolution,
        points_checked=points,
        min_margin=float(tied[amin]),
        argmin_state=EigenTriple(*(c[amin] for c in cols)),
        violations=violations,
        tol=tol,
        near_boundary_points=near,
        mode="random" if random_mode else "grid",
        samples=samples,
        seed=seed if random_mode else None,
        # the last block holds the injected isotropic states
        injected_max_abs_margin=float(np.abs(margins).max()) if random_mode else None,
    )


# ----------------------------------------------------------------------
# flow-invariance of the preserved regions


@dataclass(frozen=True)
class _Work:
    """The integrator work behind a suite's verdict, summed over its lanes."""

    steps_accepted: int
    steps_rejected: int
    rhs_evals: int
    terminal_kinds: dict[str, int]  # terminal kind -> lanes, in order of first appearance


@dataclass(frozen=True)
class InvarianceReport(_Work):
    spec: SetSpec
    samples: int
    horizon: float
    seed: int
    band: float
    tol: float
    worst_drift: float  # min over samples/checkpoints of margin/(1+|trace|)
    violating_seed: int | None  # spawn index of the worst sample, if failing
    blowups: int
    checkpoints: int
    claimed: bool  # False = observation run, never a pass/fail verdict
    recheck_kind: SetKind | None = None


def invariance_is_claimed(spec: SetSpec) -> bool:
    """Whether flow-invariance of this region is an established claim.

    Y: claimed inside ``FlowParams.neg_rho_sectional_window`` and K
    inside ``nonneg_rho_window``; anything else runs as an observation.
    X and W: always, as ``SetSpec`` admits them only inside
    ``neg_rho_window`` (rho < 0).
    """
    if spec.kind is SetKind.SECTIONAL_LOG_NONNEG_RICCI:
        return spec.params.neg_rho_sectional_window() is None
    if spec.kind is SetKind.SECTIONAL_LOG:
        return spec.params.nonneg_rho_window() is None
    return True


def _checkpoint_times(traj: Trajectory, uniform: int = 129):
    """A uniform grid over the covered interval plus every accepted node."""
    t0, t1 = traj.t_start, traj.t_last
    if t1 <= t0:
        return np.asarray([t0])
    return np.unique(np.concatenate([np.linspace(t0, t1, uniform), traj.times]))


def _run_lanes(
    states: Sequence[EigenTriple], params: FlowParams, t_end: float,
    config: IntegratorConfig | None, check: Callable[[Trajectory], object],
) -> tuple[list, _Work]:
    """The ensemble loop of every suite: integrate each start over
    [0, t_end] in start order and hand each trajectory to ``check``.
    Returns the checks' results in start order and the integrator work
    summed over the lanes."""
    results = []
    accepted = rejected = evals = 0
    kinds: dict[str, int] = {}
    for state in states:
        traj = integrate(state, params, 0.0, t_end, config)
        results.append(check(traj))
        accepted += traj.stats["accepted"]
        rejected += traj.stats["rejected"]
        evals += traj.stats["rhs_evals"]
        kinds[traj.terminal.kind] = kinds.get(traj.terminal.kind, 0) + 1
        del traj  # free each lane before the next one integrates
    return results, _Work(accepted, rejected, evals, kinds)


def _worst_lane(scores: Sequence[float], tol: float) -> tuple[float, int | None]:
    """The first strictly lowest score (+inf when none is below it) and
    its lane, named only when the score is below -tol."""
    worst, lane = math.inf, -1
    for i, score in enumerate(scores):
        if score < worst:
            worst, lane = score, i
    return worst, lane if worst < -tol else None


def _drift(traj: Trajectory, recheck: SetSpec) -> tuple[float, int]:
    """The lowest normalized membership margin of ``recheck`` along a
    trajectory, and the number of checkpoints it was read at."""
    ts = _checkpoint_times(traj)
    rows = traj.eval_many(ts)
    margins = margin_array(recheck, rows[:, 0], rows[:, 1], rows[:, 2], ts)
    trace = rows.sum(axis=1)
    drift = margins / (1.0 + np.abs(trace))
    return float(drift.min()), len(ts)


def check_invariance(
    spec: SetSpec,
    samples: int,
    horizon: float,
    seed: int,
    config: IntegratorConfig | None = None,
    tol: float = 1e-8,
    recheck: SetSpec | None = None,
) -> InvarianceReport:
    """Test whether the flow keeps near-boundary states inside a region.

    Draws ``samples`` states with membership margin in [0, 100*tol] at
    t=0, integrates each over [0, horizon] (blow-ups recorded, not
    errors), and evaluates membership margins on a uniform grid and at
    every accepted node, with the region clock advancing along each
    trajectory.  worst_drift is the most negative normalized margin seen
    anywhere; the integrator's work is summed into the report.

    ``recheck`` swaps the region evaluated along trajectories (still
    sampling from ``spec``) — e.g. probing whether the sectional-log
    region alone retains states sampled from its nonneg-Ricci variant.
    Such runs, and parameter sets outside the established claims, are
    flagged claimed=False: observations, not verdicts.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if samples <= 0:
        raise ValueError("samples must be positive")
    validate_tol(tol)
    eff_recheck = recheck or spec
    band = 100.0 * tol
    states = sample_set(spec, 0.0, samples, seed, band=band)
    lanes, work_done = _run_lanes(
        states, spec.params, horizon, config, lambda traj: _drift(traj, eff_recheck)
    )
    worst, violating = _worst_lane([drift for drift, _ in lanes], tol)
    return InvarianceReport(
        spec=spec,
        samples=samples,
        horizon=horizon,
        seed=seed,
        band=band,
        tol=tol,
        worst_drift=worst,
        violating_seed=violating,
        blowups=work_done.terminal_kinds.get(BLOWUP, 0),
        checkpoints=sum(points for _, points in lanes),
        **asdict(work_done),
        claimed=invariance_is_claimed(spec) and recheck is None,
        recheck_kind=eff_recheck.kind if recheck is not None else None,
    )


# ----------------------------------------------------------------------
# scalar-curvature lower bounds along trajectories


@dataclass(frozen=True)
class EstimateReport:
    variant: EstimateVariant
    worst_slack: float  # +inf when the trigger never fires
    trigger_times: tuple[tuple[float, float], ...]
    checkpoints: int


@dataclass(frozen=True)
class EstimateSuiteReport(_Work):
    variant: EstimateVariant
    params: FlowParams
    count: int
    seed: int
    tol: float
    worst_slack: float
    violating_seed: int | None
    blowups: int
    min_coverage: float  # lower bound on covered fraction of blow-up time
    trigger_times_worst: tuple[tuple[float, float], ...] | None  # of violating_seed
    reports: tuple[EstimateReport, ...] = field(repr=False)


def _hypothesis_ok(variant: EstimateVariant, row: np.ndarray) -> str | None:
    lam, mu, nu = row
    if variant is EstimateVariant.NEG_RHO_SCALAR:
        if lam + mu + nu < 0:
            return f"needs initial scalar curvature >= 0, got trace {lam+mu+nu}"
    elif variant is EstimateVariant.NEG_RHO_SECTIONAL:
        if mu + nu < 0:
            return f"needs initial Ricci >= 0, got mu+nu = {mu+nu}"
        if nu < -1.0:
            return f"needs initial nu >= -1, got {nu}"
    else:
        if nu < -1.0:
            return f"needs initial nu >= -1, got {nu}"
    return None


def check_estimate(
    traj: Trajectory,
    variant: EstimateVariant,
    params: FlowParams,
) -> EstimateReport:
    """Assert the variant's curvature bound along one trajectory.

    The initial state must satisfy the variant's hypothesis (checked,
    HypothesisViolated otherwise).  At every dense checkpoint where the
    trigger holds (mu+nu < 0 for the scalar variant, nu < 0 otherwise)
    the slack R - bound is recorded; an untriggered trajectory reports
    worst_slack = +inf and no intervals.
    """
    validate_variant_params(variant, params)
    bad = _hypothesis_ok(variant, traj.states_array[0])
    if bad is not None:
        raise HypothesisViolated(f"{variant.value}: {bad}")
    ts = _checkpoint_times(traj, uniform=257)
    rows = traj.eval_many(ts)
    smallest = (
        rows[:, 1] + rows[:, 2]
        if variant is EstimateVariant.NEG_RHO_SCALAR
        else rows[:, 2]
    )
    scalar_curv = 2.0 * rows.sum(axis=1)
    trig = smallest < 0.0
    bound = estimate_rhs_array(variant, smallest[trig], params, ts[trig])
    slack = scalar_curv[trig] - bound
    # contiguous triggered checkpoint runs -> closed time intervals: a run
    # starts where the padded mask steps up and ends before it steps down
    edges = np.diff(trig.astype(np.int8), prepend=0, append=0)
    firsts, lasts = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return EstimateReport(
        variant=variant,
        worst_slack=float(slack.min(initial=math.inf)),
        trigger_times=tuple(
            (float(ts[a]), float(ts[b])) for a, b in zip(firsts, lasts)
        ),
        checkpoints=len(ts),
    )


def _seeded_starts(
    count: int, seed: int, low: float, high: float,
    accept: Callable[[np.ndarray], bool],
) -> list[EigenTriple]:
    """``count`` ordered starts, start i the first draw from [low, high)^3
    of PCG64(SeedSequence(seed).spawn(count)[i]) that ``accept`` takes."""
    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.Generator(np.random.PCG64(child))
        for _ in range(10_000):
            cand = np.sort(rng.uniform(low, high, size=3))[::-1]
            if accept(cand):
                out.append(EigenTriple(*cand))
                break
        else:  # pragma: no cover - every box and predicate used is fat
            raise RuntimeError("start sampling exhausted")
    return out


def _estimate_initial_states(
    variant: EstimateVariant, count: int, seed: int
) -> list[EigenTriple]:
    """Seeded hypothesis-satisfying starts, nondegenerate trace.

    Boxes: [-1,3]^3 for the rho<0 variants (the box floor already
    enforces nu >= -1), [-1,2]^3 for NONNEG_RHO.  Beyond each variant's
    hypothesis we require trace >= 0.05, which guarantees finite-time
    blow-up (by the trace comparison bound) within any generous t_end,
    and for NEG_RHO_SCALAR additionally mu+nu >= -1, keeping the start
    inside the preserved trace-positive region.
    """
    high = 2.0 if variant is EstimateVariant.NONNEG_RHO else 3.0
    scalar = variant is EstimateVariant.NEG_RHO_SCALAR
    return _seeded_starts(count, seed, -1.0, high, lambda c: (
        c.sum() >= 0.05
        and not (scalar and c[1] + c[2] < -1.0)
        and _hypothesis_ok(variant, c) is None
    ))


def estimate_suite(
    variant: EstimateVariant,
    params: FlowParams,
    count: int,
    seed: int,
    config: IntegratorConfig | None = None,
    tol: float = 1e-8,
    t_end: float = 50.0,
) -> EstimateSuiteReport:
    """Run the variant's bound over ``count`` seeded blow-up trajectories.

    Each start satisfies the hypothesis and has trace >= 0.05, so every
    trajectory blows up well before ``t_end``; integration then stops at
    the blow-up norm, which covers all but a ~1/norm sliver of the
    maximal existence time.  min_coverage is a per-run lower bound on
    the covered fraction, computed from the trace comparison bound on
    the remaining lifetime.
    """
    validate_variant_params(variant, params)
    if count <= 0:
        raise ValueError("count must be positive")
    validate_tol(tol)
    states = _estimate_initial_states(variant, count, seed)

    def lane(traj: Trajectory) -> tuple[EstimateReport, float]:
        rep = check_estimate(traj, variant, params)
        if traj.terminal.kind != BLOWUP:
            return rep, math.inf
        trace_last = float(traj.states_array[-1].sum())
        remaining = 3.0 / (4.0 * (1.0 - 3.0 * params.rho) * trace_last)
        return rep, traj.t_last / (traj.t_last + remaining)

    lanes, work_done = _run_lanes(states, params, t_end, config, lane)
    reports = tuple(rep for rep, _ in lanes)
    worst, violating = _worst_lane([rep.worst_slack for rep in reports], tol)
    coverage = min(cover for _, cover in lanes)
    blowups = work_done.terminal_kinds.get(BLOWUP, 0)
    return EstimateSuiteReport(
        variant=variant,
        params=params,
        count=count,
        seed=seed,
        tol=tol,
        worst_slack=worst,
        violating_seed=violating,
        blowups=blowups,
        min_coverage=coverage if blowups else 0.0,
        trigger_times_worst=None if violating is None else reports[violating].trigger_times,
        **asdict(work_done),
        reports=reports,
    )


# ----------------------------------------------------------------------
# derivative identities


class QuantityKind(enum.Enum):
    """Monotone quantities with exact closed-form rates."""

    LAMBDA_PINCH = "lambda-pinch"
    XI_PINCH = "xi-pinch"


@dataclass(frozen=True)
class DerivReport:
    quantity: QuantityKind
    h: float
    max_discrepancy: float
    checkpoints: int


@dataclass(frozen=True)
class DerivSuiteReport(_Work):
    quantity: QuantityKind
    params: FlowParams
    trajectories: int
    seed: int
    h: float
    max_discrepancy: float
    max_discrepancy_half_h: float
    decay_ratio: float  # discrepancy(h) / discrepancy(h/2); ~4 for O(h^2)
    worst_trajectory: int | None  # spawn index of the worst one at h
    checkpoints: int  # central-difference points evaluated, at h and h/2


_DERIV_POINTS = 33  # central-difference points per window


def derivative_consistency(
    traj: Trajectory,
    quantity: QuantityKind,
    params: FlowParams,
    h: float = 1e-4,
    points: int = _DERIV_POINTS,
) -> DerivReport:
    """Central-difference vs closed-form rate along one trajectory.

    The closed forms are exact identities, so the discrepancy is pure
    finite-difference error, O(h^2), on top of the integrator's dense
    interpolation floor.  Domain violations inside the sampled window
    (mu+nu >= 0 for the ratio-log quantity, nu >= 0 or a dead time
    factor for the sectional-log one) surface as DomainError.

    The window is evaluated in one dense call: all ``3 * points`` times
    (tau + h, tau - h, tau) go through one ``eval_many``, whose rows are
    bit-identical to one-point evaluations, and the quantity and its
    rate each go through one array kernel, with the bits of the
    one-triple functions.  A DomainError names the first offending
    point in (tau + h, tau - h, tau) order, point by point.
    """
    return _deriv_reports(traj, quantity, params, (h,), points)[0]


def _deriv_reports(
    traj: Trajectory, quantity: QuantityKind, params: FlowParams,
    hs: Sequence[float], points: int,
) -> list[DerivReport]:
    """``derivative_consistency`` at each step in ``hs``, the windows of
    every step evaluated in one ``eval_many`` call and one call of each
    kernel."""
    t0, t1 = traj.t_start, traj.t_last
    for h in hs:
        if not h > 0:
            raise ValueError("h must be positive")
        if t1 - t0 <= 4 * h:
            raise ValueError(f"window [{t0}, {t1}] too short for h={h}")
    taus = [np.linspace(t0 + 2 * h, t1 - 2 * h, points) for h in hs]
    ts = np.concatenate([t for h, tau in zip(hs, taus) for t in (tau + h, tau - h, tau)])
    rows = traj.eval_many(ts)
    # blocks of (step, slot, point); slots 0 and 1 hold tau +- h, slot 2 tau
    ts = ts.reshape(len(hs), 3, points)
    try:
        if not np.isfinite(rows).all():
            raise DomainError("eigenvalues must be finite")
        lmn = np.sort(rows, axis=1)[:, ::-1].T.reshape(3, len(hs), 3, points)
        shifted, centred = lmn[:, :, :2], lmn[:, :, 2]
        if quantity is QuantityKind.LAMBDA_PINCH:
            q = lambda_pinch_array(*shifted, params.rho)
            cf = lambda_pinch_rate_array(*centred, params.rho)
        else:
            q = xi_pinch_array(*shifted, params, ts[:, :2])
            cf = xi_pinch_rate_array(*centred, params, ts[:, 2])
    except DomainError:
        _raise_at_first_point(quantity, params, rows.reshape(len(hs), 3, points, 3), ts)
        raise
    fd = (q[:, 0] - q[:, 1]) / (2.0 * np.array(hs)[:, None])
    # max() over a list starting at 0.0 replaces only on >, so a NaN never wins
    return [
        DerivReport(quantity, h, max([0.0, *d.tolist()]), checkpoints=points)
        for h, d in zip(hs, np.abs(fd - cf))
    ]


def _raise_at_first_point(
    quantity: QuantityKind, params: FlowParams, rows: np.ndarray, ts: np.ndarray
) -> None:
    """Evaluate failed windows one triple at a time, in (tau + h, tau - h,
    tau) order per point, so the DomainError raised names the first
    offending point."""
    for step_rows, step_ts in zip(rows, ts):
        for i in range(step_ts.shape[1]):
            for slot in range(3):
                state = EigenTriple.sorted_from(*step_rows[slot, i])
                if quantity is QuantityKind.LAMBDA_PINCH:
                    (lambda_pinch_rate if slot == 2 else lambda_pinch)(state, params)
                else:
                    t = step_ts[slot, i]
                    (xi_pinch_rate if slot == 2 else xi_pinch)(state, params, t)


def _deriv_initial_states(
    quantity: QuantityKind, n: int, seed: int
) -> list[EigenTriple]:
    """Seeded starts keeping the quantity's domain condition with room:
    mu+nu <= -1 for the ratio-log quantity, nu <= -1 for the other; over
    the short suite window the flow cannot push either back to zero.
    The boxes stay near unit scale on purpose — the third time
    derivative entering the central-difference error grows cubically
    with state amplitude."""
    if quantity is QuantityKind.LAMBDA_PINCH:
        return _seeded_starts(n, seed, -1.0, 1.0, lambda c: c[1] + c[2] <= -1.0)
    return _seeded_starts(n, seed, -1.2, 0.8, lambda c: c[2] <= -1.0)


def deriv_suite(
    quantity: QuantityKind,
    params: FlowParams,
    trajectories: int = 20,
    seed: int = 0,
    h: float = 1e-4,
    t_end: float = 0.01,
    config: IntegratorConfig | None = None,
) -> DerivSuiteReport:
    """Derivative-identity check over seeded short trajectories at h and
    h/2; the ratio of worst discrepancies exposes the O(h^2) decay.

    worst_trajectory is the spawn index of the trajectory with the
    largest discrepancy at h (None if none is positive), and checkpoints
    counts the central-difference points behind the verdict."""
    if trajectories <= 0:
        raise ValueError("trajectories must be positive")
    states = _deriv_initial_states(quantity, trajectories, seed)
    lanes, work_done = _run_lanes(
        states, params, t_end, config,
        lambda traj: _deriv_reports(traj, quantity, params, (h, h / 2), _DERIV_POINTS),
    )
    at_h = [rep.max_discrepancy for rep, _ in lanes]
    worst_h = max(at_h)
    worst_h2 = max(rep2.max_discrepancy for _, rep2 in lanes)
    ratio = worst_h / worst_h2 if worst_h2 > 0 else math.inf
    return DerivSuiteReport(
        quantity=quantity,
        params=params,
        trajectories=trajectories,
        seed=seed,
        h=h,
        max_discrepancy=worst_h,
        max_discrepancy_half_h=worst_h2,
        decay_ratio=ratio,
        worst_trajectory=at_h.index(worst_h) if worst_h > 0 else None,
        checkpoints=sum(rep.checkpoints + rep2.checkpoints for rep, rep2 in lanes),
        **asdict(work_done),
    )
