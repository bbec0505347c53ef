"""Executable checks for the claims the rest of the package encodes.

Four instruments:

* ``scan_inequality`` — brute-force sign scans of the homogeneous
  polynomial claims (the two J cases, the I polynomial, the xi-rate
  numerator, and the trace comparison) on a deterministic grid over the
  sup-norm unit slice of each claim's cone, or over random ordered
  states for the trace comparison.
* ``check_invariance`` — samples states in a thin band along a region's
  boundary, pushes each through the flow, and re-evaluates membership
  at dense checkpoints (with the membership clock advancing along the
  trajectory for the time-dependent regions).
* ``check_estimate`` — asserts the scalar-curvature lower bounds along
  a trajectory wherever their trigger holds.
* ``derivative_consistency`` — central-difference vs closed-form rate
  for the two monotone quantities, the numerical cross-examination of
  the exact derivative identities.  Each trajectory window is evaluated
  in one dense call, not one call per difference point.

Reports normalize drift by 1/(1+|trace|): raw membership margins grow
like the state and are meaningless near blow-up, where time-shift error
moves points *along* the flow (and the regions are flow-invariant), so
only the scale-free transverse defect is informative.  Scan margins
stay raw on the normalized slice; for unnormalized trace-bound inputs
the violation cutoff is scaled by max(1, sup-norm)^3.

"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cone_sets import SetKind, SetSpec, margin_array, sample_set
from .eigen_ode import RHO_MAX, EigenTriple, FlowParams, rhs_array
from .errors import DomainError, EmptyRegion, HypothesisViolated
from .integrator import BLOWUP, IntegratorConfig, Trajectory, integrate
from .pinch_functions import (
    EstimateVariant,
    estimate_rhs_array,
    i_poly_array,
    j_poly_array,
    lambda_pinch,
    lambda_pinch_rate,
    validate_variant_params,
    xi_pinch,
    xi_pinch_rate,
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
    resolution: int
    points_checked: int
    min_margin: float
    argmin_state: EigenTriple
    violations: int
    tol: float
    near_boundary_points: int
    mode: str = "grid"  # "grid" or "random"
    scan_times: tuple[float, ...] = (0.0,)
    samples: int | None = None
    seed: int | None = None
    injected_max_abs_margin: float | None = None


def _unit_slice(resolution: int):
    """All ordered states with sup-norm exactly 1, as three grid columns.

    Such a state has lam = 1 or nu = -1 (the largest-magnitude entry is
    the top one if positive, the bottom one if negative), so the slice
    is two square faces; the shared edge lam=1, nu=-1 is kept on the
    first face only.  Each face keeps the lower triangle (row >= column)
    of its resolution^2 grid in row-major order: face a is
    (1, mu, nu) with mu >= nu, face b is (lam, mu, -1) with lam >= mu
    and without its last row lam = 1.  Returns contiguous ``lam, mu,
    nu`` arrays gathered from one triangle index.
    """
    xs = np.linspace(-1.0, 1.0, resolution)
    rows, cols = np.nonzero(np.tri(resolution, dtype=bool))
    n_a = len(rows)
    n_b = n_a - resolution
    lam, mu, nu = np.empty(n_a + n_b), np.empty(n_a + n_b), np.empty(n_a + n_b)
    lam[:n_a] = 1.0
    np.take(xs, rows, out=mu[:n_a])
    np.take(xs, cols, out=nu[:n_a])
    np.take(xs, rows[:n_b], out=lam[n_a:])
    np.take(xs, cols[:n_b], out=mu[n_a:])
    nu[n_a:] = -1.0
    return lam, mu, nu


def _region_masks(kind: InequalityKind, lam, mu, nu):
    """(region mask, distance-to-region-boundary) for slice points."""
    trace = lam + mu + nu
    ric = mu + nu
    if kind is InequalityKind.J_NEG_TRACE:
        return (trace <= 0) & (ric < 0), np.minimum(-trace, -ric)
    if kind is InequalityKind.J_NONNEG_TRACE:
        return (trace >= 0) & (ric < 0), np.minimum(trace, -ric)
    if kind is InequalityKind.I_POLY:
        return nu < 0, -nu
    if kind is InequalityKind.XI_PRIME:
        return (ric >= 0) & (nu < 0), np.minimum(ric, -nu)
    return np.ones(len(lam), dtype=bool), np.full(len(lam), np.inf)


def _validate_scan_params(kind: InequalityKind, params: FlowParams) -> None:
    rho = params.rho
    if kind in (InequalityKind.J_NEG_TRACE, InequalityKind.J_NONNEG_TRACE):
        if rho >= 0:
            raise DomainError(f"{kind.value} scan needs rho < 0, got {rho}")
    elif kind is InequalityKind.I_POLY:
        if not (0.0 <= rho < RHO_MAX):
            raise DomainError(f"{kind.value} scan needs 0 <= rho < 1/4, got {rho}")
    elif kind is InequalityKind.XI_PRIME:
        if params.eta <= 0 or not (-1.0 / params.eta < rho < 0.0):
            raise DomainError(
                f"{kind.value} scan needs eta > 0 and -1/eta < rho < 0, "
                f"got eta={params.eta}, rho={rho}"
            )
        want = -1.0 / (2.0 * rho)
        if not math.isclose(params.theta, want, rel_tol=1e-9):
            raise DomainError(
                f"{kind.value} scan needs theta = -1/(2 rho) = {want}, "
                f"got {params.theta}"
            )


def _margin_for(kind: InequalityKind, lam, mu, nu, params: FlowParams, t: float):
    rho = params.rho
    if kind is InequalityKind.J_NEG_TRACE:
        return j_poly_array(lam, mu, nu, rho)
    if kind is InequalityKind.J_NONNEG_TRACE:
        ric = mu + nu
        return j_poly_array(lam, mu, nu, rho) - rho / (1.0 - 2.0 * rho) * ric**3
    if kind is InequalityKind.I_POLY:
        return i_poly_array(lam, mu, nu, rho)
    if kind is InequalityKind.XI_PRIME:
        return xi_prime_numerator_array(lam, mu, nu, params, t)
    dl, dm, dn = rhs_array(lam, mu, nu, rho)
    trace = lam + mu + nu
    return (dl + dm + dn) - (4.0 / 3.0) * (1.0 - 3.0 * rho) * trace * trace


def _lexicographic_argmin(margins: np.ndarray, lam, mu, nu) -> int:
    lowest = margins.min()
    cands = np.nonzero(margins == lowest)[0]
    if len(cands) == 1:
        return int(cands[0])
    order = np.lexsort((nu[cands], mu[cands], lam[cands]))
    return int(cands[order[0]])


_ISO_INJECT = (1.0, -1.0, 0.5, -2.0, 3.25)


def scan_inequality(
    kind: InequalityKind,
    params: FlowParams,
    resolution: int = 200,
    tol: float = DEFAULT_SCAN_TOL,
    scan_times: Sequence[float] = (0.0,),
    samples: int | None = None,
    seed: int = 0,
    inject_isotropic: bool = True,
) -> ScanReport:
    """Evaluate one sign claim over its region and report the minimum.

    Grid mode (default) exploits degree-3 homogeneity: the claim margin
    is evaluated on a resolution^2-scale grid over the sup-norm unit
    slice of the region (two cube faces), where an affine threshold like
    mu+nu <= -e^(1-4 rho) homogenizes to mu+nu < 0.  For XI_PRIME the
    time term is evaluated at every entry of ``scan_times`` (default
    t=0, the most adverse time) and the per-point minimum is kept.

    Random mode (``samples`` set, TRACE_BOUND only) checks the margin at
    that many seeded random ordered states in [-5, 5]^3, with the
    violation cutoff scaled per point by max(1, sup-norm)^3, plus a few
    injected isotropic states where the margin must vanish identically.

    Raises EmptyRegion when no grid point lands in the region.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    _validate_scan_params(kind, params)
    if samples is not None and kind is not InequalityKind.TRACE_BOUND:
        raise ValueError("random-state mode exists only for trace-bound scans")

    if samples is not None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        draw = rng.uniform(-5.0, 5.0, size=(samples, 3))
        cols = np.empty((3, samples + (len(_ISO_INJECT) if inject_isotropic else 0)))
        cols[:, :samples] = draw.T  # three contiguous columns
        del draw
        if inject_isotropic:
            cols[:, samples:] = _ISO_INJECT
        # a three-element compare-exchange network orders each row in
        # place, lam >= mu >= nu, with the same values as a row sort
        a, b, c = cols[:, :samples]
        lo = np.minimum(a, b)
        np.maximum(a, b, out=a)
        np.maximum(lo, c, out=b)
        np.minimum(lo, c, out=c)
        np.minimum(a, b, out=lo)
        np.maximum(a, b, out=a)
        b[:] = lo
        del lo
        lam, mu, nu = cols
        margins = _margin_for(kind, *cols, params, 0.0)
        # the largest magnitude of an ordered triple sits at one of its ends
        cutoff = tol * np.maximum(1.0, np.maximum(np.abs(lam), np.abs(nu))) ** 3
        violations = int((margins < -cutoff).sum())
        amin = _lexicographic_argmin(margins, *cols)
        inj_max = (
            float(np.abs(margins[-len(_ISO_INJECT):]).max())
            if inject_isotropic
            else None
        )
        return ScanReport(
            kind=kind,
            params=params,
            resolution=resolution,
            points_checked=len(lam),
            min_margin=float(margins[amin]),
            argmin_state=EigenTriple(lam[amin], mu[amin], nu[amin]),
            violations=violations,
            tol=tol,
            near_boundary_points=0,
            mode="random",
            samples=samples,
            seed=seed,
            injected_max_abs_margin=inj_max,
        )

    cols = _unit_slice(resolution)
    mask, slack = _region_masks(kind, *cols)
    region = np.flatnonzero(mask)
    if len(region) == 0:
        raise EmptyRegion(
            f"no grid point of the resolution-{resolution} slice lies in "
            f"the {kind.value} region"
        )
    cols = tuple(np.take(c, region) for c in cols)
    margins = _margin_for(kind, *cols, params, float(scan_times[0]))
    for t in scan_times[1:]:
        margins = np.minimum(margins, _margin_for(kind, *cols, params, float(t)))
    violations = int((margins < -tol).sum())
    amin = _lexicographic_argmin(margins, *cols)
    near = int((np.take(slack, region) < 2.0 / resolution).sum())
    return ScanReport(
        kind=kind,
        params=params,
        resolution=resolution,
        points_checked=len(region),
        min_margin=float(margins[amin]),
        argmin_state=EigenTriple(*(c[amin] for c in cols)),
        violations=violations,
        tol=tol,
        near_boundary_points=near,
        scan_times=tuple(float(t) for t in scan_times),
    )


# ----------------------------------------------------------------------
# flow-invariance of the preserved regions


@dataclass(frozen=True)
class InvarianceReport:
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
    steps_accepted: int  # integrator work summed over the samples
    steps_rejected: int
    rhs_evals: int
    terminal_kinds: dict[str, int]  # terminal kind -> samples, in sample order
    claimed: bool  # False = observation run, never a pass/fail verdict
    recheck_kind: SetKind | None = None


def invariance_is_claimed(spec: SetSpec) -> bool:
    """Whether flow-invariance of this region is an established claim.

    X and W: claimed for every admissible (rho < 0) parameter set.
    Y: claimed for eta > 0, -1/eta < rho < 0, theta = -1/(2 rho).
    K: claimed for eta = -4, theta = 1, 0 <= rho < 1/4.
    Anything else runs as an observation.
    """
    p = spec.params
    if spec.kind in (SetKind.RICCI_LOG_STATIC, SetKind.TRACE_POSITIVE_RICCI_LOG):
        return True
    if spec.kind is SetKind.SECTIONAL_LOG_NONNEG_RICCI:
        return (
            p.eta > 0
            and -1.0 / p.eta < p.rho < 0.0
            and math.isclose(p.theta, -1.0 / (2.0 * p.rho), rel_tol=1e-9)
        )
    return (
        math.isclose(p.eta, -4.0)
        and math.isclose(p.theta, 1.0)
        and 0.0 <= p.rho < RHO_MAX
    )


def _checkpoint_times(traj: Trajectory, uniform: int = 129):
    """A uniform grid over the covered interval plus every accepted node."""
    t0, t1 = traj.t_start, traj.t_last
    if t1 <= t0:
        return np.asarray([t0])
    return np.unique(np.concatenate([np.linspace(t0, t1, uniform), traj.times]))


def _work_counters(lanes) -> dict:
    """Integrator work of (stats, terminal kind) lanes, summed in order."""
    counters = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 0}
    kinds: dict[str, int] = {}
    for stats, kind in lanes:
        counters["steps_accepted"] += stats["accepted"]
        counters["steps_rejected"] += stats["rejected"]
        counters["rhs_evals"] += stats["rhs_evals"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {**counters, "terminal_kinds": kinds}


def _drift_one(
    state: EigenTriple,
    spec: SetSpec,
    recheck: SetSpec,
    horizon: float,
    config: IntegratorConfig,
) -> tuple[float, int, dict, str]:
    traj = integrate(state, spec.params, 0.0, horizon, config)
    ts = _checkpoint_times(traj)
    rows = traj.eval_many(ts)
    margins = margin_array(recheck, rows[:, 0], rows[:, 1], rows[:, 2], ts)
    trace = rows.sum(axis=1)
    drift = margins / (1.0 + np.abs(trace))
    return float(drift.min()), len(ts), traj.stats, traj.terminal.kind


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
    cfg = config or IntegratorConfig()
    eff_recheck = recheck or spec
    band = 100.0 * tol
    states = sample_set(spec, 0.0, samples, seed, band=band)
    results = [
        _drift_one(state, spec, eff_recheck, horizon, cfg) for state in states
    ]

    worst = math.inf
    worst_idx = -1
    points = 0
    for i, (drift, npts, _, _) in enumerate(results):
        points += npts
        if drift < worst:
            worst = drift
            worst_idx = i
    work_done = _work_counters((stats, kind) for _, _, stats, kind in results)
    claimed = invariance_is_claimed(spec) and recheck is None
    return InvarianceReport(
        spec=spec,
        samples=samples,
        horizon=horizon,
        seed=seed,
        band=band,
        tol=tol,
        worst_drift=worst,
        violating_seed=worst_idx if worst < -tol else None,
        blowups=work_done["terminal_kinds"].get(BLOWUP, 0),
        checkpoints=points,
        **work_done,
        claimed=claimed,
        recheck_kind=eff_recheck.kind if recheck is not None else None,
    )


# ----------------------------------------------------------------------
# scalar-curvature lower bounds along trajectories


@dataclass(frozen=True)
class EstimateReport:
    variant: EstimateVariant
    trajectory_id: str
    worst_slack: float  # +inf when the trigger never fires
    trigger_times: tuple[tuple[float, float], ...]
    checkpoints: int
    tol: float


@dataclass(frozen=True)
class EstimateSuiteReport:
    variant: EstimateVariant
    params: FlowParams
    count: int
    seed: int
    tol: float
    worst_slack: float
    violating_seed: int | None
    blowups: int
    min_coverage: float  # lower bound on covered fraction of blow-up time
    steps_accepted: int  # integrator work summed over the trajectories
    steps_rejected: int
    rhs_evals: int
    terminal_kinds: dict[str, int]  # terminal kind -> trajectories, in order
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
    tol: float = 1e-8,
    trajectory_id: str = "custom",
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
    if not trig.any():
        return EstimateReport(
            variant=variant,
            trajectory_id=trajectory_id,
            worst_slack=math.inf,
            trigger_times=(),
            checkpoints=len(ts),
            tol=tol,
        )
    bound = estimate_rhs_array(variant, smallest[trig], params, ts[trig])
    slack = scalar_curv[trig] - bound
    # contiguous triggered checkpoint runs -> closed time intervals
    intervals = []
    start = None
    for i, on in enumerate(trig):
        if on and start is None:
            start = ts[i]
        elif not on and start is not None:
            intervals.append((float(start), float(ts[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(ts[-1])))
    return EstimateReport(
        variant=variant,
        trajectory_id=trajectory_id,
        worst_slack=float(slack.min()),
        trigger_times=tuple(intervals),
        checkpoints=len(ts),
        tol=tol,
    )


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
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        for _ in range(10_000):
            cand = np.sort(rng.uniform(-1.0, high, size=3))[::-1]
            if cand.sum() < 0.05:
                continue
            ric = cand[1] + cand[2]
            if variant is EstimateVariant.NEG_RHO_SCALAR and ric < -1.0:
                continue
            if variant is EstimateVariant.NEG_RHO_SECTIONAL and ric < 0.0:
                continue
            out.append(EigenTriple(*cand))
            break
        else:  # pragma: no cover - box/hypothesis combinations are fat
            raise RuntimeError("estimate start sampling exhausted")
    return out


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
    cfg = config or IntegratorConfig()
    states = _estimate_initial_states(variant, count, seed)

    worst = math.inf
    worst_idx = -1
    coverage = math.inf
    reports = []
    lanes = []
    for i, state in enumerate(states):
        traj = integrate(state, params, 0.0, t_end, cfg)
        rep = check_estimate(traj, variant, params, tol, trajectory_id=str(i))
        reports.append(rep)
        lanes.append((traj.stats, traj.terminal.kind))
        if traj.terminal.kind == BLOWUP:
            t_last = traj.t_last
            trace_last = float(traj.states_array[-1].sum())
            remaining = 3.0 / (4.0 * (1.0 - 3.0 * params.rho) * trace_last)
            coverage = min(coverage, t_last / (t_last + remaining))
        if rep.worst_slack < worst:
            worst = rep.worst_slack
            worst_idx = i
    work_done = _work_counters(lanes)
    blowups = work_done["terminal_kinds"].get(BLOWUP, 0)
    return EstimateSuiteReport(
        variant=variant,
        params=params,
        count=count,
        seed=seed,
        tol=tol,
        worst_slack=worst,
        violating_seed=worst_idx if worst < -tol else None,
        blowups=blowups,
        min_coverage=coverage if blowups else 0.0,
        **work_done,
        reports=tuple(reports),
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
class DerivSuiteReport:
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


def derivative_consistency(
    traj: Trajectory,
    quantity: QuantityKind,
    params: FlowParams,
    h: float = 1e-4,
    points: int = 33,
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
    rate are then taken point by point in scalar arithmetic.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    t0, t1 = traj.t_start, traj.t_last
    if t1 - t0 <= 4 * h:
        raise ValueError(f"window [{t0}, {t1}] too short for h={h}")
    taus = np.linspace(t0 + 2 * h, t1 - 2 * h, points)

    def value(state: EigenTriple, t: float) -> float:
        if quantity is QuantityKind.LAMBDA_PINCH:
            return lambda_pinch(state, params)
        return xi_pinch(state, params, t)

    def rate(state: EigenTriple, t: float) -> float:
        if quantity is QuantityKind.LAMBDA_PINCH:
            return lambda_pinch_rate(state, params)
        return xi_pinch_rate(state, params, t)

    tp, tm = taus + h, taus - h
    rows = traj.eval_many(np.concatenate([tp, tm, taus])).reshape(3, points, 3)
    worst = 0.0
    for i, tau in enumerate(taus):
        qp = value(EigenTriple.sorted_from(*rows[0, i]), tp[i])
        qm = value(EigenTriple.sorted_from(*rows[1, i]), tm[i])
        fd = (qp - qm) / (2.0 * h)
        cf = rate(EigenTriple.sorted_from(*rows[2, i]), tau)
        worst = max(worst, abs(fd - cf))
    return DerivReport(
        quantity=quantity, h=h, max_discrepancy=worst, checkpoints=len(taus)
    )


def _deriv_initial_states(
    quantity: QuantityKind, n: int, seed: int
) -> list[EigenTriple]:
    """Seeded starts keeping the quantity's domain condition with room:
    mu+nu <= -1 for the ratio-log quantity, nu <= -1 for the other; over
    the short suite window the flow cannot push either back to zero.
    The boxes stay near unit scale on purpose — the third time
    derivative entering the central-difference error grows cubically
    with state amplitude."""
    children = np.random.SeedSequence(seed).spawn(n)
    lo, hi = (
        (-1.0, 1.0)
        if quantity is QuantityKind.LAMBDA_PINCH
        else (-1.2, 0.8)
    )
    out = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        for _ in range(10_000):
            cand = np.sort(rng.uniform(lo, hi, size=3))[::-1]
            if quantity is QuantityKind.LAMBDA_PINCH:
                if cand[1] + cand[2] > -1.0:
                    continue
            elif cand[2] > -1.0:
                continue
            out.append(EigenTriple(*cand))
            break
        else:  # pragma: no cover
            raise RuntimeError("derivative start sampling exhausted")
    return out


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
    cfg = config or IntegratorConfig()
    states = _deriv_initial_states(quantity, trajectories, seed)
    worst_h = 0.0
    worst_h2 = 0.0
    worst_idx = None
    checkpoints = 0
    for i, state in enumerate(states):
        traj = integrate(state, params, 0.0, t_end, cfg)
        rep = derivative_consistency(traj, quantity, params, h)
        rep2 = derivative_consistency(traj, quantity, params, h / 2)
        if rep.max_discrepancy > worst_h:
            worst_h = rep.max_discrepancy
            worst_idx = i
        worst_h2 = max(worst_h2, rep2.max_discrepancy)
        checkpoints += rep.checkpoints + rep2.checkpoints
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
        worst_trajectory=worst_idx,
        checkpoints=checkpoints,
    )
