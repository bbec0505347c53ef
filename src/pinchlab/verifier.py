"""Executable checks for the claims the rest of the package encodes.

Four instruments:

* ``scan_inequality`` — brute-force sign scans of the homogeneous
  polynomial claims (the two J cases, the I polynomial, the xi-rate
  numerator at t = 0, and the trace comparison) on a deterministic grid
  over the sup-norm unit slice of each claim's cone, or over random
  ordered states for the trace comparison.  Both modes feed one
  reduction loop over blocks of about 2^16 points, the package's one
  block size ``pinch_functions._BLOCK`` (runs of whole grid rows, each
  row's region points one run of columns, or runs of draws), so a
  scan's memory stays bounded at any resolution or sample count and its
  temporaries stay in cache.
* ``check_invariance`` — samples states in a thin band along a region's
  boundary, pushes each through the flow, and re-evaluates membership
  at every node and at fixed fractions of every step (with the clock of
  the time-dependent regions advancing along the trajectory).
* ``check_estimate`` — asserts the scalar-curvature lower bounds along
  a trajectory wherever their trigger holds, at the same points.
* ``deriv_suite`` — central-difference vs closed-form rate for the two
  monotone quantities over seeded short trajectories, the numerical
  cross-examination of the exact derivative identities.  A trajectory's
  windows, at h and h/2, are evaluated in one dense call, and the
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
integrator's work) is written once, in ``_run_lanes``, which hands the
trajectories to the suite's reader a block at a time: the invariance and
estimate readers make one ``integrator._read_lanes`` call, which inverts
no clock, and one margin or bound call per block, so a lane's check
costs no fixed numpy overhead of its own.
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
from .errors import DomainError, EmptyRegion, HypothesisViolated, _require_integer
from .integrator import BLOWUP, IntegratorConfig, Trajectory, _read_lanes, integrate
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
    "DerivSuiteReport",
    "scan_inequality",
    "check_invariance",
    "invariance_is_claimed",
    "check_estimate",
    "estimate_suite",
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


def _region_tests(kind: InequalityKind):
    """The region tests of ``kind``, and the slack terms whose minimum
    is a point's distance to the region's boundary, each a function of
    ``(lam, mu, nu)``, so that a caller evaluates only the one it reads.

    A rounded sum is monotone in each operand and xs increases, so along
    a face row each quantity below is monotone in the column: every test,
    and every ``slack >= width``, holds on a prefix or on a suffix of the
    row's columns.
    """
    if kind is InequalityKind.J_NEG_TRACE:
        return ((lambda lam, mu, nu: lam + mu + nu <= 0, lambda lam, mu, nu: mu + nu < 0),
                (lambda lam, mu, nu: -(lam + mu + nu), lambda lam, mu, nu: -(mu + nu)))
    if kind is InequalityKind.J_NONNEG_TRACE:
        return ((lambda lam, mu, nu: lam + mu + nu >= 0, lambda lam, mu, nu: mu + nu < 0),
                (lambda lam, mu, nu: lam + mu + nu, lambda lam, mu, nu: -(mu + nu)))
    if kind is InequalityKind.I_POLY:
        return (lambda lam, mu, nu: nu < 0,), (lambda lam, mu, nu: -nu,)
    if kind is InequalityKind.XI_PRIME:
        return ((lambda lam, mu, nu: mu + nu >= 0, lambda lam, mu, nu: nu < 0),
                (lambda lam, mu, nu: mu + nu, lambda lam, mu, nu: -nu))
    return (), ()  # every ordered state is in the trace-bound region


def _true_run(test, n):
    """Each row's run ``lo <= c < hi`` of the columns ``0 .. n - 1`` where
    ``test`` holds, for a test that holds on a prefix or on a suffix of
    every row (either may be empty or whole).  ``test(c)`` gets one
    column per row; the end of the run of columns that agree with column
    0 is found by bisection, in about log2(max n) calls."""
    first = test(np.zeros_like(n))
    last = np.zeros_like(n)  # each row's last column that agrees with column 0
    step = 1 << (max(int(n.max()) - 1, 1).bit_length() - 1)
    while step:  # the steps sum to at least max n - 1
        c = last + step
        last += step * ((c < n) & (test(np.minimum(c, n - 1)) == first))
        step >>= 1
    end = last + 1
    return np.where(first, 0, end), np.where(first, end, n)


def _grid_blocks(kind: InequalityKind, resolution: int):
    """The region's points of the sup-norm unit slice, a block at a time.

    An ordered state with sup-norm exactly 1 has lam = 1 or nu = -1 (the
    largest-magnitude entry is the top one if positive, the bottom one
    if negative), so over xs = linspace(-1, 1, resolution) the slice is
    two square faces: face a is (1, xs[r], xs[c]) and face b is
    (xs[r], xs[c], -1) without its last row, the edge lam = 1, nu = -1
    that face a holds.  Both keep c <= r.

    Each region test holds on a prefix or a suffix of a row's columns, so
    a row's region points are one run of columns, bounded by bisection
    over all rows of a face at once with ``_true_run``; the points within
    2/resolution of the region's boundary are the run less one inner run,
    bounded alike.  A block is a run of whole rows of one face, cut where
    the face's running point count passes a multiple of
    ``pinch_functions._BLOCK``; it yields the ``lam, mu, nu`` columns of
    its points, row by row, and its near-boundary count.  The face's
    constant coordinate (lam = 1 on face a, nu = -1 on face b) is a
    zero-stride view of the float: every column holds one entry per
    point, and no point outside the region is built.
    """
    xs = np.linspace(-1.0, 1.0, resolution)
    width = 2.0 / resolution
    for face_a, face_rows in ((True, resolution), (False, resolution - 1)):
        row_xs = xs[:face_rows]
        n = np.arange(1, face_rows + 1)  # row r holds the columns c <= r

        def point(c):
            return (1.0, row_xs, xs[c]) if face_a else (row_xs, xs[c], -1.0)

        tests, slacks = _region_tests(kind)
        lo, hi = np.zeros_like(n), n
        for test in tests:
            a, b = _true_run(lambda c: test(*point(c)), n)
            lo, hi = np.maximum(lo, a), np.minimum(hi, b)
        hi = np.maximum(hi, lo)
        far_lo, far_hi = lo, hi  # the run's points no slack term puts near
        for slack in slacks:
            a, b = _true_run(lambda c: slack(*point(c)) >= width, n)
            far_lo, far_hi = np.maximum(far_lo, a), np.minimum(far_hi, b)
        counts = hi - lo
        near = counts - np.maximum(far_hi - far_lo, 0)
        # a row joins the block its last point falls in; rows before the
        # face's first point fall in none
        block = (np.cumsum(counts) - 1) // pinch_functions._BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), face_rows]
        starts, ends = lo.tolist(), hi.tolist()
        for r0, r1 in zip(cuts, cuts[1:]):
            if block[r0] < 0:
                continue
            cols = np.concatenate([xs[a:b] for a, b in zip(starts[r0:r1], ends[r0:r1])])
            rows = np.repeat(row_xs[r0:r1], counts[r0:r1])
            const = np.broadcast_to(1.0 if face_a else -1.0, rows.shape)
            near_block = int(near[r0:r1].sum())
            yield (const, rows, cols, near_block) if face_a else (rows, cols, const, near_block)


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

    Grid points are generated without a mask: each region test is
    monotone along a grid row, so a row's region points are one run of
    columns, whose ends (and the near-boundary count) are found by
    bisection over all rows at once; only the region's points are built,
    in O(points + rows * log resolution) work.

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


def _run_lanes(
    states: Sequence[EigenTriple], params: FlowParams, t_end: float,
    config: IntegratorConfig | None, read: Callable[[list[Trajectory]], list],
) -> tuple[list, _Work]:
    """The ensemble loop of every suite: integrate each start over
    [0, t_end] in start order and hand the trajectories to ``read`` a
    block at a time; it returns one result per lane.  A block is cut
    where the points ``_read_lanes`` takes from it, about four per step,
    pass ``pinch_functions._BLOCK``, which bounds its read and the steps
    it holds.  Returns the results in start order and the integrator
    work summed over the lanes."""
    results: list = []
    block: list[Trajectory] = []
    points = accepted = rejected = evals = 0
    kinds: dict[str, int] = {}
    for state in states:
        traj = integrate(state, params, 0.0, t_end, config)
        accepted += traj.stats["accepted"]
        rejected += traj.stats["rejected"]
        evals += traj.stats["rhs_evals"]
        kinds[traj.terminal.kind] = kinds.get(traj.terminal.kind, 0) + 1
        block.append(traj)
        points += 4 * len(traj.times) - 3
        if points >= pinch_functions._BLOCK:
            results += read(block)
            block, points = [], 0
    if block:
        results += read(block)
    return results, _Work(accepted, rejected, evals, kinds)


def _worst_lane(scores: Sequence[float], tol: float) -> tuple[float, int | None]:
    """The first strictly lowest score (+inf when none is below it) and
    its lane, named only when the score is below -tol."""
    worst, lane = math.inf, -1
    for i, score in enumerate(scores):
        if score < worst:
            worst, lane = score, i
    return worst, lane if worst < -tol else None


def _read_drift(trajs: list[Trajectory], recheck: SetSpec) -> list[tuple[float, int]]:
    """Each lane's lowest normalized membership margin of ``recheck``,
    and the number of checkpoints it was read at: one ``_read_lanes``
    and one ``margin_array`` call for the block."""
    ts, rows, counts = _read_lanes(trajs)
    margins = margin_array(recheck, rows[:, 0], rows[:, 1], rows[:, 2], ts)
    drift = margins / (1.0 + np.abs(rows.sum(axis=1)))
    lowest = np.minimum.reduceat(drift, np.cumsum(counts) - counts)
    return list(zip(lowest.tolist(), counts.tolist()))


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
    errors), and evaluates membership margins at the points of
    ``_read_lanes``, with the region clock advancing along each
    trajectory.  worst_drift is the most negative normalized margin seen
    anywhere; the integrator's work is summed into the report.

    ``recheck`` swaps the region evaluated along trajectories (still
    sampling from ``spec``) — e.g. probing whether the sectional-log
    region alone retains states sampled from its nonneg-Ricci variant.
    Such runs, and parameter sets outside the established claims, are
    flagged claimed=False: observations, not verdicts.
    """
    if not horizon > 0:  # NaN too
        raise ValueError("horizon must be positive")
    _require_integer("samples", samples)
    if samples <= 0:
        raise ValueError("samples must be positive")
    validate_tol(tol)
    eff_recheck = recheck or spec
    band = 100.0 * tol
    states = sample_set(spec, 0.0, samples, seed, band=band)
    lanes, work_done = _run_lanes(
        states, spec.params, horizon, config,
        lambda trajs: _read_drift(trajs, eff_recheck),
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
    elif variant is EstimateVariant.NEG_RHO_SECTIONAL and mu + nu < 0:
        return f"needs initial Ricci >= 0, got mu+nu = {mu+nu}"
    elif nu < -1.0:  # the sectional and nonneg-rho variants
        return f"needs initial nu >= -1, got {nu}"
    return None


def check_estimate(
    traj: Trajectory,
    variant: EstimateVariant,
    params: FlowParams,
) -> EstimateReport:
    """Assert the variant's curvature bound along one trajectory: the
    one-lane case of the block read of ``estimate_suite``.

    The initial state must satisfy the variant's hypothesis (checked,
    HypothesisViolated otherwise).  At every point of ``_read_lanes``
    where the trigger holds (mu+nu < 0 for the scalar variant, nu < 0
    otherwise) the slack R - bound is recorded; an untriggered trajectory
    reports worst_slack = +inf and no intervals.
    """
    return _read_estimates([traj], variant, params)[0]


def _read_estimates(
    trajs: list[Trajectory], variant: EstimateVariant, params: FlowParams,
) -> list[EstimateReport]:
    """``check_estimate`` of each lane of a block, from one
    ``_read_lanes`` and one ``estimate_rhs_array`` call for the block."""
    validate_variant_params(variant, params)
    for traj in trajs:
        bad = _hypothesis_ok(variant, traj.states_array[0])
        if bad is not None:
            raise HypothesisViolated(f"{variant.value}: {bad}")
    ts, rows, counts = _read_lanes(trajs)
    scalar = variant is EstimateVariant.NEG_RHO_SCALAR
    smallest = rows[:, 1] + rows[:, 2] if scalar else rows[:, 2]
    trig = smallest < 0.0
    slack = np.full(len(ts), math.inf)  # +inf where the trigger is off
    bound = estimate_rhs_array(variant, smallest[trig], params, ts[trig])
    slack[trig] = 2.0 * rows[trig].sum(axis=1) - bound
    # contiguous triggered checkpoint runs -> closed time intervals, each
    # cut where its lane opens or closes
    starts = np.cumsum(counts) - counts
    before, after = np.roll(trig, 1), np.roll(trig, -1)
    before[starts] = after[starts - 1] = False
    firsts, lasts = np.flatnonzero(trig & ~before), np.flatnonzero(trig & ~after)
    spans: list[list] = [[] for _ in trajs]
    lanes = starts.searchsorted(firsts, "right") - 1
    for lane, a, b in zip(lanes.tolist(), ts[firsts].tolist(), ts[lasts].tolist()):
        spans[lane].append((a, b))
    worst = np.minimum.reduceat(slack, starts).tolist()
    return [EstimateReport(variant, *lane)
            for lane in zip(worst, map(tuple, spans), counts.tolist())]


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
    _require_integer("count", count)
    if count <= 0:
        raise ValueError("count must be positive")
    validate_tol(tol)
    states = _estimate_initial_states(variant, count, seed)

    def covered(traj: Trajectory) -> float:
        if traj.terminal.kind != BLOWUP:
            return math.inf
        trace_last = float(traj.states_array[-1].sum())
        remaining = 3.0 / (4.0 * (1.0 - 3.0 * params.rho) * trace_last)
        return traj.t_last / (traj.t_last + remaining)

    lanes, work_done = _run_lanes(
        states, params, t_end, config,
        lambda trajs: list(zip(_read_estimates(trajs, variant, params), map(covered, trajs))),
    )
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


def _deriv_discrepancies(
    traj: Trajectory, quantity: QuantityKind, params: FlowParams, hs: Sequence[float],
) -> list[float]:
    """The largest |central difference - closed-form rate| of the quantity
    along one trajectory at each step in ``hs``, over ``_DERIV_POINTS``
    window points per step.

    The closed forms are exact identities, so the discrepancy is pure
    finite-difference error, O(h^2), on top of the integrator's dense
    interpolation floor.  Domain violations inside a window (mu+nu >= 0
    for the ratio-log quantity, nu >= 0 or a dead time factor for the
    sectional-log one) surface as DomainError.

    The windows of every step are evaluated in one dense call: all
    ``3 * _DERIV_POINTS`` times per step (tau + h, tau - h, tau) go
    through one ``eval_many``, whose rows are bit-identical to one-point
    evaluations, and the quantity and its rate each go through one array
    kernel, with the bits of the one-triple functions.  A DomainError
    names the first offending point in (tau + h, tau - h, tau) order,
    point by point.
    """
    t0, t1 = traj.t_start, traj.t_last
    for h in hs:
        if not h > 0:
            raise ValueError("h must be positive")
        if t1 - t0 <= 4 * h:
            raise ValueError(f"window [{t0}, {t1}] too short for h={h}")
    taus = [np.linspace(t0 + 2 * h, t1 - 2 * h, _DERIV_POINTS) for h in hs]
    ts = np.concatenate([t for h, tau in zip(hs, taus) for t in (tau + h, tau - h, tau)])
    rows = traj.eval_many(ts)
    # blocks of (step, slot, point); slots 0 and 1 hold tau +- h, slot 2 tau
    ts = ts.reshape(len(hs), 3, _DERIV_POINTS)
    try:
        if not np.isfinite(rows).all():
            raise DomainError("eigenvalues must be finite")
        lmn = np.sort(rows, axis=1)[:, ::-1].T.reshape(3, len(hs), 3, _DERIV_POINTS)
        shifted, centred = lmn[:, :, :2], lmn[:, :, 2]
        if quantity is QuantityKind.LAMBDA_PINCH:
            q = lambda_pinch_array(*shifted, params.rho)
            cf = lambda_pinch_rate_array(*centred, params.rho)
        else:
            q = xi_pinch_array(*shifted, params, ts[:, :2])
            cf = xi_pinch_rate_array(*centred, params, ts[:, 2])
    except DomainError:
        _raise_at_first_point(quantity, params, rows.reshape(len(hs), 3, _DERIV_POINTS, 3), ts)
        raise
    fd = (q[:, 0] - q[:, 1]) / (2.0 * np.array(hs)[:, None])
    # max() over a list starting at 0.0 replaces only on >, so a NaN never wins
    return [max([0.0, *d.tolist()]) for d in np.abs(fd - cf)]


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
    _require_integer("trajectories", trajectories)
    if trajectories <= 0:
        raise ValueError("trajectories must be positive")
    states = _deriv_initial_states(quantity, trajectories, seed)
    lanes, work_done = _run_lanes(
        states, params, t_end, config,
        lambda trajs: [_deriv_discrepancies(traj, quantity, params, (h, h / 2)) for traj in trajs],
    )
    at_h = [d for d, _ in lanes]
    worst_h = max(at_h)
    worst_h2 = max(d2 for _, d2 in lanes)
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
        checkpoints=2 * _DERIV_POINTS * trajectories,
        **asdict(work_done),
    )
