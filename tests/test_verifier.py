import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pinchlab import (
    EigenTriple,
    EmptyRegion,
    EstimateVariant,
    FlowParams,
    DomainError,
    HypothesisViolated,
    InequalityKind,
    IntegratorConfig,
    QuantityKind,
    SetKind,
    SetSpec,
    check_estimate,
    check_invariance,
    deriv_suite,
    estimate_suite,
    integrate,
    invariance_is_claimed,
    scan_inequality,
)
from pinchlab import pinch_functions, verifier
from pinchlab.cone_sets import sample_set
from pinchlab.pinch_functions import estimate_rhs_array
from pinchlab.verifier import (
    _checkpoints,
    _deriv_discrepancies,
    _deriv_initial_states,
    _estimate_initial_states,
    _read_drift,
)

P_NEG = FlowParams(rho=-1.0)


# --------------------------------------------------------------------- scans


def test_j_scan_holds_at_modest_resolution():
    rep = scan_inequality(InequalityKind.J_NEG_TRACE, P_NEG, resolution=60)
    assert rep.violations == 0
    assert rep.min_margin >= 0.0
    assert rep.points_checked > 0
    assert rep.mode == "grid"
    # the argmin lives on the sup-norm unit slice
    assert max(map(abs, rep.argmin_state.as_tuple())) == pytest.approx(1.0)


def test_j_nonneg_scan_min_is_small_but_clean():
    rep = scan_inequality(InequalityKind.J_NONNEG_TRACE, P_NEG, resolution=120)
    assert rep.violations == 0
    # the bound is tight near mu+nu -> 0^-: tiny positive minimum
    assert 0.0 <= rep.min_margin < 1e-2


def test_scan_is_deterministic():
    a = scan_inequality(InequalityKind.I_POLY, FlowParams(rho=0.1), resolution=80)
    b = scan_inequality(InequalityKind.I_POLY, FlowParams(rho=0.1), resolution=80)
    assert a == b


def test_scan_reports_near_boundary_points():
    rep = scan_inequality(InequalityKind.I_POLY, FlowParams(rho=0.0), resolution=50)
    assert 0 < rep.near_boundary_points < rep.points_checked


# (kind, rho, eta, min_margin, argmin_state, points_checked, violations,
# near_boundary_points) at resolution 200, recorded when the slice was
# one (N, 3) array that each scan masked
SCAN_PINNED = [
    ('j-neg-trace', -0.1, -4.0, 0.37241483800914116, (0.2160804020100502, 0.2160804020100502, -1.0), 20000, 0, 100),
    ('j-neg-trace', -1.0, -4.0, 0.2807336515071168, (0.2663316582914572, 0.2663316582914572, -1.0), 20000, 0, 100),
    ('j-neg-trace', -10.0, -4.0, 0.2240203169472632, (0.2864321608040201, 0.2864321608040201, -1.0), 20000, 0, 100),
    ('j-nonneg-trace', -0.1, -4.0, 4.652776605771609e-07, (1.0, -0.005025125628140725, -0.005025125628140725), 9910, 0, 110),
    ('j-nonneg-trace', -1.0, -4.0, 3.3838375314703285e-07, (1.0, -0.005025125628140725, -0.005025125628140725), 9910, 0, 110),
    ('j-nonneg-trace', -10.0, -4.0, 2.658729489012367e-07, (1.0, -0.005025125628140725, -0.005025125628140725), 9910, 0, 110),
    ('i-poly', 0.0, -4.0, 2.5378781485944967e-07, (1.0, -0.005025125628140725, -0.005025125628140725), 34950, 0, 101),
    ('i-poly', 0.1, -4.0, 1.0354542846298138e-05, (1.0, -0.005025125628140725, -0.005025125628140725), 34950, 0, 101),
    ('i-poly', 0.24, -4.0, 2.44955998903123e-05, (1.0, -0.005025125628140725, -0.005025125628140725), 34950, 0, 101),
    ('xi-prime', -0.5, 1.0, 0.04075844996046615, (1.0, 0.015075376884422065, -0.005025125628140725), 5040, 0, 189),
    ('xi-prime', -0.4, 2.0, 0.04079645468574148, (1.0, 0.015075376884422065, -0.005025125628140725), 5040, 0, 189),
    ('xi-prime', -0.05, 10.0, 0.042123193934877234, (1.0, 0.015075376884422065, -0.005025125628140725), 5040, 0, 189),
]


@pytest.mark.parametrize(
    "token,rho,eta,margin,state,points,violations,near", SCAN_PINNED,
    ids=[f"{case[0]}_rho{case[1]}" for case in SCAN_PINNED],
)
def test_scan_reports_are_bit_identical_to_pinned(token, rho, eta, margin, state, points, violations, near):
    theta = -1.0 / (2.0 * rho) if token == "xi-prime" else 1.0
    rep = scan_inequality(
        InequalityKind(token), FlowParams(rho=rho, eta=eta, theta=theta), resolution=200
    )
    assert repr(rep.min_margin) == repr(margin)
    assert tuple(repr(float(v)) for v in rep.argmin_state.as_tuple()) == tuple(map(repr, state))
    assert (rep.points_checked, rep.violations, rep.near_boundary_points) == (points, violations, near)


# the benchmark's grid scan parameter sets, three per kind
SCAN_PARAMS = {
    InequalityKind.J_NEG_TRACE: [FlowParams(rho=r) for r in (-0.1, -1.0, -10.0)],
    InequalityKind.J_NONNEG_TRACE: [FlowParams(rho=r) for r in (-0.1, -1.0, -10.0)],
    InequalityKind.I_POLY: [FlowParams(rho=r) for r in (0.0, 0.1, 0.24)],
    InequalityKind.XI_PRIME: [FlowParams(rho=r, eta=e, theta=-1.0 / (2.0 * r))
                              for e, r in ((1.0, -0.5), (2.0, -0.4), (10.0, -0.05))],
}


def scan_cases(resolutions, samples):
    """(kind, params, keyword arguments) of every grid kind, trace-bound
    included, on each parameter set at each resolution, each xi-prime
    case a second time (the pinned digest holds both), and random
    trace-bound scans of each size."""
    for res in resolutions:
        for kind, sets in SCAN_PARAMS.items():
            for params in sets:
                yield kind, params, {"resolution": res}
                yield InequalityKind.TRACE_BOUND, params, {"resolution": res}
        for params in SCAN_PARAMS[InequalityKind.XI_PRIME]:
            yield InequalityKind.XI_PRIME, params, {"resolution": res}
    for n in samples:
        for rho, seed in ((-1.0, 0), (0.0, 1), (0.2, 7)):
            yield InequalityKind.TRACE_BOUND, FlowParams(rho=rho), {"samples": n, "seed": seed}


def scan_values(kind, params, kwargs):
    """What one scan computed, every float as its repr."""
    try:
        rep = scan_inequality(kind, params, **kwargs)
    except EmptyRegion:
        return "EmptyRegion"
    return repr((
        rep.points_checked, rep.min_margin, tuple(map(float, rep.argmin_state.as_tuple())),
        rep.violations, rep.near_boundary_points, rep.injected_max_abs_margin,
    ))


def test_scan_values_are_pinned():
    # re-recorded when the j-nonneg-trace cube became ric * ric * ric:
    # only the three resolution-41 j-nonneg-trace minima moved, each by
    # one ulp (0.000458333333333332 -> 0.00045833333333333197 at
    # rho = -0.1, 0.00033333333333333283 -> 0.0003333333333333328 at
    # rho = -1, 0.00026190476190476224 -> 0.0002619047619047622 at
    # rho = -10)
    text = "\n".join(
        scan_values(*case) for case in scan_cases((3, 4, 7, 41, 1500), (1, 5, 1000, 200_000))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "03bf827ef49b7bea1ddd43fdd3462f3cf010f50605ed4d014f6afb121add43f3"
    )


def test_scan_reports_do_not_depend_on_the_block_size(monkeypatch):
    # trace-bound at resolution 41 ties at margin 0 between (1, 1, 1) on
    # the first face and (-1, -1, -1) on the second, blocks apart
    cases = list(scan_cases((3, 4, 7, 41), (1, 5, 1000)))

    def reports():
        out = []
        for kind, params, kwargs in cases:
            try:
                out.append(repr(scan_inequality(kind, params, **kwargs)))
            except EmptyRegion:
                out.append("EmptyRegion")
        return out

    default = reports()
    monkeypatch.setattr(pinch_functions, "_BLOCK", 7)
    assert reports() == default


def masked_grid_blocks(kind, resolution):
    """The reference generator: every cell of the triangle c <= r in a
    block of rows, masked by the region tests.  ``_grid_blocks`` must
    yield the same points in the same order and the same near count."""
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
            if slack is not None:
                near = int((np.broadcast_to(slack, keep.shape)[keep] < 2.0 / resolution).sum())
            rows, cols = (np.broadcast_to(v, keep.shape)[keep] for v in (rows, cols))
            const = np.broadcast_to(lam if face_a else nu, rows.shape)
            yield (const, rows, cols, near) if face_a else (rows, cols, const, near)


def grid_points(blocks):
    """A generator's ``lam, mu, nu`` columns joined over its blocks, and
    its near-boundary count; every column of a block holds one entry per
    point."""
    columns, near = [[], [], []], 0
    for *block, near_block in blocks:
        assert len({v.shape for v in block}) == 1
        for column, v in zip(columns, block):
            column.append(v)
        near += near_block
    return [np.concatenate(c) if c else np.empty(0) for c in columns], near


def test_grid_points_equal_the_masked_reference(monkeypatch):
    cases = [(kind, res) for kind in InequalityKind for res in range(2, 65)]
    cases += [(kind, 1500) for kind in InequalityKind]
    expected = {case: grid_points(masked_grid_blocks(*case)) for case in cases}
    for block in (pinch_functions._BLOCK, 7):
        monkeypatch.setattr(pinch_functions, "_BLOCK", block)
        for case in cases:
            if block == 7 and case[1] == 1500:
                continue
            (columns, near), (want, want_near) = grid_points(verifier._grid_blocks(*case)), expected[case]
            assert all(np.array_equal(a, b) for a, b in zip(columns, want)), (case, block)
            assert near == want_near, (case, block)


def test_grid_blocks_hold_about_one_block_of_points():
    # a block passes _BLOCK points by less than one row, and only the
    # last block of a face holds fewer than _BLOCK - resolution
    resolution = 1500
    for kind in InequalityKind:
        sizes = [len(mu) for _, mu, _, _ in verifier._grid_blocks(kind, resolution)]
        assert max(sizes) < pinch_functions._BLOCK + resolution
        assert sum(size < pinch_functions._BLOCK - resolution for size in sizes) <= 2


@pytest.mark.parametrize("n, holds, run", [
    ([1, 5, 9], lambda c: np.zeros(len(c), bool), ([1, 5, 9], [1, 5, 9])),
    ([1, 5, 9], lambda c: np.ones(len(c), bool), ([0, 0, 0], [1, 5, 9])),
    ([1, 1], lambda c: np.array([True, False]), ([0, 1], [1, 1])),
    ([4], lambda c: True, ([0], [4])),  # a test that does not depend on the point
])
def test_true_run_edges(n, holds, run):
    lo, hi = verifier._true_run(holds, np.array(n))
    assert (lo.tolist(), hi.tolist()) == run


def test_true_run_finds_every_prefix_and_suffix():
    n = np.repeat(np.arange(1, 40), np.arange(2, 41))  # each n with every bound 0 .. n
    bound = np.concatenate([np.arange(k + 1) for k in range(1, 40)])
    for holds in (lambda c: c < bound, lambda c: c >= bound):
        lo, hi = verifier._true_run(holds, n)
        for c in range(n.max()):
            col = np.full_like(n, c)
            assert np.array_equal(((lo <= c) & (c < hi))[c < n], holds(col)[c < n])


def test_scan_memory_stays_a_few_blocks(monkeypatch):
    # the second scan of each kind, after warm-up, above the memory
    # before the call, in blocks of floats
    scans = [(kind, SCAN_PARAMS[kind][0], {"resolution": 1500}) for kind in SCAN_PARAMS]
    scans += [
        (InequalityKind.TRACE_BOUND, P_NEG, {"resolution": 1500}),
        (InequalityKind.TRACE_BOUND, P_NEG, {"samples": 1_000_000, "seed": 0}),
    ]
    block_bytes = 8 * pinch_functions._BLOCK
    tracemalloc.start()
    try:
        for kind, params, kwargs in scans:
            scan_inequality(kind, params, **kwargs)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            scan_inequality(kind, params, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 16 * block_bytes, (kind, kwargs, peak / block_bytes)
    finally:
        tracemalloc.stop()


def test_invariance_block_memory_stays_bounded(monkeypatch):
    # the second check_invariance of X over 300 samples, above the memory
    # before the call, in blocks of floats: a block holds its lanes' arrays
    # (about 30 floats per node) and its read about 50 floats per
    # checkpoint, whatever the sample count.  The lanes are replayed as
    # fresh copies of their first integration, since tracemalloc slows
    # the pure-Python stepper a hundredfold; a copy allocates the arrays
    # that a block holds
    spec = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
    done = {}

    def replay(state, *args):
        if state not in done:
            done[state] = integrate(state, *args)
        traj = done[state]
        return dataclasses.replace(traj, times=traj.times.copy(), dense=traj.dense.copy(),
                                   states_array=traj.states_array.copy())

    monkeypatch.setattr(verifier, "integrate", replay)
    first = check_invariance(spec, 300, 0.05, 0)
    block_bytes = 8 * pinch_functions._BLOCK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert check_invariance(spec, 300, 0.05, 0) == first
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert first.checkpoints > pinch_functions._BLOCK  # more than one block
    assert peak < 64 * block_bytes, peak / block_bytes


def test_empty_region_is_an_error():
    with pytest.raises(EmptyRegion):
        scan_inequality(InequalityKind.J_NONNEG_TRACE, P_NEG, resolution=2)


@pytest.mark.parametrize(
    "kind,params",
    [
        (InequalityKind.J_NEG_TRACE, FlowParams(rho=0.1)),  # needs rho < 0
        (InequalityKind.I_POLY, FlowParams(rho=-0.1)),  # needs rho in [0, 1/4)
        # xi-prime needs theta = -1/(2 rho)
        (InequalityKind.XI_PRIME, FlowParams(rho=-0.5, eta=1.0, theta=2.0)),
        # and eta > 0 with rho in (-1/eta, 0)
        (InequalityKind.XI_PRIME, FlowParams(rho=0.1, eta=1.0, theta=1.0)),
    ],
)
def test_scan_rejects_wrong_parameter_window(kind, params):
    with pytest.raises(DomainError):
        scan_inequality(kind, params, resolution=30)


def test_xi_prime_scan_small():
    p = FlowParams(rho=-0.5, eta=1.0, theta=1.0)
    rep = scan_inequality(InequalityKind.XI_PRIME, p, resolution=60)
    assert rep.violations == 0
    assert rep.min_margin >= 0.0


def test_trace_bound_grid_mode():
    rep = scan_inequality(InequalityKind.TRACE_BOUND, P_NEG, resolution=40)
    assert rep.violations == 0
    assert rep.min_margin >= 0.0
    # the region is every ordered state: the whole slice, no boundary
    assert (rep.points_checked, rep.near_boundary_points) == (40 * 40, 0)


def test_trace_bound_random_mode():
    rep = scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.2), samples=20_000, seed=4
    )
    assert rep.mode == "random"
    assert rep.violations == 0
    assert rep.samples == 20_000
    assert rep.seed == 4
    # random mode reads no grid
    assert rep.resolution is None
    # the isotropic injections must sit exactly on the equality case
    assert rep.injected_max_abs_margin <= 1e-12
    again = scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.2), samples=20_000, seed=4
    )
    assert again == rep


@pytest.mark.parametrize("every_block", [False, True], ids=["one-block", "every-block"])
@pytest.mark.parametrize("kind,params,kwargs", [
    (InequalityKind.TRACE_BOUND, FlowParams(rho=0.0), {"samples": 1000, "seed": 3}),
    (InequalityKind.I_POLY, FlowParams(rho=0.1), {"resolution": 41}),
], ids=["random", "grid"])
def test_nan_margins_are_violations_and_the_minimum(kind, params, kwargs, every_block,
                                                     monkeypatch):
    # both modes scan two blocks here: random draws and the injected
    # states, or the two faces of the grid slice
    clean = scan_inequality(kind, params, **kwargs)
    real = verifier._margin_for
    planted = []

    def plant(kind, lam, mu, nu, params):
        margins = real(kind, lam, mu, nu, params).copy()
        if every_block or not planted:
            for i in (3, 1):
                margins[i] = np.nan
                planted.append((float(lam[i]), float(mu[i]), float(nu[i])))
        return margins

    monkeypatch.setattr(verifier, "_margin_for", plant)
    rep = scan_inequality(kind, params, **kwargs)
    assert len(planted) == (4 if every_block else 2)
    assert rep.violations == clean.violations + len(planted)
    assert rep.points_checked == clean.points_checked
    assert math.isnan(rep.min_margin)
    assert rep.argmin_state.as_tuple() == min(planted)


def _j_nonneg_margin_exact(lam, mu, nu, rho):
    """J - rho/(1-2 rho) (mu+nu)^3 at the float inputs, exactly, and the
    largest magnitude among the terms its float evaluation adds up."""
    lam, mu, nu, rho = map(Fraction, (lam, mu, nu, rho))
    mn, sq, d = mu + nu, mu * mu + nu * nu, 1 - 2 * rho
    terms = [
        lam * sq, -mn * mu * nu, -mn * sq / (2 * d), -lam * mn * mn / (2 * d),
        rho * mn * mn * (lam + mu + nu) / d, -rho / d * mn**3,
    ]
    return sum(terms), max(abs(t) for t in terms)


# (1, mu, mu) states where the resolution-41 and resolution-1500
# j-nonneg-trace scans find their minimum, at each benchmark rho
J_NONNEG_ARGMINS = [(1.0, -0.04999999999999993, -0.04999999999999993),
                    (1.0, -0.0006671114076051143, -0.0006671114076051143)]


@pytest.mark.parametrize("rho", [-0.1, -1.0, -10.0])
def test_j_nonneg_margin_matches_exact_arithmetic(rho):
    rng = np.random.default_rng(41)
    draws = np.sort(rng.uniform(-1.0, 1.0, size=(2000, 3)), axis=1)[:, ::-1]
    region = (draws.sum(axis=1) >= 0) & (draws[:, 1] + draws[:, 2] < 0)
    states = np.vstack([draws[region][:200], J_NONNEG_ARGMINS])
    margins = verifier._margin_for(
        InequalityKind.J_NONNEG_TRACE, *states.T, FlowParams(rho=rho)
    )
    for state, got in zip(states.tolist(), margins.tolist()):
        exact, largest = _j_nonneg_margin_exact(*state, rho)
        # about twenty roundings; 25000 seeded states at rho from -1e-3
        # to -1e3 stayed within 4.7 ulps of the largest term
        assert abs(Fraction(got) - exact) <= 8 * Fraction(math.ulp(float(largest)))


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_random_mode_counts_only_margins_below_the_scaled_cutoff(tol, monkeypatch):
    # real trace-bound margins never fall below -tol, so plant margins
    # on each side of each point's cutoff tol * max(1, sup-norm)^3
    planted = []

    def plant(kind, lam, mu, nu, params):
        cutoff = tol * np.maximum(1.0, np.maximum(np.abs(lam), np.abs(nu))) ** 3
        choices = np.stack([
            np.nextafter(-cutoff, -np.inf),  # just below -cutoff: a violation
            -cutoff,
            -(tol + cutoff) / 2,  # inside (-cutoff, -tol) where cutoff > tol
            np.full_like(cutoff, -tol),
            np.zeros_like(cutoff),
        ])
        index = np.arange(len(cutoff))
        margins = choices[index % len(choices), index]
        if not planted:
            # one NaN, in the first block only: a NaN margin is a violation
            margins[4] = np.nan
        planted.append((margins, cutoff))
        return margins

    monkeypatch.setattr(verifier, "_margin_for", plant)
    rep = scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.0), tol=tol, samples=1000, seed=3
    )
    # reference: the cutoff applied at every point, a NaN falling below it
    reference = sum(int((~(margins >= -cutoff)).sum()) for margins, cutoff in planted)
    just_below = sum(len(margins[::5]) for margins, _ in planted)
    assert rep.violations == reference == just_below + 1
    between = np.concatenate([m[2::5] for m, _ in planted])
    cutoffs = np.concatenate([c[2::5] for _, c in planted])
    assert tol == 0.0 or ((-cutoffs < between) & (between < -tol)).sum() > 100


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"samples": 1e6}, "samples must be an integer, got 1000000.0"),
        ({"samples": True}, "samples must be an integer, got True"),
        ({"resolution": 2.5}, "resolution must be an integer, got 2.5"),
        ({"resolution": 40.0}, "resolution must be an integer, got 40.0"),
    ],
)
def test_scan_refuses_non_integer_counts_by_name(kwargs, message):
    with pytest.raises(TypeError, match=message):
        scan_inequality(InequalityKind.TRACE_BOUND, P_NEG, **kwargs)


def test_random_mode_does_not_read_resolution():
    rep = scan_inequality(
        InequalityKind.TRACE_BOUND, P_NEG, resolution=1, samples=10, seed=2
    )
    assert rep == scan_inequality(InequalityKind.TRACE_BOUND, P_NEG, samples=10, seed=2)
    assert rep.resolution is None
    grid = scan_inequality(InequalityKind.TRACE_BOUND, P_NEG, resolution=np.int64(5))
    assert grid == scan_inequality(InequalityKind.TRACE_BOUND, P_NEG, resolution=5)


@pytest.mark.parametrize("kind,params,kwargs,message", [
    (InequalityKind.J_NEG_TRACE, P_NEG, {"resolution": 1}, "resolution must be >= 2"),
    (InequalityKind.I_POLY, FlowParams(rho=0.1), {"samples": 10},
     "random-state mode exists only for trace-bound scans"),
    (InequalityKind.XI_PRIME, FlowParams(rho=-0.5, eta=1.0, theta=1.0), {"samples": 10},
     "random-state mode exists only for trace-bound scans"),
])
def test_scan_refuses_a_grid_or_mode_it_cannot_read(kind, params, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        scan_inequality(kind, params, **kwargs)


# -------------------------------------------------------------- invariance


def test_claim_taxonomy():
    assert invariance_is_claimed(SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG))
    assert invariance_is_claimed(SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, FlowParams(rho=-0.2)))
    assert invariance_is_claimed(
        SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.0))
    )
    # wrong theta for this rho: still a legal region, not a claim
    assert not invariance_is_claimed(
        SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.5))
    )
    assert invariance_is_claimed(SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=0.1, eta=-4.0, theta=1.0)))
    assert not invariance_is_claimed(
        SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=-0.1, eta=-4.0, theta=1.0))
    )
    assert not invariance_is_claimed(
        SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=0.1, eta=-3.9, theta=1.0))
    )


def test_a_trajectory_of_zero_steps_is_read_at_its_start():
    # the first step is refused at this tolerance and the step budget is
    # spent: one node, no dense step, and t0 the only time in range
    start = EigenTriple(1.0, 0.5, -0.5)
    cfg = IntegratorConfig(max_steps=1, rel_tol=1e-15, abs_tol=1e-18)
    traj = integrate(start, FlowParams(rho=-1.0), 0.0, 1.0, cfg)
    assert traj.terminal.kind == "step_limit"
    assert traj.stats["accepted"] == 0
    assert traj.eval_many(0.0).tolist() == list(start.as_tuple())
    assert traj.eval_many(np.zeros(2)).tolist() == [list(start.as_tuple())] * 2
    ts, counts = _checkpoints([traj], 129)
    assert (ts.tolist(), counts.tolist()) == ([0.0], [1])


def test_invariance_small_run():
    spec = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
    rep = check_invariance(spec, samples=24, horizon=0.05, seed=42)
    assert rep.claimed
    assert rep.worst_drift >= -1e-8
    assert rep.violating_seed is None
    assert rep.samples == 24
    assert rep.checkpoints > 0


@pytest.mark.parametrize("kwargs,message", [
    ({"horizon": 0.0}, "horizon must be positive"),
    ({"horizon": -0.05}, "horizon must be positive"),
    ({"samples": 0}, "samples must be positive"),
    ({"samples": -3}, "samples must be positive"),
    ({"horizon": math.nan}, "horizon must be positive"),
])
def test_invariance_refuses_a_run_that_checks_nothing(kwargs, message, monkeypatch):
    # refused before a state is drawn
    monkeypatch.setattr(verifier, "sample_set", None)
    run = {"samples": 4, "horizon": 0.05, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_invariance(SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG), seed=0, **run)


@pytest.mark.parametrize("samples", [2.0, True])
def test_invariance_refuses_non_integer_samples_by_name(samples, monkeypatch):
    monkeypatch.setattr(verifier, "sample_set", None)
    with pytest.raises(TypeError, match=f"^samples must be an integer, got {samples!r}$"):
        check_invariance(SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG), samples=samples,
                         horizon=0.05, seed=0)


def test_invariance_is_order_independent():
    # a lane depends on its own start only, so running the lanes in
    # reverse order gives the report's figures
    spec = SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, P_NEG)
    rep = check_invariance(spec, samples=10, horizon=0.03, seed=7)
    states = sample_set(spec, 0.0, 10, 7, band=rep.band)
    lanes = [_read_drift([integrate(s, spec.params, 0.0, 0.03, IntegratorConfig())], spec)[0]
             for s in states[::-1]]
    assert rep.worst_drift == min(drift for drift, _ in lanes)
    assert rep.checkpoints == sum(points for _, points in lanes)
    assert rep == check_invariance(spec, samples=10, horizon=0.03, seed=7)


def _lane_sums(trajs):
    kinds = {}
    for traj in trajs:
        kinds[traj.terminal.kind] = kinds.get(traj.terminal.kind, 0) + 1
    return (
        sum(t.stats["accepted"] for t in trajs),
        sum(t.stats["rejected"] for t in trajs),
        sum(t.stats["rhs_evals"] for t in trajs),
        kinds,
    )


def test_ensemble_reports_count_the_work_of_every_lane():
    # a claimed window mixing blow-up and normal lanes, and an estimate suite
    spec = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
    rep = check_invariance(spec, samples=8, horizon=0.05, seed=42)
    trajs = [integrate(s, P_NEG, 0.0, 0.05) for s in sample_set(spec, 0.0, 8, 42, band=rep.band)]
    want = _lane_sums(trajs)
    assert (rep.steps_accepted, rep.steps_rejected, rep.rhs_evals, rep.terminal_kinds) == want
    assert list(rep.terminal_kinds) == list(want[3])  # first seen in sample order
    assert rep.blowups == want[3].get("blowup", 0)
    assert len(want[3]) == 2

    p = FlowParams(rho=0.2)
    suite = estimate_suite(EstimateVariant.NONNEG_RHO, p, count=5, seed=9)
    trajs = [integrate(s, p, 0.0, 50.0) for s in _estimate_initial_states(EstimateVariant.NONNEG_RHO, 5, 9)]
    assert (suite.steps_accepted, suite.steps_rejected, suite.rhs_evals,
            suite.terminal_kinds) == _lane_sums(trajs)


def test_recheck_runs_as_observation():
    spec_y = SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.0))
    spec_k = SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=-0.5, eta=1.0, theta=1.0))
    rep = check_invariance(spec_y, samples=8, horizon=0.02, seed=3, recheck=spec_k)
    assert not rep.claimed
    assert rep.recheck_kind is SetKind.SECTIONAL_LOG


# ---------------------------------------------------------------- estimates


def test_estimate_slack_zero_at_equality_start():
    # at (-1,-1,-1), rho=0, t=0 the nonneg-rho bound is exactly attained:
    # R = -6 and the bound evaluates to -6
    p = FlowParams(rho=0.0)
    traj = integrate(EigenTriple(-1.0, -1.0, -1.0), p, 0.0, 0.5)
    rep = check_estimate(traj, EstimateVariant.NONNEG_RHO, p)
    assert rep.worst_slack >= -1e-8
    # the trigger holds over the whole window, up to its last checkpoint
    assert rep.trigger_times == ((0.0, 0.5),)


# (worst_slack, trigger_times) of every per-trajectory report of
# estimate_suite(count=6, seed=0), recorded before the triggered runs
# were read from one np.diff
TRIGGER_PINS = {
    EstimateVariant.NEG_RHO_SCALAR: (FlowParams(rho=-1.0), (
        (math.inf, ()), (math.inf, ()), (math.inf, ()), (math.inf, ()),
        (3.272179795867291, ((0.0, 0.10527079401107801),)),
        (math.inf, ()),
    )),
    EstimateVariant.NEG_RHO_SECTIONAL: (FlowParams(rho=-0.5, eta=1.0), (
        (math.inf, ()),
        (6.62440103086892, ((0.0, 0.005451769183100636),)),
        (10.849977060854677, ((0.0, 0.05644376197682973),)),
        (math.inf, ()),
        (6.05065654878331, ((0.0, 0.09290905280581306),)),
        (math.inf, ()),
    )),
    EstimateVariant.NONNEG_RHO: (FlowParams(rho=0.1), (
        (6.186054550319411, ((0.0, 0.010506146901429148),)),
        (4.271739823223293, ((0.0, 0.129782745322265),)),
        (6.68317865384882, ((0.0, 0.21372060101726648),)),
        (math.inf, ()),
        (4.53323921838102, ((0.0, 0.5666842409301712),)),
        (5.2903107941045615, ((0.0, 0.1545922994554978),)),
    )),
}


@pytest.mark.parametrize("variant", list(TRIGGER_PINS), ids=lambda v: v.value)
def test_estimate_trigger_intervals_are_pinned(variant):
    params, want = TRIGGER_PINS[variant]
    suite = estimate_suite(variant, params, count=6, seed=0)
    assert tuple((r.worst_slack, r.trigger_times) for r in suite.reports) == want


def test_estimate_block_read_cuts_trigger_runs_at_lanes():
    # lanes triggered from start to end, next to each other and to an
    # untriggered one, read as a block as each reads alone
    p = FlowParams(rho=0.0)
    trajs = [integrate(EigenTriple(*start), p, 0.0, t_end) for start, t_end in [
        ((-1.0, -1.0, -1.0), 0.5), ((-0.5, -0.75, -1.0), 0.3), ((1.0, 1.0, 1.0), 0.2),
        ((-1.0, -1.0, -1.0), 0.25)]]
    block = verifier._read_estimates(trajs, EstimateVariant.NONNEG_RHO, p)
    assert block == [check_estimate(traj, EstimateVariant.NONNEG_RHO, p) for traj in trajs]
    assert [len(rep.trigger_times) for rep in block] == [1, 1, 0, 1]


def test_estimate_untriggered_is_vacuous():
    p = FlowParams(rho=0.0)
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), p, 0.0, 0.2)
    rep = check_estimate(traj, EstimateVariant.NONNEG_RHO, p)
    assert rep.worst_slack == math.inf
    assert rep.trigger_times == ()


def test_estimate_hypothesis_gate():
    p = FlowParams(rho=-1.0)
    bad = integrate(EigenTriple(0.5, -1.0, -1.0), p, 0.0, 0.01)  # trace < 0
    with pytest.raises(HypothesisViolated):
        check_estimate(bad, EstimateVariant.NEG_RHO_SCALAR, p)
    p2 = FlowParams(rho=-0.5, eta=1.0)
    bad2 = integrate(EigenTriple(3.0, 2.0, -1.5), p2, 0.0, 0.01)  # nu < -1
    with pytest.raises(HypothesisViolated):
        check_estimate(bad2, EstimateVariant.NEG_RHO_SECTIONAL, p2)


@pytest.mark.parametrize("variant,params,start,message", [
    (EstimateVariant.NEG_RHO_SCALAR, P_NEG, (0.5, -1.0, -1.0),
     "neg-rho-scalar: needs initial scalar curvature >= 0, got trace -1.5"),
    (EstimateVariant.NEG_RHO_SECTIONAL, FlowParams(rho=-0.5, eta=1.0), (2.0, -0.5, -1.0),
     "neg-rho-sectional: needs initial Ricci >= 0, got mu+nu = -1.5"),
    (EstimateVariant.NEG_RHO_SECTIONAL, FlowParams(rho=-0.5, eta=1.0), (3.0, 2.0, -1.5),
     "neg-rho-sectional: needs initial nu >= -1, got -1.5"),
    (EstimateVariant.NONNEG_RHO, FlowParams(rho=0.1), (3.0, 2.0, -1.5),
     "nonneg-rho: needs initial nu >= -1, got -1.5"),
])
def test_estimate_hypothesis_names_what_the_start_lacks(variant, params, start, message):
    traj = integrate(EigenTriple(*start), params, 0.0, 0.01)
    with pytest.raises(HypothesisViolated) as info:
        check_estimate(traj, variant, params)
    assert str(info.value) == message


def test_estimate_rejects_wrong_params():
    p = FlowParams(rho=0.1)
    traj = integrate(EigenTriple(1.0, 0.5, -0.5), p, 0.0, 0.01)
    with pytest.raises(DomainError):
        check_estimate(traj, EstimateVariant.NEG_RHO_SCALAR, p)


def test_estimate_suite_small():
    rep = estimate_suite(EstimateVariant.NEG_RHO_SCALAR, P_NEG, count=8, seed=2)
    assert rep.worst_slack >= -1e-8
    assert rep.count == 8
    assert 0.0 < rep.min_coverage <= 1.0
    # starts are trace-positive, so every run must reach blow-up at t_end=50
    assert rep.blowups == 8


EMPTY_RUNS = {
    "count": lambda n: estimate_suite(
        EstimateVariant.NONNEG_RHO, FlowParams(rho=0.1), count=n, seed=0),
    "trajectories": lambda n: deriv_suite(
        QuantityKind.LAMBDA_PINCH, P_NEG, trajectories=n),
    "samples": lambda n: scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.0), samples=n),
}


@pytest.mark.parametrize("argument", list(EMPTY_RUNS))
@pytest.mark.parametrize("n", [0, -3])
def test_suites_reject_runs_that_check_nothing(argument, n):
    with pytest.raises(ValueError, match=f"^{argument} must be positive$"):
        EMPTY_RUNS[argument](n)


@pytest.mark.parametrize("argument", list(EMPTY_RUNS))
@pytest.mark.parametrize("n", [2.0, True])
def test_suites_refuse_non_integer_counts_by_name(argument, n):
    with pytest.raises(TypeError, match=f"^{argument} must be an integer, got {n!r}$"):
        EMPTY_RUNS[argument](n)


NAN_TOL_RUNS = {
    "grid scan": lambda tol: scan_inequality(
        InequalityKind.J_NEG_TRACE, P_NEG, resolution=10, tol=tol),
    "random scan": lambda tol: scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.0), samples=10, tol=tol),
    "invariance": lambda tol: check_invariance(
        SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG), 1, 0.01, 0, tol=tol),
    "estimate suite": lambda tol: estimate_suite(
        EstimateVariant.NEG_RHO_SCALAR, P_NEG, count=1, seed=0, tol=tol),
}


BAD_TOLS = [pytest.param(run, math.nan, id=run) for run in NAN_TOL_RUNS] + [
    pytest.param(run, tol, id=f"{run} tol={tol}")
    for run in NAN_TOL_RUNS for tol in (math.inf, -1.0)
]


@pytest.mark.parametrize("run, tol", BAD_TOLS)
def test_nan_tol_is_rejected_not_a_pass(run, tol):
    # every comparison with NaN is False, so a NaN tol would count no
    # violation; an infinite tol forgives every one and a negative tol
    # fails runs that hold
    with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
        NAN_TOL_RUNS[run](tol)


# ------------------------------------------- parameter windows, checked once

# rho = -1/eta exactly for every eta > 0 below, and theta is also tried
# 1e-8 relative off -1/(2 rho), outside the 1e-9 tolerance of the rule
WINDOW_RHOS = (-2.0, -1.0, -0.5, -0.25, -1e-3, 0.0, 0.1, 0.2)
WINDOW_ETAS = (-4.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0)


def window_thetas(rho):
    rule = -1.0 / (2.0 * rho) if rho < 0 else 1.0
    return (1.0, rule, rule * (1.0 + 1e-8))


def accepts(call) -> bool:
    try:
        call()
    except DomainError:
        return False
    return True


def scan_accepts(kind, p):
    return accepts(lambda: scan_inequality(kind, p, resolution=6))


def claim_accepts(kind, p):
    return accepts(lambda: SetSpec(kind, p)) and invariance_is_claimed(SetSpec(kind, p))


def estimate_accepts(variant, p):
    return accepts(lambda: estimate_rhs_array(variant, -1.0, p, 0.0))


def neg_rho_groups(p):
    return [{
        "j-neg-trace scan": scan_accepts(InequalityKind.J_NEG_TRACE, p),
        "j-nonneg-trace scan": scan_accepts(InequalityKind.J_NONNEG_TRACE, p),
        "X claim": claim_accepts(SetKind.RICCI_LOG_STATIC, p),
        "W claim": claim_accepts(SetKind.TRACE_POSITIVE_RICCI_LOG, p),
        "scalar estimate": estimate_accepts(EstimateVariant.NEG_RHO_SCALAR, p),
    }]


def neg_rho_sectional_groups(p):
    # the sectional estimate builds theta = -1/(2 rho) in, so it answers
    # for the claim at that theta
    ruled = dataclasses.replace(p, theta=-1.0 / (2.0 * p.rho)) if p.rho < 0 else p
    return [{
        "xi-prime scan": scan_accepts(InequalityKind.XI_PRIME, p),
        "Y claim": claim_accepts(SetKind.SECTIONAL_LOG_NONNEG_RICCI, p),
    }, {
        "sectional estimate": estimate_accepts(EstimateVariant.NEG_RHO_SECTIONAL, p),
        "Y claim at theta = -1/(2 rho)": claim_accepts(
            SetKind.SECTIONAL_LOG_NONNEG_RICCI, ruled),
    }]


def nonneg_rho_groups(p):
    # the i-poly scan and the estimate build eta = -4 and theta = 1 in, so
    # they answer for the claim at those values
    fixed = dataclasses.replace(p, eta=-4.0, theta=1.0)
    return [{
        "i-poly scan": scan_accepts(InequalityKind.I_POLY, p),
        "nonneg-rho estimate": estimate_accepts(EstimateVariant.NONNEG_RHO, p),
        "K claim at eta = -4, theta = 1": claim_accepts(SetKind.SECTIONAL_LOG, fixed),
    }, {
        "K claim": claim_accepts(SetKind.SECTIONAL_LOG, p),
        "K claim at eta = -4, theta = 1, where they are given": (
            claim_accepts(SetKind.SECTIONAL_LOG, fixed) and p == fixed),
    }]


WINDOWS = {
    "rho < 0": neg_rho_groups,
    "eta > 0, -1/eta < rho < 0, theta = -1/(2 rho)": neg_rho_sectional_groups,
    "0 <= rho < 1/4, eta = -4, theta = 1": nonneg_rho_groups,
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_scans_claims_and_estimates_share_each_window(window):
    seen = set()
    for rho in WINDOW_RHOS:
        for eta in WINDOW_ETAS:
            for theta in window_thetas(rho):
                for group in WINDOWS[window](FlowParams(rho=rho, eta=eta, theta=theta)):
                    assert len(set(group.values())) == 1, (rho, eta, theta, group)
                    seen |= set(group.values())
    assert seen == {True, False}  # the grid reaches both sides of the window


def test_estimate_suite_reproducible():
    a = estimate_suite(EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2), count=5, seed=9)
    b = estimate_suite(EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2), count=5, seed=9)
    assert a.worst_slack == b.worst_slack
    assert a.min_coverage == b.min_coverage


# ------------------------------------------------------- derivative identity


def test_derivative_consistency_single_trajectory():
    traj = integrate(EigenTriple(0.5, -0.8, -0.9), P_NEG, 0.0, 0.01)
    (max_discrepancy,) = _deriv_discrepancies(traj, QuantityKind.LAMBDA_PINCH, P_NEG, (1e-4,))
    assert max_discrepancy < 1e-5


# (max_discrepancy, max_discrepancy_half_h, decay_ratio) at the default
# 20 trajectories, recorded from the projective stepper (each window in
# one dense call, bit-identical to one call per point)
DERIV_PINNED = {
    (QuantityKind.LAMBDA_PINCH, 0): (
        "4.7435974814824533e-07", "1.1890876705500375e-07", "3.98927480199017"),
    (QuantityKind.LAMBDA_PINCH, 7): (
        "5.426331162183828e-07", "1.3603817561325116e-07", "3.9888297073393435"),
    (QuantityKind.XI_PINCH, 0): (
        "7.060455287088985e-08", "1.76525420947371e-08", "3.999681886720427"),
    (QuantityKind.XI_PINCH, 7): (
        "4.58791507007561e-08", "1.2559552287072506e-08", "3.652928834730782"),
}


@pytest.mark.parametrize("quantity,seed", list(DERIV_PINNED))
def test_deriv_suite_is_bit_identical_to_pinned(quantity, seed):
    p = P_NEG if quantity is QuantityKind.LAMBDA_PINCH else FlowParams(rho=0.1, eta=-4.0, theta=1.0)
    rep = deriv_suite(quantity, p, seed=seed)
    got = (rep.max_discrepancy, rep.max_discrepancy_half_h, rep.decay_ratio)
    assert tuple(repr(float(v)) for v in got) == DERIV_PINNED[quantity, seed]


def test_deriv_suite_reports_worst_trajectory_and_work():
    p = FlowParams(rho=0.1, eta=-4.0, theta=1.0)
    rep = deriv_suite(QuantityKind.XI_PINCH, p, trajectories=5, seed=3, t_end=0.005)
    assert rep.checkpoints == 5 * 33 * 2
    per_traj = [
        _deriv_discrepancies(integrate(s, p, 0.0, 0.005), QuantityKind.XI_PINCH, p, (1e-4,))[0]
        for s in _deriv_initial_states(QuantityKind.XI_PINCH, 5, 3)
    ]
    assert rep.worst_trajectory == int(np.argmax(per_traj))
    assert rep.max_discrepancy == per_traj[rep.worst_trajectory]


def test_deriv_suite_evaluates_each_trajectory_once(monkeypatch):
    # the windows at h and h/2 share one dense call per trajectory
    calls = []
    real = verifier.Trajectory.eval_many

    def counted(traj, ts):
        calls.append(len(ts))
        return real(traj, ts)

    monkeypatch.setattr(verifier.Trajectory, "eval_many", counted)
    deriv_suite(QuantityKind.LAMBDA_PINCH, P_NEG, trajectories=20)
    assert calls == [2 * 3 * 33] * 20


@pytest.mark.parametrize("quantity", list(QuantityKind))
def test_deriv_suite_calls_each_kernel_once_per_trajectory(quantity, monkeypatch):
    # one value and one rate kernel call per trajectory serve every point
    # at h and h/2; no one-triple function runs
    p = P_NEG if quantity is QuantityKind.LAMBDA_PINCH else FlowParams(rho=0.1)
    names = ["lambda_pinch", "lambda_pinch_rate", "xi_pinch", "xi_pinch_rate"]
    calls = dict.fromkeys(names + [f"{name}_array" for name in names], 0)

    def counted(name):
        real = getattr(pinch_functions, name, None)  # a missing kernel counts 0

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(verifier, name, counted(name), raising=False)
    deriv_suite(quantity, p, trajectories=20)
    prefix = "lambda" if quantity is QuantityKind.LAMBDA_PINCH else "xi"
    want = {name: 20 if name.startswith(prefix) and name.endswith("_array") else 0
            for name in calls}
    assert calls == want


def test_derivative_consistency_rejects_nan_h():
    traj = integrate(EigenTriple(0.5, -0.8, -0.9), P_NEG, 0.0, 0.01)
    with pytest.raises(ValueError, match="^h must be positive$"):
        _deriv_discrepancies(traj, QuantityKind.LAMBDA_PINCH, P_NEG, (math.nan,))


@pytest.mark.parametrize("state,params,quantity,t_end,message", [
    (EigenTriple(1.0, 0.9, -1.0), FlowParams(rho=-0.1), QuantityKind.LAMBDA_PINCH, 0.5,
     "lambda_pinch needs mu+nu < 0, got 0.042760021881292576"),
    (EigenTriple(0.8, 0.8, -1.0), FlowParams(rho=0.1), QuantityKind.XI_PINCH, 0.6,
     "xi_pinch needs nu < 0, got 0.030384869162761275"),
])
def test_deriv_window_leaving_the_domain_is_named(state, params, quantity, t_end, message):
    # recorded from the point-by-point evaluation: mu+nu (nu) crosses 0
    # inside the window, and the first point past it is a tau + h one
    traj = integrate(state, params, 0.0, t_end)
    with pytest.raises(DomainError) as info:
        _deriv_discrepancies(traj, quantity, params, (1e-4,))
    assert str(info.value) == message


class _WindowStub:
    """A trajectory on [0, 1] at (1, -0.5, -1), except at the given times."""

    t_start, t_last = 0.0, 1.0

    def __init__(self, special):
        self.special = special

    def eval_many(self, ts):
        rows = np.tile([1.0, -0.5, -1.0], (len(ts), 1))
        for t, row in self.special.items():
            rows[ts == t] = row
        return rows


_TAU = np.linspace(2e-4, 1.0 - 2e-4, 33)  # the window's points at h = 1e-4


@pytest.mark.parametrize("special,quantity,message", [
    ({_TAU[5]: (1.0, 0.75, -0.5), _TAU[7] + 1e-4: (1.0, 0.5, -0.125)},
     QuantityKind.LAMBDA_PINCH, "lambda_pinch_rate needs mu+nu < 0, got 0.25"),
    ({_TAU[5] - 1e-4: (1.0, 0.75, -0.5), _TAU[6]: (1.0, 0.5, -0.125)},
     QuantityKind.LAMBDA_PINCH, "lambda_pinch needs mu+nu < 0, got 0.25"),
    ({_TAU[5]: (1.0, 0.75, 0.5), _TAU[7] + 1e-4: (1.0, 0.5, 0.25)},
     QuantityKind.XI_PINCH, "xi_pinch_rate needs nu < 0, got 0.5"),
    ({_TAU[5] + 1e-4: (0.5, 0.75, -0.25), _TAU[9]: (np.nan, 0.5, -1.0)},
     QuantityKind.LAMBDA_PINCH, "lambda_pinch needs mu+nu < 0, got 0.25"),
    ({_TAU[3] - 1e-4: (0.5, np.inf, -3.0), _TAU[9]: (0.5, 0.75, -0.25)},
     QuantityKind.LAMBDA_PINCH,
     "eigenvalues must be finite, got (np.float64(inf), np.float64(0.5), np.float64(-3.0))"),
])
def test_deriv_domain_error_names_the_first_point_in_window_order(special, quantity, message):
    # order per point: tau + h, tau - h, then tau; recorded from the
    # point-by-point evaluation
    p = P_NEG if quantity is QuantityKind.LAMBDA_PINCH else FlowParams(rho=0.1)
    with pytest.raises(DomainError) as info:
        _deriv_discrepancies(_WindowStub(special), quantity, p, (1e-4,))
    assert str(info.value) == message


DERIV_SUITE_DIGEST_RUNS = [
    (QuantityKind.LAMBDA_PINCH, FlowParams(rho=-1.0)),
    (QuantityKind.LAMBDA_PINCH, FlowParams(rho=-0.1)),
    (QuantityKind.XI_PINCH, FlowParams(rho=0.1, eta=-4.0, theta=1.0)),
    (QuantityKind.XI_PINCH, FlowParams(rho=-0.5, eta=1.0, theta=1.0)),
]


def test_deriv_suites_are_pinned_by_digest():
    # seeds 0-9 of four parameter sets, recorded from the point-by-point
    # evaluation of the quantities and their rates
    h = hashlib.sha256()
    for quantity, p in DERIV_SUITE_DIGEST_RUNS:
        for seed in range(10):
            rep = deriv_suite(quantity, p, seed=seed)
            fields = (rep.max_discrepancy, rep.max_discrepancy_half_h, rep.decay_ratio,
                      rep.worst_trajectory, rep.checkpoints)
            line = " ".join(repr(None if v is None else float(v)) for v in fields)
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == "8b465ebdc3bf30021e3884b4273e6f55d2fb3605ee8febf2885e1290adfad998"


def test_reports_do_not_depend_on_the_block_cut(monkeypatch):
    # one lane per block, and a cut every few lanes, against the default
    # block that holds every lane of these runs; field for field
    params_y = FlowParams(rho=-0.5, eta=1.0, theta=1.0)
    runs = [
        lambda: check_invariance(SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG), 10, 0.03, 5),
        lambda: check_invariance(SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, params_y), 8, 0.02, 3,
                                 recheck=SetSpec(SetKind.SECTIONAL_LOG, params_y)),
        lambda: estimate_suite(EstimateVariant.NEG_RHO_SECTIONAL, FlowParams(rho=-0.5, eta=1.0), 6, 0),
        lambda: estimate_suite(EstimateVariant.NONNEG_RHO, FlowParams(rho=0.1), 6, 1),
        lambda: deriv_suite(QuantityKind.LAMBDA_PINCH, P_NEG, trajectories=6, seed=2),
    ]
    real = verifier._run_lanes

    def recorded(states, params, t_end, config, read, uniform):
        def read_block(trajs):
            sizes[-1].append(len(trajs))
            return read(trajs)
        return real(states, params, t_end, config, read_block, uniform)

    monkeypatch.setattr(verifier, "_run_lanes", recorded)

    def reports():
        out = []
        for run in runs:
            sizes.append([])
            out.append(repr(dataclasses.asdict(run())))
        return out

    sizes = []
    default = reports()
    assert all(len(s) == 1 for s in sizes)
    for block in (1, 1000):
        monkeypatch.setattr(pinch_functions, "_BLOCK", block)
        sizes = []
        assert reports() == default, block
        assert all(len(s) > 1 for s in sizes), sizes
        assert block == 1 or all(max(s) > 1 for s in sizes), sizes


def test_each_suite_keeps_its_worst_lane_rule(monkeypatch):
    # invariance names the first strictly lowest drift below -tol, and
    # none when no drift is below inf; deriv-check names a trajectory
    # only when its discrepancy is above 0
    spec = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
    for drifts, want in [
        ([0.5, -2.0, -2.0, -1.0], (-2.0, 1)),
        ([0.5, 1e-9, 0.25, 0.5], (1e-9, None)),
        ([math.inf] * 4, (math.inf, None)),
    ]:
        scores = iter(drifts)
        monkeypatch.setattr(verifier, "_read_drift",
                            lambda trajs, recheck: [(next(scores), 1) for _ in trajs])
        rep = check_invariance(spec, samples=4, horizon=0.01, seed=0)
        assert (rep.worst_drift, rep.violating_seed) == want

    monkeypatch.setattr(verifier, "_deriv_discrepancies", lambda *args: [0.0, 0.0])
    rep = deriv_suite(QuantityKind.LAMBDA_PINCH, P_NEG, trajectories=3)
    assert (rep.max_discrepancy, rep.worst_trajectory) == (0.0, None)


@pytest.mark.parametrize("quantity", [QuantityKind.LAMBDA_PINCH, QuantityKind.XI_PINCH])
def test_deriv_suite_decays_quadratically(quantity):
    p = P_NEG if quantity is QuantityKind.LAMBDA_PINCH else FlowParams(rho=0.1, eta=-4.0, theta=1.0)
    rep = deriv_suite(quantity, p, trajectories=5, seed=1)
    assert rep.max_discrepancy < 1e-6
    # halving h divides a quadratic error by 4 (within integration noise)
    assert 2.5 < rep.decay_ratio < 6.0
