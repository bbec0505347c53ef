import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchlab import (
    DomainError,
    EigenTriple,
    FlowParams,
    SamplingExhausted,
    SetKind,
    SetSpec,
    f_domain_min,
    f_pinch,
    f_inverse,
    f_range_min,
    membership,
    margin_array,
    sample_set,
)
from pinchlab import cone_sets, pinch_functions
from pinchlab.cone_sets import constraint_margins, default_box_halfwidth

P_NEG = FlowParams(rho=-1.0)
SPEC_X = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
SPEC_W = SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, P_NEG)
SPEC_K = SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=0.1, eta=-4.0, theta=1.0))
SPEC_Y = SetSpec(
    SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.0)
)
ALL_SPECS = (SPEC_X, SPEC_W, SPEC_K, SPEC_Y)


def test_spec_validation():
    # the static and trace-positive families only make sense for rho < 0
    with pytest.raises(DomainError):
        SetSpec(SetKind.RICCI_LOG_STATIC, FlowParams(rho=0.1))
    with pytest.raises(DomainError):
        SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, FlowParams(rho=0.0))
    # the time-dependent families need 1 + eta*rho > 0
    with pytest.raises(ValueError):
        SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=-1.0, eta=1.0))


def test_time_factors():
    assert SPEC_W.time_factor(0.5) == pytest.approx(1.0 + 4.0 * 0.5)
    assert SPEC_X.time_factor(123.0) == pytest.approx(1.0)
    assert SPEC_K.time_factor(1.0) == pytest.approx(1.0 + 2.0 * 0.6)
    ts = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(SPEC_Y.time_factor(ts), 1.0 + 2.0 * 0.5 * ts)


def test_negative_time_names_the_smallest(monkeypatch):
    # a batch of checkpoint times is refused by its worst time, not dumped,
    # also when blocks of 7 spread the bad times over 28 blocks and the
    # worst one lies in the last
    ts = np.linspace(-3.0, 0.1, 201)
    for block in (None, 7):
        if block:
            monkeypatch.setattr(pinch_functions, "_BLOCK", block)
            ts = ts[::-1]
        with pytest.raises(DomainError, match=r"must be >= 0, got -3\.0$"):
            margin_array(SPEC_K, np.ones(201), np.zeros(201), -np.ones(201), ts)


NAN_TIME_CALLS = {
    "membership K": lambda: membership(SPEC_K, EigenTriple(1.0, 0.0, -1.0), t=math.nan),
    "checkpoints K": lambda: margin_array(
        SPEC_K, np.ones(3), np.zeros(3), -np.ones(3), np.array([0.1, math.nan, -3.0])),
    "sample_set K": lambda: sample_set(SPEC_K, math.nan, 3, seed=0),
    "sample_set X": lambda: sample_set(SPEC_X, math.nan, 3, seed=0),
}


@pytest.mark.parametrize("case", list(NAN_TIME_CALLS))
def test_nan_time_is_a_domain_error(case):
    with pytest.raises(DomainError, match=r"must be >= 0, got nan$"):
        NAN_TIME_CALLS[case]()


def _margin_cases(n):
    """(spec, lam, mu, nu, t) for every region on n seeded ordered states
    of its sampling cube, at scalar times and at a time per state."""
    rng = np.random.default_rng(21)
    cases = []
    for spec in ALL_SPECS:
        half = default_box_halfwidth(spec, 0.0)
        pts = np.sort(rng.uniform(-half, half, size=(n, 3)), axis=1)[:, ::-1]
        cols = [np.ascontiguousarray(pts[:, i]) for i in range(3)]
        for t in (0.0, 0.3, rng.uniform(0.0, 2.0, n)):
            cases.append((spec, *cols, t))
    return cases


def test_margin_array_in_blocks_keeps_every_bit(monkeypatch):
    cases = _margin_cases(300)
    want = [margin_array(*case) for case in cases]
    for m in want:
        assert 0.0 < np.mean(m >= 0.0) < 1.0
    monkeypatch.setattr(pinch_functions, "_BLOCK", 7)
    for case, w in zip(cases, want):
        assert margin_array(*case).tobytes() == w.tobytes()
    # a bad time in a later block is refused as in one pass
    with pytest.raises(DomainError, match=r"must be >= 0, got nan$"):
        margin_array(SPEC_K, np.ones(30), np.zeros(30), -np.ones(30),
                     np.r_[np.zeros(25), math.nan, -3.0, np.zeros(3)])


def test_big_batches_keep_temporaries_bounded():
    # one pass over 2e5 points held 20 MB (f_inverse) and 26 MB (X
    # margins) above its inputs; in blocks, the output and 20 blocks of
    # floats (12.1 MB at 2^16 points per block) bound them
    n = 200_000
    bound = 8 * (n + 20 * pinch_functions._BLOCK)
    rng = np.random.default_rng(5)
    y = f_range_min(P_NEG) + rng.exponential(50.0, n)
    spec, lam, mu, nu, t = _margin_cases(n)[0]
    assert spec is SPEC_X
    tracemalloc.start()
    try:
        for call in (lambda: f_inverse(y, P_NEG), lambda: margin_array(spec, lam, mu, nu, t)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            assert tracemalloc.get_traced_memory()[1] - base <= bound
    finally:
        tracemalloc.stop()


def test_membership_pins():
    r = membership(SPEC_X, EigenTriple(1.0, 1.0, 1.0))
    assert r.member
    assert r.active_constraint == "trace_floor"
    assert r.margin == pytest.approx(3.0 + math.exp(5.0) / 6.0)

    r = membership(SPEC_W, EigenTriple(0.0, 0.0, 0.0))
    assert r.member  # the boundary belongs to the set
    assert r.margin == 0.0
    assert r.active_constraint == "trace_sign"

    r = membership(SPEC_K, EigenTriple(-1.0, -1.0, -1.0))
    assert r.member
    assert r.margin == pytest.approx(0.0, abs=1e-15)

    r = membership(SPEC_Y, EigenTriple(1.0, -0.4, -0.5))
    assert not r.member
    assert r.active_constraint == "ricci_sign"
    assert r.margin == pytest.approx(-0.9)


def test_x_excludes_deep_negative_ricci():
    # trace fine, but mu+nu far below -f_inverse(trace)
    r = membership(SPEC_X, EigenTriple(1000.0, -450.0, -460.0))
    assert not r.member
    assert r.active_constraint == "ricci_log"


def test_w_trigger_branch():
    t = 0.2
    tw = 1.0 + 4.0 * t  # 1 - 4 rho t at rho = -1
    # mu+nu below -1/tw turns the log bound on
    st_in = EigenTriple(9.0, -1.0, -1.5)  # trace 6.5, ric -2.5
    r = membership(SPEC_W, st_in, t=t)
    c = 2.0 * (1.0 - 2.0 * -1.0)
    want = 6.5 + (-2.5) * (math.log(2.5) + math.log(tw) - c) / c
    assert r.margin == pytest.approx(min(6.5, want))
    st_out = EigenTriple(1.0, -2.0, -2.5)
    assert not membership(SPEC_W, st_out, t=t).member


def test_k_margin_continuous_at_trigger_activation():
    # at nu = -1/time_factor the conditional bound equals the trace floor,
    # so the overall margin must not jump when the trigger switches on
    t = 0.3
    tf = float(SPEC_K.time_factor(t))
    edge = -1.0 / tf
    lo = membership(SPEC_K, EigenTriple(2.0, 1.0, edge - 1e-9), t=t).margin
    hi = membership(SPEC_K, EigenTriple(2.0, 1.0, edge + 1e-9), t=t).margin
    assert abs(lo - hi) < 1e-7


ordered = st.tuples(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
).map(lambda xs: tuple(sorted(xs, reverse=True)))


@given(ordered, st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.01, max_value=2.0))
def test_margins_nondecreasing_in_lambda(triple, t, bump):
    # raising the top eigenvalue can only help every constraint
    for spec in ALL_SPECS:
        a = margin_array(
            spec,
            np.array([triple[0]]),
            np.array([triple[1]]),
            np.array([triple[2]]),
            t,
        )[0]
        b = margin_array(
            spec,
            np.array([triple[0] + bump]),
            np.array([triple[1]]),
            np.array([triple[2]]),
            t,
        )[0]
        assert b >= a - 1e-12


@given(
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=0.1, max_value=400.0),
)
def test_x_log_bound_matches_f_duality(scale, trace_shift):
    """Membership in the static family can be decided two ways.

    With r = -(mu+nu) at or above the f domain edge, the recorded margin
    condition mu+nu >= -f_inverse(T) is equivalent to T >= f(r); f is
    increasing so the two are inverse views of the same boundary.
    """
    r = f_domain_min(P_NEG) * scale
    trace = f_range_min(P_NEG) + trace_shift
    # build an ordered state with mu+nu = -r and the prescribed trace
    mu = nu = -r / 2.0
    lam = trace - mu - nu
    if lam < mu:
        return  # ordering impossible for this draw
    got = membership(SPEC_X, EigenTriple(lam, mu, nu)).member
    want = trace >= f_pinch(r, P_NEG) - 1e-12 * max(1.0, abs(trace))
    assert got == want


def test_margin_array_matches_membership_loop():
    rng = np.random.default_rng(11)
    pts = np.sort(rng.uniform(-3, 3, size=(60, 3)), axis=1)[:, ::-1]
    for spec in ALL_SPECS:
        arr = margin_array(spec, pts[:, 0], pts[:, 1], pts[:, 2], 0.25)
        for i, row in enumerate(pts):
            r = membership(spec, EigenTriple(*row), t=0.25)
            assert r.margin == pytest.approx(arr[i], rel=1e-14, abs=1e-14)
            assert r.member == (arr[i] >= 0.0)


def test_x_margin_array_equals_membership_exactly():
    # the X margin goes through f_inverse, whose result for one state must
    # not depend on the batch the state is evaluated in
    rng = np.random.default_rng(12)
    pts = np.sort(rng.uniform(-3000, 3000, size=(300, 3)), axis=1)[:, ::-1]
    arr = margin_array(SPEC_X, pts[:, 0], pts[:, 1], pts[:, 2])
    singles = [membership(SPEC_X, EigenTriple(*row)).margin for row in pts]
    assert singles == arr.tolist()


def test_constraint_labels():
    labels = [name for name, _ in constraint_margins(SPEC_Y, np.array([1.0]), np.array([0.5]), np.array([-0.5]), 0.0)]
    assert labels == ["trace_floor", "nu_log", "ricci_sign"]
    labels = [name for name, _ in constraint_margins(SPEC_X, np.array([1.0]), np.array([0.5]), np.array([-0.5]), 0.0)]
    assert labels == ["trace_floor", "ricci_log"]


def _log_margin_as_first_written(spec, lam, mu, nu, t):
    """W's ricci_log or K/Y's nu_log margin, spelled out the way each
    region wrote its log bound before the bounds became shared kernels."""
    p = spec.params
    trace = lam + mu + nu
    if spec.kind is SetKind.TRACE_POSITIVE_RICCI_LOG:
        ric = mu + nu
        tw = spec.time_factor(t)
        c = 2.0 * (1.0 - 2.0 * p.rho)
        trig = ric <= -1.0 / tw
        safe = np.where(trig, -ric, 1.0)
        bound = np.where(trig, -ric * (np.log(safe) + np.log(tw) - c) / c, -np.inf)
    else:
        tf = spec.time_factor(t)
        trig = nu <= -1.0 / tf
        safe = np.where(trig, -nu, 1.0)
        bound = np.where(
            trig, -p.theta * nu * (np.log(safe) + np.log(tf) - 3.0 / p.theta), -np.inf
        )
    return np.where(trig, trace - bound, np.inf)


LOG_SPECS = [
    *(SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, FlowParams(rho=r)) for r in (-0.1, -1.0, -10.0)),
    SPEC_K,
    SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=-3.0, eta=0.2, theta=2.5)),
    SPEC_Y,
    SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI,
            FlowParams(rho=-0.7, eta=1.0, theta=-1.0 / (2.0 * -0.7))),
]


@pytest.mark.parametrize(
    "spec", LOG_SPECS, ids=lambda s: f"{s.kind.value}-rho{s.params.rho}-theta{s.params.theta:.3g}"
)
def test_log_margins_keep_the_bits_of_their_first_expressions(spec):
    # states of sup-norm 1e-3 to 1e6 at times in [0, 2]
    n = 20_000
    rng = np.random.default_rng(19)
    unit = np.sort(rng.uniform(-1.0, 1.0, size=(n, 3)), axis=1)[:, ::-1]
    lam, mu, nu = (unit * 10.0 ** rng.uniform(-3.0, 6.0, size=(n, 1))).T
    t = rng.uniform(0.0, 2.0, size=n)
    label = "ricci_log" if spec.kind is SetKind.TRACE_POSITIVE_RICCI_LOG else "nu_log"
    got = dict(constraint_margins(spec, lam, mu, nu, t))[label]
    want = _log_margin_as_first_written(spec, lam, mu, nu, t)
    assert np.isfinite(want).sum() > n // 4  # the bound is on at many states
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------------ sampling


def test_sampler_is_reproducible():
    a = sample_set(SPEC_X, 0.0, 6, seed=7)
    b = sample_set(SPEC_X, 0.0, 6, seed=7)
    c = sample_set(SPEC_X, 0.0, 6, seed=8)
    assert [s.as_tuple() for s in a] == [s.as_tuple() for s in b]
    assert [s.as_tuple() for s in a] != [s.as_tuple() for s in c]


def test_sampler_prefix_stability():
    # per-sample child streams: the first k draws do not depend on count
    a = sample_set(SPEC_W, 0.1, 3, seed=42)
    b = sample_set(SPEC_W, 0.1, 8, seed=42)
    assert [s.as_tuple() for s in a] == [s.as_tuple() for s in b[:3]]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
def test_samples_are_members(spec):
    for t in (0.0, 0.4):
        for s in sample_set(spec, t, 25, seed=1):
            assert membership(spec, s, t=t).member


def test_band_landing():
    pts = sample_set(SPEC_X, 0.0, 12, seed=3, band=1e-6)
    for s in pts:
        m = membership(SPEC_X, s).margin
        assert 0.0 <= m <= 1e-6


def test_band_zero_is_unattainable():
    with pytest.raises(SamplingExhausted):
        sample_set(SPEC_X, 0.0, 4, seed=0, band=0.0)


@pytest.mark.parametrize("band", [-1e-6, math.nan])
def test_band_must_be_nonnegative(band, monkeypatch):
    # refused before the first draw is checked
    monkeypatch.setattr(cone_sets, "margin_array", None)
    with pytest.raises(ValueError, match=r"^band must be >= 0$"):
        sample_set(SPEC_X, 0.0, 4, seed=0, band=band)


def test_y_samples_cover_the_conditional_branch():
    # the interesting part of the mixed family is nu < 0 with mu+nu >= 0
    pts = sample_set(SPEC_Y, 0.0, 60, seed=9)
    assert any(s.nu < 0 and s.mu + s.nu >= 0 for s in pts)
    assert all(s.mu + s.nu >= 0 for s in pts)


def test_default_box_halfwidth():
    assert default_box_halfwidth(SPEC_X, 5.0) == pytest.approx(10.0 * math.exp(5.0) / 6.0)
    assert default_box_halfwidth(SPEC_W, 0.25) == pytest.approx(10.0 / 2.0)
    assert default_box_halfwidth(SPEC_K, 0.0) == pytest.approx(10.0)


def test_sample_set_outputs_are_pinned():
    digest = hashlib.sha256()
    for spec in (SPEC_X, SPEC_W, SPEC_Y, SPEC_K):
        for count in (1, 5, 200):
            for band in (math.inf, 1e-6):
                for t in (0.0, 0.3):
                    for state in sample_set(spec, t, count, seed=5, band=band):
                        digest.update(repr(tuple(map(float, state.as_tuple()))).encode())
    assert digest.hexdigest() == (
        "df475f6d30413d721c5af91f336782adbc86aaa261c077492e92af0a5e3797d7"
    )


def test_sampler_rejects_for_all_samples_at_once(monkeypatch):
    calls = []
    real = cone_sets.margin_array

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cone_sets, "margin_array", counted)
    sample_set(SPEC_X, 0.0, 200, seed=0, band=1e-6)
    assert len(calls) <= 60
