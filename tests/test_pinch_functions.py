import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchlab import (
    DomainError,
    EigenTriple,
    EstimateVariant,
    FlowParams,
    SetKind,
    SetSpec,
    constraint_margins,
    estimate_rhs_array,
    f_domain_min,
    f_inverse,
    f_pinch,
    f_range_min,
    lambda_pinch,
    lambda_pinch_array,
    lambda_pinch_rate,
    lambda_pinch_rate_array,
    xi_pinch,
    xi_pinch_array,
    xi_pinch_rate,
    xi_pinch_rate_array,
)
from pinchlab import pinch_functions
from pinchlab.eigen_ode import rhs_array
from pinchlab.pinch_functions import (
    i_poly_array,
    j_poly_array,
    validate_variant_params,
    xi_prime_numerator_array,
)

P_NEG = FlowParams(rho=-1.0)


# ---------------------------------------------------------------- f and f^-1


def test_f_domain_and_range_edges():
    # domain starts at e^(1-4*rho); the range minimum sits exactly there
    assert f_domain_min(P_NEG) == pytest.approx(math.exp(5.0), rel=1e-15)
    assert f_range_min(P_NEG) == pytest.approx(-math.exp(5.0) / 6.0, rel=1e-15)
    assert f_pinch(f_domain_min(P_NEG), P_NEG) == pytest.approx(
        f_range_min(P_NEG), rel=1e-15
    )


def test_f_hand_value():
    # f(x) = x (log x - 2(1-2 rho)) / (2(1-2 rho)); at rho=-1, x=e^5 this
    # is e^5 (5 - 6) / 6
    assert f_pinch(math.exp(5.0), P_NEG) == pytest.approx(-24.7355265170961)


def test_f_rejects_below_domain():
    with pytest.raises(DomainError):
        f_pinch(math.exp(5.0) * 0.99, P_NEG)


def test_f_inverse_against_independent_bisection():
    """Freeze f_inverse(3) at rho=-1 against a from-scratch bisection.

    f(x) = 3 with rho = -1 means x (log x - 6) = 18.  The root lies in
    [e^5, e^7] because the left side is -e^5 < 18 at e^5 and e^7 > 18 at
    e^7; bisect that bracket without touching the library code.
    """
    lo, hi = math.exp(5.0), math.exp(7.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (math.log(mid) - 6.0) < 18.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(421.0494652692796, rel=1e-13)
    assert float(f_inverse(3.0, P_NEG)) == pytest.approx(root, rel=1e-12)


def test_f_inverse_rejects_below_range():
    with pytest.raises(DomainError):
        f_inverse(f_range_min(P_NEG) - 1e-6, P_NEG)


@pytest.mark.parametrize("rho", [-10.0, -1.0, -0.1, 0.0, 0.2])
def test_f_inverse_round_trip(rho):
    # start a hair inside the domain: right at the edge f' vanishes, so
    # no inverse can recover x there to better than ~sqrt(eps) relative
    p = FlowParams(rho=rho)
    x = f_domain_min(p) * np.geomspace(1.1, 1e6, 400)
    y = f_pinch(x, p)
    back = f_inverse(y, p)
    assert np.max(np.abs(back - x) / x) < 1e-12


@given(
    st.floats(min_value=-10.0, max_value=0.24),
    st.floats(min_value=math.log1p(1e-3), max_value=math.log(1e8)),
)
def test_f_inverse_round_trip_hypothesis(rho, log_scale):
    p = FlowParams(rho=rho)
    x = f_domain_min(p) * math.exp(log_scale)
    back = f_inverse(f_pinch(x, p), p)
    assert abs(back - x) <= 1e-10 * x


def test_f_inverse_edges_are_finite_and_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (-10.0, -1.0, 0.0, 0.2):
            p = FlowParams(rho=rho)
            y_min = f_range_min(p)
            # the branch point returns the domain edge itself
            assert f_inverse(y_min, p) == f_domain_min(p)
            assert f_inverse(np.array([y_min]), p)[0] == f_domain_min(p)
            near = f_inverse(y_min * (1.0 - 1e-15), p)
            assert f_domain_min(p) <= near < f_domain_min(p) * (1.0 + 1e-6)
            huge = f_inverse(1e300, p)
            assert math.isfinite(huge)
            assert f_pinch(huge, p) == pytest.approx(1e300, rel=1e-12)
            grid = np.array([[y_min, 0.0, 1.0], [10.0, 1e10, 1e300]])
            out = f_inverse(grid, p)
            assert out.shape == grid.shape
            assert np.all(np.isfinite(out))
            assert out.ravel().tolist() == [f_inverse(float(v), p) for v in grid.ravel()]


@pytest.mark.parametrize("y,rho", [(1e307, -10.0), (1.7e308, -1.0)])
def test_f_inverse_near_float_max_is_quiet(y, rho):
    # x (log x - c) overflowed here although x and f(x) are finite
    p = FlowParams(rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = f_inverse(y, p)
        assert math.isfinite(x)
        assert abs(f_pinch(x, p) - y) <= 1e-12 * y
        assert abs(f_pinch(np.array([x]), p)[0] - y) <= 1e-12 * y


def test_f_inverse_non_finite_input():
    with pytest.raises(DomainError):
        f_inverse(float("nan"), P_NEG)
    with pytest.raises(DomainError):
        f_inverse(np.array([0.0, np.nan, 1.0]), P_NEG)
    assert f_inverse(float("inf"), P_NEG) == math.inf
    out = f_inverse(np.array([0.0, np.inf, 1.0]), P_NEG)
    assert out[1] == math.inf
    assert out[[0, 2]].tolist() == [f_inverse(0.0, P_NEG), f_inverse(1.0, P_NEG)]


def test_f_inverse_in_blocks_keeps_every_bit(monkeypatch):
    # blocks of 7 cut the grid across its rows; the transposed grid is
    # not contiguous, and both keep their shapes and bits
    grids = []
    for rho in (-10.0, -1.0, 0.0, 0.2):
        p = FlowParams(rho=rho)
        y_min = f_range_min(p)
        ys = y_min + abs(y_min) * np.geomspace(1e-12, 1e12, 60)
        grid = np.r_[y_min, np.inf, 1e300, 0.0, ys].reshape(8, 8)
        grids.append((p, grid, f_inverse(grid, p)))

    def raised(y):
        with pytest.raises(DomainError) as err:
            f_inverse(y, P_NEG)
        return str(err.value)

    bad = [np.zeros(50), np.zeros(50)]
    bad[0][45], bad[1][45] = math.nan, f_range_min(P_NEG) - 1.0
    messages = [raised(y) for y in bad]
    monkeypatch.setattr(pinch_functions, "_BLOCK", 7)
    for p, grid, want in grids:
        assert f_inverse(grid, p).tobytes() == want.tobytes()
        assert f_inverse(grid.T, p).tobytes() == want.T.tobytes(order="C")
    # a NaN or a below-range value in a later block is refused as in one pass
    assert [raised(y) for y in bad] == messages
    assert "NaN" in messages[0] and "below range minimum" in messages[1]


def test_f_is_increasing_on_domain():
    p = FlowParams(rho=-0.3)
    x = f_domain_min(p) * np.linspace(1.0, 50.0, 500)
    y = f_pinch(x, p)
    assert np.all(np.diff(y) > 0)


def test_f_inverse_vectorised_matches_scalar():
    ys = np.array([0.0, 1.0, 10.0, 1e4])
    vec = f_inverse(ys, P_NEG)
    for yi, xi in zip(ys, vec):
        assert float(f_inverse(float(yi), P_NEG)) == xi
    # bit for bit on batches whose elements converge at different steps
    rng = np.random.default_rng(4)
    for rho in (-10.0, -1.0, 0.0, 0.2):
        p = FlowParams(rho=rho)
        ys = f_range_min(p) + np.abs(f_range_min(p)) * rng.exponential(50.0, 200)
        vec = f_inverse(ys, p)
        assert [f_inverse(float(yi), p) for yi in ys] == vec.tolist()


# ------------------------------------------------- Lambda and its derivative


def test_lambda_hand_value():
    # -lam/(mu+nu) - log(-mu-nu)/(2(1-2 rho)) at (2,-1,-1), rho=-1:
    # 1 - log(2)/6
    st_ = EigenTriple(2.0, -1.0, -1.0)
    assert lambda_pinch(st_, P_NEG) == pytest.approx(0.8844754699066758, rel=1e-15)
    assert lambda_pinch(st_, P_NEG) == pytest.approx(1.0 - math.log(2.0) / 6.0)


def _lambda_rate_oracle(l, m, n, rho):
    # chain rule through the reaction field, worked out by hand:
    # d/dlam = -1/(mu+nu), d/dmu = d/dnu = lam/(mu+nu)^2 - 1/(c (mu+nu))
    c = 2.0 * (1.0 - 2.0 * rho)
    dl = -1.0 / (m + n)
    dmn = l / (m + n) ** 2 - 1.0 / (c * (m + n))
    fl, fm, fn = rhs_array(l, m, n, rho)
    return dl * fl + dmn * fm + dmn * fn


negative_ricci_triples = st.tuples(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=-0.05),
    st.floats(min_value=-3, max_value=-0.05),
).map(lambda xs: tuple(sorted(xs, reverse=True))).filter(lambda t: t[1] + t[2] < -0.1)


@given(negative_ricci_triples, st.floats(min_value=-5, max_value=0.2))
def test_lambda_rate_matches_chain_rule(triple, rho):
    p = FlowParams(rho=rho)
    got = lambda_pinch_rate(EigenTriple(*triple), p)
    want = _lambda_rate_oracle(*triple, rho)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_j_polynomial_frozen_values():
    # frozen from the chain-rule oracle above via J = rate (mu+nu)^2 / 2
    assert j_poly_array(1.0, -1.0, -1.0, -1.0) == pytest.approx(16.0 / 3.0)
    assert j_poly_array(2.0, -1.0, -1.5, -1.0) == pytest.approx(10.5625)


@given(negative_ricci_triples, st.floats(min_value=-5, max_value=0.2))
def test_j_polynomial_is_half_rate_times_ricci_squared(triple, rho):
    ric = triple[1] + triple[2]
    want = _lambda_rate_oracle(*triple, rho) * ric * ric / 2.0
    assert j_poly_array(*triple, rho) == pytest.approx(want, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------- I polynomial


def test_i_polynomial_frozen_values():
    assert i_poly_array(1.0, 0.5, -1.0, 0.0) == pytest.approx(5.0)
    assert i_poly_array(1.0, 0.5, -1.0, 0.2) == pytest.approx(7.0)
    assert i_poly_array(2.0, -0.5, -1.0, 0.0) == pytest.approx(3.5)


def test_cubics_are_homogeneous_degree_three():
    a = i_poly_array(1.5, 0.2, -0.7, 0.1)
    b = i_poly_array(3.0, 0.4, -1.4, 0.1)
    assert b == pytest.approx(8.0 * a)
    c = j_poly_array(2.0, -1.0, -1.5, -1.0)
    d = j_poly_array(6.0, -3.0, -4.5, -1.0)
    assert d == pytest.approx(27.0 * c)


# --------------------------------------------------------- xi and its rate


P_XI = FlowParams(rho=-0.5, eta=1.0, theta=1.0)


def test_xi_hand_value():
    st_ = EigenTriple(3.0, -0.5, -0.8)
    # T/(-nu) - theta log(-nu) at t=0
    assert xi_pinch(st_, P_XI, 0.0) == pytest.approx(1.7 / 0.8 - math.log(0.8))


def _xi_rate_oracle(l, m, n, params, t):
    th, ef = params.theta, params.eta_factor
    fl, fm, fn = rhs_array(l, m, n, params.rho)
    trace, dtrace = l + m + n, fl + fm + fn
    return dtrace / -n + trace * fn / n**2 - th * fn / n - 2.0 * th * ef / (1.0 + 2.0 * ef * t)


negative_nu_triples = st.tuples(
    st.floats(min_value=-2, max_value=3),
    st.floats(min_value=-2, max_value=3),
    st.floats(min_value=-2, max_value=-0.05),
).map(lambda xs: tuple(sorted(xs, reverse=True))).filter(lambda t: t[2] < -0.05)


@given(negative_nu_triples, st.floats(min_value=0.0, max_value=2.0))
def test_xi_rate_matches_chain_rule(triple, t):
    got = xi_pinch_rate(EigenTriple(*triple), P_XI, t)
    want = _xi_rate_oracle(*triple, P_XI, t)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(negative_nu_triples)
def test_xi_numerator_homogenises_the_rate(triple):
    """N(state)/(-nu)^3 equals the rate at the state rescaled to nu = -1.

    This is the identity that lets a scan of the unit slice stand in for
    the whole region at t = 0.
    """
    l, m, n = triple
    num = float(
        xi_prime_numerator_array(np.array([l]), np.array([m]), np.array([n]), P_XI)[0]
    )
    s = 1.0 / -n
    want = xi_pinch_rate(EigenTriple(l * s, m * s, -1.0), P_XI, 0.0)
    assert num / (-n) ** 3 == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(negative_nu_triples, st.floats(min_value=0.05, max_value=4.0))
def test_xi_numerator_homogeneous_degree_three_at_t0(triple, s):
    l, m, n = (np.array([v]) for v in triple)
    a = float(xi_prime_numerator_array(l * s, m * s, n * s, P_XI)[0])
    b = float(xi_prime_numerator_array(l, m, n, P_XI)[0])
    assert a == pytest.approx(s**3 * b, rel=1e-9, abs=1e-9)


def test_xi_nan_time_raises():
    # a NaN time fails the time-factor check instead of returning NaN
    st_ = EigenTriple(3.0, -0.5, -0.8)
    for fn in (xi_pinch, xi_pinch_rate):
        with pytest.raises(DomainError, match=r"must be > 0, got nan$"):
            fn(st_, P_XI, math.nan)


# ------------------------------------------------- pinching-quantity kernels


def _seeded_admissible(n, seed):
    """n ordered triples with nu < 0 and mu+nu < 0 at log-uniform scales."""
    rng = np.random.default_rng(seed)
    lmn = -np.sort(-rng.uniform(-1.0, 1.0, (4 * n, 3)), axis=1)
    lmn *= np.exp(rng.uniform(-7.0, 7.0, (4 * n, 1)))
    lmn = lmn[(lmn[:, 1] + lmn[:, 2] < 0) & (lmn[:, 2] < 0)][:n]
    assert len(lmn) == n
    return lmn, np.exp(rng.uniform(-8.0, 5.0, n))


@pytest.mark.parametrize("params", [P_NEG, P_XI, FlowParams(rho=0.1), FlowParams(rho=-3.0, eta=0.2)])
def test_pinch_kernels_equal_one_triple_calls(params):
    # one kernel per formula: a batch keeps the bits of each triple alone
    lmn, t = _seeded_admissible(500, 11)
    l, m, n = lmn.T
    states = [EigenTriple(*row) for row in lmn.tolist()]
    assert lambda_pinch_array(l, m, n, params.rho).tolist() == [
        lambda_pinch(s, params) for s in states]
    assert lambda_pinch_rate_array(l, m, n, params.rho).tolist() == [
        lambda_pinch_rate(s, params) for s in states]
    assert xi_pinch_array(l, m, n, params, t).tolist() == [
        xi_pinch(s, params, ti) for s, ti in zip(states, t.tolist())]
    assert xi_pinch_rate_array(l, m, n, params, t).tolist() == [
        xi_pinch_rate(s, params, ti) for s, ti in zip(states, t.tolist())]


def test_pinch_kernels_name_the_first_offending_entry():
    l = np.array([2.0, 1.0, 1.0, 1.0])
    m = np.array([-1.0, 0.5, np.nan, 0.75])
    n = np.array([-1.5, -0.25, -1.0, 0.5])
    with pytest.raises(DomainError, match=r"^lambda_pinch needs mu\+nu < 0, got 0.25$"):
        lambda_pinch_array(l, m, n, -1.0)
    with pytest.raises(DomainError, match=r"^lambda_pinch_rate needs mu\+nu < 0, got 0.25$"):
        lambda_pinch_rate_array(l, m, n, -1.0)
    with pytest.raises(DomainError, match=r"^lambda_pinch needs mu\+nu < 0, got nan$"):
        lambda_pinch_array(l[2:3], m[2:3], n[2:3], -1.0)
    with pytest.raises(DomainError, match=r"^xi_pinch needs nu < 0, got 0.5$"):
        xi_pinch_array(l, m, n, P_XI, 0.0)
    # the time factor is checked before nu, at each time
    t = np.array([0.0, 1.0, -3.0, np.nan])
    with pytest.raises(DomainError, match=r"must be > 0, got -2.0$"):
        xi_pinch_rate_array(l, m, n, P_XI, t)
    with pytest.raises(DomainError, match=r"1 \+ eta\*rho must be > 0"):
        xi_pinch_array(l, m, n, FlowParams(rho=-0.5, eta=3.0), 0.0)


def _scalar_digest(count):
    """sha256 of the four scalar functions on seeded admissible triples,
    parameters and times, as repr strings."""
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    n = 0
    while n < count:
        scale = math.exp(rng.uniform(-7, 7))
        l, m, nu = sorted((rng.uniform(-1, 1, 3) * scale).tolist(), reverse=True)
        st_ = EigenTriple(l, m, nu)
        p = FlowParams(rho=float(rng.uniform(-3, 0.24)), eta=float(rng.uniform(-4, 4)),
                       theta=float(math.exp(rng.uniform(-2, 2))))
        t = float(math.exp(rng.uniform(-8, 5))) if rng.uniform() < 0.9 else 0.0
        out = []
        if m + nu < 0:
            out += [lambda_pinch(st_, p), lambda_pinch_rate(st_, p)]
        if nu < 0 and p.eta_factor > 0 and p.sectional_time_factor(t) > 0:
            out += [xi_pinch(st_, p, t), xi_pinch_rate(st_, p, t)]
        if out:
            n += 1
            h.update((" ".join(map(repr, out)) + "\n").encode())
    return h.hexdigest()


def test_scalar_pinching_values_are_pinned():
    # recorded from the scalar bodies the kernels replaced
    assert _scalar_digest(10_000) == (
        "cd063f722780a99564a170b150b9b1bfe28ef70a05b2b36bfcd619920f3dce62"
    )


# ------------------------------------------------------ estimate right side


def test_estimate_rhs_hand_values():
    # all three variants at a = 1, t = 0
    rhs = estimate_rhs_array
    assert rhs(EstimateVariant.NEG_RHO_SCALAR, -1.0, P_NEG, 0.0) == pytest.approx(-2.0)
    assert rhs(
        EstimateVariant.NONNEG_RHO, -1.0, FlowParams(rho=0.0), 0.0
    ) == pytest.approx(-6.0)
    assert rhs(EstimateVariant.NEG_RHO_SECTIONAL, -1.0, P_XI, 0.0) == pytest.approx(-6.0)
    # the bound is asserted only at negative scalars and nonnegative times
    with pytest.raises(DomainError):
        rhs(EstimateVariant.NEG_RHO_SCALAR, 0.0, P_NEG, 0.0)
    with pytest.raises(DomainError):
        rhs(EstimateVariant.NEG_RHO_SCALAR, -1.0, P_NEG, -0.1)


@pytest.mark.parametrize("variant", list(EstimateVariant))
def test_estimate_rhs_rejects_nan(variant):
    p = {EstimateVariant.NEG_RHO_SCALAR: P_NEG, EstimateVariant.NEG_RHO_SECTIONAL: P_XI,
         EstimateVariant.NONNEG_RHO: FlowParams(rho=0.1)}[variant]
    with pytest.raises(DomainError, match="negative scalars everywhere"):
        estimate_rhs_array(variant, [-1.0, math.nan], p, 0.0)
    with pytest.raises(DomainError, match="t >= 0 everywhere"):
        estimate_rhs_array(variant, -2.0, p, [0.5, math.nan])


def test_estimate_rhs_superlinear_for_deep_negatives():
    # past a = e^3 the nonneg-rho bound 2a(log a - 3) is positive and
    # strictly increasing: deeply negative sectional curvature forces
    # large scalar curvature
    a = np.geomspace(np.exp(4.0), np.exp(12.0), 50)
    out = estimate_rhs_array(EstimateVariant.NONNEG_RHO, -a, FlowParams(rho=0.0), 0.0)
    assert np.all(out > 0)
    assert np.all(np.diff(out) > 0)
    assert out[-1] / a[-1] > out[0] / a[0]  # superlinear growth


# each estimate paired with the region whose log bound it doubles
ESTIMATE_REGIONS = [
    *((EstimateVariant.NEG_RHO_SCALAR, SetKind.TRACE_POSITIVE_RICCI_LOG, FlowParams(rho=r))
      for r in (-0.1, -1.0, -10.0)),
    *((EstimateVariant.NONNEG_RHO, SetKind.SECTIONAL_LOG, FlowParams(rho=r, eta=-4.0))
      for r in (0.0, 0.1, 0.2)),
    *((EstimateVariant.NEG_RHO_SECTIONAL, SetKind.SECTIONAL_LOG_NONNEG_RICCI,
       FlowParams(rho=r, eta=1.0, theta=-1.0 / (2.0 * r)))
      for r in (-0.3, -0.5, -0.7)),
]


@pytest.mark.parametrize(
    "variant,kind,params", ESTIMATE_REGIONS,
    ids=[f"{v.value}-rho{p.rho}" for v, _, p in ESTIMATE_REGIONS],
)
def test_each_estimate_is_twice_its_regions_log_bound(variant, kind, params):
    # R = 2 trace, so R - estimate is twice the region's log margin
    spec = SetSpec(kind, params)
    n = 20_000
    rng = np.random.default_rng(7)
    lam, mu, nu = np.sort(rng.uniform(-5.0, 5.0, size=(n, 3)), axis=1)[:, ::-1].T
    t = rng.uniform(0.0, 2.0, size=n)
    ricci = kind is SetKind.TRACE_POSITIVE_RICCI_LOG
    smallest = mu + nu if ricci else nu
    trig = smallest <= -1.0 / spec.time_factor(t)
    assert trig.sum() > n // 4
    margin = dict(constraint_margins(spec, lam, mu, nu, t))["ricci_log" if ricci else "nu_log"]
    trace = lam + mu + nu
    rhs = estimate_rhs_array(variant, smallest[trig], params, t[trig])
    assert (2.0 * trace[trig] - rhs).tobytes() == (2.0 * margin[trig]).tobytes()


@pytest.mark.parametrize(
    "variant,params_kw",
    [
        (EstimateVariant.NEG_RHO_SCALAR, {"rho": 0.1}),
        (EstimateVariant.NEG_RHO_SECTIONAL, {"rho": 0.1, "eta": 1.0}),
        (EstimateVariant.NEG_RHO_SECTIONAL, {"rho": -3.0, "eta": 1.0}),
        (EstimateVariant.NONNEG_RHO, {"rho": -0.1}),
    ],
)
def test_validate_variant_params_rejects_wrong_window(variant, params_kw):
    with pytest.raises(DomainError):
        validate_variant_params(variant, FlowParams(**params_kw))
