import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchlab import (
    RHO_MAX,
    BlowUpReached,
    DomainError,
    EigenTriple,
    FlowParams,
    isotropic_solution,
    rhs_array,
)

ordered_triples = st.tuples(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
).map(lambda xs: tuple(sorted(xs, reverse=True)))

rhos = st.floats(min_value=-10, max_value=0.24)


def test_triple_requires_descending_order():
    EigenTriple(3.0, 2.0, 1.0)  # fine
    with pytest.raises(DomainError):
        EigenTriple(1.0, 2.0, 3.0)


def test_sorted_from_sorts():
    t = EigenTriple.sorted_from(0.5, -1.0, 2.0)
    assert t.as_tuple() == (2.0, 0.5, -1.0)


def test_triple_helpers():
    t = EigenTriple(3.0, -0.5, -0.8)
    assert t.trace == pytest.approx(1.7)
    assert t.sup_norm == 3.0
    assert t.scaled(2.0).as_tuple() == (6.0, -1.0, -1.6)
    # negative scale flips the ordering
    assert t.scaled(-1.0).as_tuple() == (0.8, 0.5, -3.0)


@pytest.mark.parametrize("rho", [0.25, 0.3, 1.0])
def test_params_reject_rho_at_or_above_quarter(rho):
    with pytest.raises(DomainError):
        FlowParams(rho=rho)
    assert RHO_MAX == 0.25


def test_params_reject_nonpositive_theta():
    with pytest.raises(DomainError):
        FlowParams(rho=0.0, theta=0.0)
    with pytest.raises(DomainError):
        FlowParams(rho=0.0, theta=-1.0)


def test_eta_factor():
    assert FlowParams(rho=0.1, eta=-4.0).eta_factor == pytest.approx(0.6)
    assert FlowParams(rho=-0.5, eta=1.0).eta_factor == pytest.approx(0.5)


def test_rhs_hand_value_rho_zero():
    # 2*lam^2 + 2*mu*nu etc. at (3, -0.5, -0.8)
    dl, dm, dn = rhs_array(3.0, -0.5, -0.8, 0.0)
    assert dl == pytest.approx(18.8)
    assert dm == pytest.approx(-4.3)
    assert dn == pytest.approx(-1.72)


def test_rhs_hand_value_rho_negative():
    # same point with the -4*rho*x*T correction, rho = -1, T = 1.7
    dl, dm, dn = rhs_array(3.0, -0.5, -0.8, -1.0)
    assert dl == pytest.approx(18.8 + 4.0 * 3.0 * 1.7)
    assert dm == pytest.approx(-4.3 + 4.0 * (-0.5) * 1.7)
    assert dn == pytest.approx(-1.72 + 4.0 * (-0.8) * 1.7)


@given(ordered_triples, rhos, st.floats(min_value=0.01, max_value=10))
def test_rhs_is_homogeneous_degree_two(triple, rho, s):
    d1 = rhs_array(*EigenTriple(*triple).scaled(s).as_tuple(), rho)
    d0 = rhs_array(*triple, rho)
    for a, b in zip(d1, d0):
        assert a == pytest.approx(s * s * b, rel=1e-9, abs=1e-9)


@given(ordered_triples, rhos)
def test_trace_rate_dominates_isotropic_rate(triple, rho):
    # sum of the right-hand side is at least (4/3)(1-3 rho) T^2,
    # with equality exactly on the isotropic diagonal
    trace = sum(triple)
    floor = (4.0 / 3.0) * (1.0 - 3.0 * rho) * trace * trace
    slack = sum(rhs_array(*triple, rho)) - floor
    assert slack >= -1e-9 * max(1.0, trace * trace)


def test_trace_rate_equality_iff_isotropic():
    rho = -0.3
    trace = 3 * 1.7
    assert sum(rhs_array(1.7, 1.7, 1.7, rho)) == pytest.approx(
        (4.0 / 3.0) * (1.0 + 0.9) * trace * trace
    )
    d2 = rhs_array(2.0, 1.7, 1.4, rho)
    assert sum(d2) > (4.0 / 3.0) * (1.0 + 0.9) * (5.1) ** 2 + 1e-6


def test_isotropic_solution_hand_values():
    p = FlowParams(rho=0.0)
    assert isotropic_solution(1.0, p, 0.2) == pytest.approx(1.0 / (1.0 - 0.8))
    assert isotropic_solution(-1.0, p, 10.0) == pytest.approx(-1.0 / 41.0)
    p1 = FlowParams(rho=-1.0)
    assert isotropic_solution(0.5, p1, 0.1) == pytest.approx(0.5 / (1.0 - 16.0 * 0.5 * 0.1))


def test_isotropic_solution_blowup():
    p = FlowParams(rho=0.0)
    with pytest.raises(BlowUpReached):
        isotropic_solution(1.0, p, 0.25)
    with pytest.raises(BlowUpReached):
        isotropic_solution(1.0, p, 0.3)
    # just below the blow-up time is fine (and large)
    assert isotropic_solution(1.0, p, 0.2499) > 2000
