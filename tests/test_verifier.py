import dataclasses
import math

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
    derivative_consistency,
    estimate_suite,
    integrate,
    invariance_is_claimed,
    scan_inequality,
)
from pinchlab.cone_sets import sample_set
from pinchlab.verifier import _deriv_initial_states, _drift_one, _estimate_initial_states

P_NEG = FlowParams(rho=-1.0)


# --------------------------------------------------------------------- scans


def test_j_scan_holds_at_modest_resolution():
    rep = scan_inequality(InequalityKind.J_NEG_TRACE, P_NEG, resolution=60)
    assert rep.violations == 0
    assert rep.min_margin >= 0.0
    assert rep.points_checked > 0
    assert rep.mode == "grid"
    # the argmin lives on the sup-norm unit slice
    assert rep.argmin_state.sup_norm == pytest.approx(1.0)


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


def test_trace_bound_random_mode():
    rep = scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.2), samples=20_000, seed=4
    )
    assert rep.mode == "random"
    assert rep.violations == 0
    assert rep.samples == 20_000
    assert rep.seed == 4
    # the isotropic injections must sit exactly on the equality case
    assert rep.injected_max_abs_margin <= 1e-12
    again = scan_inequality(
        InequalityKind.TRACE_BOUND, FlowParams(rho=0.2), samples=20_000, seed=4
    )
    assert again == rep


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


def test_invariance_small_run():
    spec = SetSpec(SetKind.RICCI_LOG_STATIC, P_NEG)
    rep = check_invariance(spec, samples=24, horizon=0.05, seed=42)
    assert rep.claimed
    assert rep.worst_drift >= -1e-8
    assert rep.violating_seed is None
    assert rep.samples == 24
    assert rep.checkpoints > 0


def test_invariance_is_order_independent():
    # a lane depends on its own start only, so running the lanes in
    # reverse order gives the report's figures
    spec = SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, P_NEG)
    rep = check_invariance(spec, samples=10, horizon=0.03, seed=7)
    states = sample_set(spec, 0.0, 10, 7, band=rep.band)
    lanes = [_drift_one(s, spec, spec, 0.03, IntegratorConfig()) for s in states[::-1]]
    assert rep.worst_drift == min(drift for drift, _, _, _ in lanes)
    assert rep.checkpoints == sum(points for _, points, _, _ in lanes)
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
    assert rep.trigger_times
    assert rep.trigger_times[0][0] == 0.0


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


def test_estimate_suite_reproducible():
    a = estimate_suite(EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2), count=5, seed=9)
    b = estimate_suite(EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2), count=5, seed=9)
    assert a.worst_slack == b.worst_slack
    assert a.min_coverage == b.min_coverage


# ------------------------------------------------------- derivative identity


def test_derivative_consistency_single_trajectory():
    traj = integrate(EigenTriple(0.5, -0.8, -0.9), P_NEG, 0.0, 0.01)
    rep = derivative_consistency(traj, QuantityKind.LAMBDA_PINCH, P_NEG)
    assert rep.max_discrepancy < 1e-5


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
        derivative_consistency(
            integrate(s, p, 0.0, 0.005), QuantityKind.XI_PINCH, p
        ).max_discrepancy
        for s in _deriv_initial_states(QuantityKind.XI_PINCH, 5, 3)
    ]
    assert rep.worst_trajectory == int(np.argmax(per_traj))
    assert rep.max_discrepancy == per_traj[rep.worst_trajectory]


@pytest.mark.parametrize("quantity", [QuantityKind.LAMBDA_PINCH, QuantityKind.XI_PINCH])
def test_deriv_suite_decays_quadratically(quantity):
    p = P_NEG if quantity is QuantityKind.LAMBDA_PINCH else FlowParams(rho=0.1, eta=-4.0, theta=1.0)
    rep = deriv_suite(quantity, p, trajectories=5, seed=1)
    assert rep.max_discrepancy < 1e-6
    # halving h divides a quadratic error by 4 (within integration noise)
    assert 2.5 < rep.decay_ratio < 6.0
