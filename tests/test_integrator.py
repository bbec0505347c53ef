import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchlab import (
    BLOWUP,
    REACHED_END,
    STEP_LIMIT,
    DomainError,
    EigenTriple,
    FlowParams,
    IntegratorConfig,
    OutOfRange,
    integrate,
    isotropic_solution,
    standard_trigger_events,
)
from pinchlab.integrator import TerminalStatus

P0 = FlowParams(rho=0.0)
P1 = FlowParams(rho=-1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(DomainError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(DomainError):
        IntegratorConfig(blowup_norm=0.0)


def test_rejects_backward_time():
    with pytest.raises(ValueError):
        integrate(EigenTriple(1.0, 0.0, -1.0), P0, 0.5, 0.5)
    with pytest.raises(ValueError):
        integrate(EigenTriple(1.0, 0.0, -1.0), P0, 0.5, 0.1)


@pytest.mark.parametrize("c0,rho", [(1.0, 0.0), (-1.0, 0.0), (1.0, -1.0)])
def test_isotropic_trajectory_matches_closed_form(c0, rho):
    p = FlowParams(rho=rho)
    horizon = 0.2 if c0 > 0 and rho == 0.0 else (0.04 if c0 > 0 else 5.0)
    traj = integrate(EigenTriple(c0, c0, c0), p, 0.0, horizon)
    assert traj.terminal.kind == REACHED_END
    for t, row in zip(traj.times, traj.states_array):
        c = isotropic_solution(c0, p, float(t))
        for v in row:
            assert v == pytest.approx(c, rel=1e-9, abs=1e-12)


def test_isotropic_diagonal_is_preserved():
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.2)
    rows = traj.states_array
    assert np.max(np.abs(rows[:, 0] - rows[:, 2])) < 1e-12


def test_blowup_detected_at_known_time():
    # c0=1, rho=0 blows up exactly at t = 1/4
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 1.0)
    assert traj.terminal.kind == BLOWUP
    assert traj.terminal.t_est == pytest.approx(0.25, abs=1e-6)
    assert traj.t_last <= 0.25


def test_step_limit_reported():
    cfg = IntegratorConfig(max_steps=4)
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.2, cfg)
    assert traj.terminal.kind == STEP_LIMIT


def test_dense_output_is_node_exact():
    traj = integrate(EigenTriple(2.0, 0.5, -0.5), P1, 0.0, 0.02)
    vals = traj.eval_many(traj.times)
    assert np.max(np.abs(vals - traj.states_array)) < 1e-13


def test_dense_output_between_nodes():
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.2)
    ts = np.linspace(0.0, 0.2, 777)
    vals = traj.eval_many(ts)
    want = np.array([isotropic_solution(1.0, P0, float(t)) for t in ts])
    rel = np.abs(vals[:, 0] - want) / np.abs(want)
    assert rel.max() < 1e-8


def test_eval_outside_span_raises():
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.1)
    with pytest.raises(OutOfRange):
        traj.eval_at(0.11)
    with pytest.raises(OutOfRange):
        traj.eval_many(np.array([-0.01, 0.05]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_non_finite_time_raises(bad):
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.1)
    with pytest.raises(OutOfRange):
        traj.eval_many(np.array([0.001, bad]))
    with pytest.raises(OutOfRange):
        traj.eval_at(bad)


# an isotropic blow-up, a short mixed-sign run, and a blow-up with
# rejected steps and three trigger events
BATCH_TRAJECTORIES = (
    integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 1.0),
    integrate(EigenTriple(0.5, -0.8, -0.9), P1, 0.0, 0.01),
    integrate(EigenTriple(2.522234183692774, 2.4686038564983797, -3.1971245915690485),
              FlowParams(rho=-0.5), 0.0, 1.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8),
              standard_trigger_events(FlowParams(rho=-0.5))),
)


@given(
    st.sampled_from(range(len(BATCH_TRAJECTORIES))),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0), max_size=5),
)
def test_eval_many_batch_equals_one_point_calls(which, fractions, nodes):
    traj = BATCH_TRAJECTORIES[which]
    t0, t1 = traj.t_start, traj.t_last
    ts = [min(t0 + f * (t1 - t0), t1) for f in fractions]
    ts += [float(traj.times[k % len(traj.times)]) for k in nodes]
    batch = traj.eval_many(np.array(ts))
    for t, row in zip(ts, batch):
        assert row.tobytes() == traj.eval_many(np.array([t]))[0].tobytes()
        assert row.tobytes() == traj.eval_many(t).tobytes()
        assert traj.eval_at(t) == EigenTriple.sorted_from(*row)


def test_eigenvalue_order_preserved_along_flow():
    rng = np.random.default_rng(5)
    for _ in range(12):
        start = EigenTriple(*np.sort(rng.uniform(-1.5, 1.5, 3))[::-1])
        traj = integrate(start, P1, 0.0, 0.05)
        rows = traj.eval_many(np.linspace(0.0, traj.t_last, 101))
        assert np.all(rows[:, 0] >= rows[:, 1] - 1e-9)
        assert np.all(rows[:, 1] >= rows[:, 2] - 1e-9)


def test_trace_dominates_isotropic_comparison():
    """A positive-trace start must blow up no later than 3/(4(1-3rho)T0).

    The trace rate beats the isotropic rate pointwise, so the scalar
    comparison solution is a lower barrier.
    """
    start = EigenTriple(2.0, 0.3, -0.2)
    t0_trace = start.trace
    bound = 3.0 / (4.0 * (1.0 - 3.0 * 0.0) * t0_trace)
    traj = integrate(start, P0, 0.0, 2.0 * bound)
    assert traj.terminal.kind == BLOWUP
    assert traj.terminal.t_est <= bound + 1e-9


def test_reverse_field_returns_to_start():
    # integrate forward, then run the reversed flow y' = -F(y) for the same
    # duration; an accurate one-step map must come back to the start.  F is
    # homogeneous quadratic and permutation-equivariant, so the reversed
    # flow from y_end is minus the forward flow from (-nu, -mu, -lam),
    # read back in reverse order.
    y0 = (1.0, 0.2, -0.4)
    fwd = integrate(EigenTriple(*y0), P0, 0.0, 0.05)
    lam, mu, nu = fwd.states_array[-1]
    back = integrate(EigenTriple(-nu, -mu, -lam), P0, 0.0, 0.05)
    returned = -back.states_array[-1][::-1]
    assert np.max(np.abs(returned - np.array(y0))) < 1e-8


def test_nu_trigger_event_location():
    # frozen: nu(t) + 1/(1+2t) crosses zero downward at t ~ 0.0429598
    traj = integrate(
        EigenTriple(3.0, -0.5, -0.8), P0, 0.0, 0.1, events=standard_trigger_events(P0)
    )
    hits = [e for e in traj.events if e.name == "nu_trigger"]
    assert len(hits) == 1
    assert hits[0].time == pytest.approx(0.04295980938418191, abs=1e-8)
    assert hits[0].direction == -1
    # cross-check against the dense output: the event function vanishes there
    nu = traj.eval_at(hits[0].time).nu
    assert nu + 1.0 / (1.0 + 2.0 * hits[0].time) == pytest.approx(0.0, abs=1e-9)


def test_nu_zero_event():
    traj = integrate(
        EigenTriple(1.0, 0.5, -0.1), P0, 0.0, 0.15, events=standard_trigger_events(P0)
    )
    hits = [e for e in traj.events if e.name == "nu_zero"]
    assert len(hits) == 1
    assert hits[0].direction == 1
    assert abs(traj.eval_at(hits[0].time).nu) < 1e-9


def test_ricci_trigger_only_for_negative_rho():
    names_pos = {name for name, _ in standard_trigger_events(FlowParams(rho=0.1))}
    names_neg = {name for name, _ in standard_trigger_events(P1)}
    assert "ricci_trigger" not in names_pos
    assert "ricci_trigger" in names_neg
    assert {"nu_zero", "ricci_zero"} <= names_pos


def test_fixed_step_error_decays_at_high_order():
    # pin the step with a huge tolerance so max_step controls everything;
    # halving the step must shrink the error by roughly 2^5
    def err(h):
        cfg = IntegratorConfig(rel_tol=10.0, abs_tol=10.0, max_step=h)
        tr = integrate(EigenTriple(-1.0, -1.0, -1.0), P0, 0.0, 1.0, cfg)
        return abs(tr.states_array[-1][0] - isotropic_solution(-1.0, P0, tr.t_last))

    e1, e2 = err(0.05), err(0.025)
    assert e1 / e2 > 20.0  # at least ~order 4.3; exactly 32 for order 5
    assert e1 / e2 < 80.0


def test_tolerance_ladder_is_monotone():
    errs = []
    for rt in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
        tr = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.2, cfg)
        errs.append(abs(tr.states_array[-1][0] - isotropic_solution(1.0, P0, 0.2)))
    assert errs[0] > errs[1] > errs[2]


def test_stats_count_work():
    traj = integrate(EigenTriple(1.0, 1.0, 1.0), P0, 0.0, 0.2)
    assert traj.stats["accepted"] >= 1
    assert traj.stats["rejected"] >= 0
    # one evaluation at the start, then six per attempted step (FSAL)
    attempted = traj.stats["accepted"] + traj.stats["rejected"]
    assert traj.stats["rhs_evals"] == 1 + 6 * attempted
    loose = integrate(
        EigenTriple(1e6, 1e6, -1e6), P0, 0.0, 1.0,
        IntegratorConfig(rel_tol=1e3, abs_tol=1e3, blowup_norm=1e307),
    )
    assert loose.stats == {"accepted": 10, "rejected": 13, "rhs_evals": 139}


# Trajectories pinned bit for bit: step counts, terminal record, last time,
# events (name, repr(time), direction) and a SHA-256 over the bytes of
# times, states_array and dense.  Any change to the stepper's arithmetic
# or its operand order shows up here.
PINNED = {
    "isotropic_blowup": (
        EigenTriple(1.0, 1.0, 1.0), P0, 1.0, None, False,
        (1407, 0),
        TerminalStatus(BLOWUP, t_est=0.24999999999796543, step_collapse=True),
        "0.24999999999796543", [],
        "18172aa4071cfd670a673bf444315d3b71c645c52337c5b2c18ec7068035095e",
    ),
    "x_band_blowup": (
        EigenTriple(58.59500633031746, -27.657793887989612, -55.67273816939442),
        P1, 0.05, None, False,
        (1190, 0),
        TerminalStatus(BLOWUP, t_est=0.006365243567903862, step_collapse=True),
        "0.006365243567903862", [],
        "002022accd0df5c15a8cbe8501769bd6c7dfcdfabb4d4e1a28f3a65bbec8a571",
    ),
    "k_band_reached_end": (
        EigenTriple(8.177971709512148, -2.003518714101056, -9.174452965729804),
        FlowParams(rho=0.1, eta=-4.0, theta=1.0), 0.05, None, False,
        (139, 0),
        TerminalStatus(REACHED_END),
        "0.05", [],
        "0edd99d8f4c0c3c2a564fe21c3c35ddd77574605b582e5e975a6fd4cb6aabb7b",
    ),
    "trigger_events": (
        EigenTriple(2.522234183692774, 2.4686038564983797, -3.1971245915690485),
        FlowParams(rho=-0.5), 1.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8), True,
        (187, 112),
        TerminalStatus(BLOWUP, t_est=0.11177158625934765, norm_exceeded=True),
        "0.11177158625934765",
        [("ricci_zero", "0.026840312943923333", 1),
         ("nu_trigger", "0.09669488374894736", 1),
         ("nu_zero", "0.09954505893005647", 1)],
        "c8118780c0667562bfba6a9c12a152f80671d0b4e1c4df329628f49e4fe44ddf",
    ),
    "one_step": (
        EigenTriple(1.0, 1.0, 1.0), P0, 0.2, IntegratorConfig(max_steps=1), False,
        (1, 0),
        TerminalStatus(STEP_LIMIT),
        "0.0025", [],
        "9fa30b6a763b02b46eae62f9d296ae362627d0659e4842b07ca2b913116ea99a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_is_bit_identical_to_pinned(name):
    start, params, t_end, cfg, with_events, steps, terminal, t_last, events, digest = (
        PINNED[name]
    )
    evs = standard_trigger_events(params) if with_events else ()
    traj = integrate(start, params, 0.0, t_end, cfg, evs)
    accepted, rejected = steps
    assert traj.stats == {
        "accepted": accepted,
        "rejected": rejected,
        "rhs_evals": 1 + 6 * (accepted + rejected),
    }
    assert traj.terminal == terminal
    assert repr(traj.t_last) == t_last
    assert [(e.name, repr(e.time), e.direction) for e in traj.events] == events
    blob = traj.times.tobytes() + traj.states_array.tobytes() + traj.dense.tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest
