import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

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
from pinchlab.cone_sets import SetKind, SetSpec, sample_set
from pinchlab.integrator import TerminalStatus
from pinchlab.pinch_functions import EstimateVariant
from pinchlab.verifier import _estimate_initial_states

P0 = FlowParams(rho=0.0)
P1 = FlowParams(rho=-1.0)


def _field(rho):
    """The reaction field in t-time, for scipy."""
    def f(t, y):
        s = 4.0 * rho * (y[0] + y[1] + y[2])
        return [
            2.0 * y[0] * y[0] + 2.0 * y[1] * y[2] - s * y[0],
            2.0 * y[1] * y[1] + 2.0 * y[0] * y[2] - s * y[1],
            2.0 * y[2] * y[2] + 2.0 * y[0] * y[1] - s * y[2],
        ]
    return f


def _reference(y0, params, ts):
    """States at times ``ts`` from scipy's DOP853 in t-time at tight tolerances."""
    sol = solve_ivp(_field(params.rho), (0.0, ts[-1]), list(y0), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=ts)
    return sol.y.T


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(DomainError, match="finite"):
        IntegratorConfig(rel_tol=math.inf)
    with pytest.raises(DomainError, match="finite"):
        IntegratorConfig(abs_tol=math.inf)
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
    # the run takes 4 attempts: on the isotropic line the step sized to
    # t_end at the l-rate of its start lands on it
    cfg = IntegratorConfig(max_steps=3)
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


ZERO_START, ZERO_PARAMS = EigenTriple(0.5, 0.2, -0.3), FlowParams(rho=0.1)


@pytest.mark.parametrize("sign", [1, -1])
def test_event_that_reaches_zero_at_a_node_is_recorded_once(sign):
    # a step from a nonzero value to exactly 0 crosses, rising or falling,
    # and the step that starts at 0 records nothing
    def at(node_time):
        return [("g", lambda t, l, m, n: sign * (t - node_time))]

    end = integrate(ZERO_START, ZERO_PARAMS, 0.0, 0.05, events=at(0.05))
    node = float(integrate(ZERO_START, ZERO_PARAMS, 0.0, 0.1).times[3])
    inner = integrate(ZERO_START, ZERO_PARAMS, 0.0, 0.1, events=at(node))
    for traj, node_time in ((end, 0.05), (inner, node)):
        assert node_time in traj.times
        assert [(e.name, e.direction) for e in traj.events] == [("g", sign)]
        assert abs(traj.events[0].time - node_time) <= 1e-10


TRIGGER_START = EigenTriple(2.522234183692774, 2.4686038564983797, -3.1971245915690485)


@pytest.mark.parametrize("start,params,t_end,cfg,kind", [
    # a blow-up with three trigger crossings, two of them in one step
    (TRIGGER_START, FlowParams(rho=-0.5), 1.0,
     IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8), BLOWUP),
    (TRIGGER_START, FlowParams(rho=-0.5), 1.0, IntegratorConfig(max_steps=40), STEP_LIMIT),
    # a retry at the sigma where the clock reaches t_end
    (EigenTriple(2.0, -1.0, -1.5), FlowParams(rho=0.1), 0.2, None, REACHED_END),
    # five retries at 0.9 of the max_step cap, one at t_end, and a
    # nu_trigger crossing
    (EigenTriple(3.0, -0.5, -0.8), FlowParams(rho=0.1), 0.1,
     IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5, max_step=0.007), REACHED_END),
])
def test_events_are_a_pure_reading(start, params, t_end, cfg, kind):
    plain = integrate(start, params, 0.0, t_end, cfg)
    read = integrate(start, params, 0.0, t_end, cfg, standard_trigger_events(params))
    assert plain.terminal.kind == kind
    assert plain.events == ()
    for name in ("times", "states_array", "dense"):
        assert getattr(read, name).tobytes() == getattr(plain, name).tobytes()
    assert (read.terminal, read.stats) == (plain.terminal, plain.stats)


def test_crossings_in_one_step_come_in_event_order():
    traj = integrate(ZERO_START, ZERO_PARAMS, 0.0, 0.1)
    lo, hi = traj.times[3], traj.times[4]
    early, late = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
    events = [("late", lambda t, l, m, n: t - late), ("early", lambda t, l, m, n: t - early)]
    read = integrate(ZERO_START, ZERO_PARAMS, 0.0, 0.1, events=events)
    assert [e.name for e in read.events] == ["late", "early"]
    assert lo < read.events[1].time < read.events[0].time < hi


def test_crossings_in_a_short_step_are_located_within_it():
    # near blow-up both crossings fall in one step of about 1.07e-10 in t,
    # shorter than the absolute 1e-10 tolerance: bisection to 1e-6 of the
    # step keeps nu_trigger strictly before nu_zero, each at a root
    traj = integrate(EigenTriple(1e8, 0.5e8, -0.1e8), P0, 0.0, 1.0,
                     events=standard_trigger_events(P0))
    assert [(e.name, e.direction) for e in traj.events] == [("nu_zero", 1), ("nu_trigger", 1)]
    zero, trigger = (e.time for e in traj.events)
    assert (zero, trigger) == (8.767491001666181e-10, 8.76748996839198e-10)
    g = dict(standard_trigger_events(P0))
    for e in traj.events:
        y = traj.eval_many(np.array([e.time]))[0]
        assert abs(g[e.name](e.time, *y)) <= 1e-8 * abs(y[0])


def test_fixed_step_error_decays_at_high_order():
    # pin the step with a huge tolerance so max_step controls everything;
    # halving the step must shrink the error by roughly 2^5.  The start is
    # not isotropic: there u stands still, l grows linearly and the clock
    # is integrated in closed form, so that solution carries no
    # truncation error at all.  The error is read at the node on t_end
    y0 = (-0.2, -0.5, -1.0)
    want = _reference(y0, P0, [1.0])[-1]

    def err(h):
        cfg = IntegratorConfig(rel_tol=10.0, abs_tol=10.0, max_step=h)
        tr = integrate(EigenTriple(*y0), P0, 0.0, 1.0, cfg)
        assert repr(tr.t_last) == "1.0"
        return np.max(np.abs(tr.states_array[-1] - want))

    e1, e2 = err(0.05), err(0.025)
    assert e1 / e2 > 20.0  # at least ~order 4.3; exactly 32 for order 5
    assert e1 / e2 < 80.0


def test_tolerance_ladder_is_monotone():
    y0 = (1.0, 0.5, -0.5)  # not isotropic, for the reason given above
    want = _reference(y0, P0, [0.2])[-1]
    errs = []
    for rt in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
        tr = integrate(EigenTriple(*y0), P0, 0.0, 0.2, cfg)
        errs.append(np.max(np.abs(tr.states_array[-1] - want)))
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
    # the start blows up before t = 7.5e-7; at these tolerances only the
    # stalled clock reports it
    assert loose.terminal.kind == BLOWUP and loose.terminal.step_collapse
    assert loose.t_last < 7.5e-7
    assert loose.stats == {"accepted": 13, "rejected": 7, "rhs_evals": 121}


# Trajectories pinned bit for bit: step counts, terminal record, last time,
# events (name, repr(time), direction) and a SHA-256 over the bytes of
# times, states_array and dense.  Any change to the stepper's arithmetic
# or its operand order shows up here.  Recorded from the projective
# stepper; the t-time stepper it replaced took 1407, 1190, 139, 187 (+112
# rejected) and 1 steps on these cases.  Events found in one step are
# listed in registration order.
PINNED = {
    "isotropic_blowup": (
        EigenTriple(1.0, 1.0, 1.0), P0, 1.0, None, False,
        (7, 0),
        TerminalStatus(BLOWUP, t_est=0.24999999999999992, norm_exceeded=True),
        "0.24999999999999992", [],
        "5d6560e2ba352f2dd68a5c65f1bb1b08fa3d0b7a184656d550a82f9d250c60dd",
    ),
    "x_band_blowup": (
        EigenTriple(58.59500633031746, -27.657793887989612, -55.67273816939442),
        P1, 0.05, None, False,
        (177, 0),
        TerminalStatus(BLOWUP, t_est=0.006365243568338155, norm_exceeded=True),
        "0.006365243568338155", [],
        "11c12e32774e10cd08b9961af30eb99dd5afbced8d66d9a0b78ab9216b1a9c18",
    ),
    "k_band_reached_end": (
        EigenTriple(8.177971709512148, -2.003518714101056, -9.174452965729804),
        FlowParams(rho=0.1, eta=-4.0, theta=1.0), 0.05, None, False,
        (118, 1),
        TerminalStatus(REACHED_END),
        "0.05", [],
        "0722a3120868dd9b6f0e3ff54c99b62a41f95ee21b611a6a1919ebc7b9d55b8a",
    ),
    "trigger_events": (
        EigenTriple(2.522234183692774, 2.4686038564983797, -3.1971245915690485),
        FlowParams(rho=-0.5), 1.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8), True,
        (36, 0),
        TerminalStatus(BLOWUP, t_est=0.11177156680077467, norm_exceeded=True),
        "0.11177156680077467",
        [("ricci_zero", "0.02684031367473469", 1),
         ("nu_zero", "0.09954503658520786", 1),
         ("nu_trigger", "0.09669485347188259", 1)],
        "d6d3ec6427543f5aa1b5c9a7d44fe2eed2263955e34b2d58276a126e720b9d67",
    ),
    "one_step": (
        EigenTriple(1.0, 1.0, 1.0), P0, 0.2, IntegratorConfig(max_steps=1), False,
        (1, 0),
        TerminalStatus(STEP_LIMIT),
        "0.002487541562707987", [],
        "25e00591aea4afca97259b599bc6ca9358a2340a1c5a5208e1a47491e13ee2eb",
    ),
    # every one of the 21 rejections retries at 0.9 of the max_step cap
    "max_step_retry": (
        EigenTriple(1.0, 1.0, 1.0), P0, 0.2,
        IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5, max_step=0.007), False,
        (32, 21),
        TerminalStatus(REACHED_END),
        "0.2", [],
        "3a8a9ac14f23dd6aea115d644a69a96f5f207c8c28beabea6bb85cc0f08de65a",
    ),
    # the rejection retries at the sigma where the clock reaches t_end
    "t_end_overshoot": (
        EigenTriple(2.0, -1.0, -1.5), FlowParams(rho=0.1), 0.2, None, False,
        (95, 1),
        TerminalStatus(REACHED_END),
        "0.2", [],
        "a209a0ee43c32f0f62be89f49dbbfbcaa83fe44107ab6e302756eb4aa37d7a80",
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


# ---------------------------------------------------------------- new core

REGIONS = (
    SetSpec(SetKind.RICCI_LOG_STATIC, P1),
    SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, P1),
    SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.0)),
    SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=0.1, eta=-4.0, theta=1.0)),
)
VARIANTS = (
    (EstimateVariant.NEG_RHO_SCALAR, P1),
    (EstimateVariant.NEG_RHO_SECTIONAL, FlowParams(rho=-0.5, eta=1.0)),
    (EstimateVariant.NONNEG_RHO, P0),
    (EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2)),
)


def _scipy_kind(y0, params, horizon, norm):
    """Terminal kind of scipy's DOP853 run with the blow-up norm as an event."""
    def blowup(t, y):
        return max(abs(y[0]), abs(y[1]), abs(y[2])) - norm
    blowup.terminal = True
    sol = solve_ivp(_field(params.rho), (0.0, horizon), list(y0), method="DOP853",
                    rtol=1e-8, atol=1e-10, events=blowup)
    return BLOWUP if sol.status == 1 else REACHED_END


def _starts():
    for spec in REGIONS:
        for s in sample_set(spec, 0.0, 50, 42, band=1e-6):
            yield s, spec.params, 0.05
    for variant, params in VARIANTS:
        for s in _estimate_initial_states(variant, 20, 0):
            yield s, params, 50.0


def test_matches_scipy_in_t_time():
    # The criterion-06 band starts and the criterion-07 estimate starts
    # against an independent t-time integrator.  Near blow-up a time
    # error dt moves the state by y' dt, about |y| dt / (t* - t), so at
    # 0.99 t_last the t-time stepper this core replaced already reached
    # 1.9e-9 (1 + |y|) on these starts; the bound is 1e-8 (1 + |y|).
    for start, params, horizon in _starts():
        y0 = start.as_tuple()
        traj = integrate(start, params, 0.0, horizon)
        assert traj.terminal.kind == _scipy_kind(y0, params, horizon, 1e12)
        ts = np.linspace(0.0, 0.99 * traj.t_last, 50)
        want = _reference(y0, params, ts)
        assert np.all(np.abs(traj.eval_many(ts) - want) <= 1e-8 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("c0,rho", [(1.0, 0.0), (1.0, -1.0), (2.0, 0.1), (-1.0, 0.0)])
def test_isotropic_clock_matches_closed_form_to_blowup(c0, rho):
    # c(t) = 1/(1/c0 - 4(1-3rho) t): every node's time must be the time at
    # which the closed form reaches the node's state, to a few ulps, all
    # the way to the blow-up norm (where a float t no longer resolves the
    # state, so states are compared through times).  The floor covers the
    # rounding of the closed form itself near t = 0.
    p = FlowParams(rho=rho)
    k = 4.0 * (1.0 - 3.0 * rho)
    traj = integrate(EigenTriple(c0, c0, c0), p, 0.0, 10.0)
    assert traj.terminal.kind == (BLOWUP if c0 > 0 else REACHED_END)
    rows = traj.states_array
    assert np.all(rows[:, 0] == rows[:, 2])
    closed = (1.0 / c0 - 1.0 / rows[:, 0]) / k
    assert np.all(np.abs(traj.times - closed) <= 4e-15 * traj.times + 1e-16)
    if c0 > 0:
        assert traj.t_last <= 1.0 / (k * c0)


def test_lands_exactly_on_t_end():
    for t_end in (0.1, 0.05, 1.0 / 3.0):
        traj = integrate(EigenTriple(1.0, 0.5, -0.5), P0, 0.0, t_end)
        assert traj.terminal.kind == REACHED_END
        assert repr(traj.t_last) == repr(t_end)
    # a step sized to t_end at the l-rate of its start overshoots here and
    # is retried at the sigma where its clock reaches t_end
    traj = integrate(EigenTriple(2.0, -1.0, -1.5), FlowParams(rho=0.1), 0.0, 0.2)
    assert traj.terminal.kind == REACHED_END and traj.stats["rejected"] == 1
    assert repr(traj.t_last) == "0.2"
    assert np.all(np.diff(traj.times) > 0.0)


@pytest.mark.parametrize("y0", [(-0.5, -1.0, -1.5), (1.0, 0.5, -0.5), (1.0, 1.0, 1.0)])
def test_max_step_caps_every_increment(y0):
    for cap in (0.03, 0.007):
        cfg = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-5, max_step=cap)
        traj = integrate(EigenTriple(*y0), P0, 0.0, 0.2, cfg)
        assert traj.terminal.kind == REACHED_END
        steps = np.diff(traj.times)
        assert np.all(steps > 0.0) and np.all(steps <= cap)


def test_zero_start_is_constant():
    traj = integrate(EigenTriple(0.0, 0.0, 0.0), P1, 0.0, 2.0, events=standard_trigger_events(P1))
    assert traj.terminal == TerminalStatus(REACHED_END)
    assert repr(traj.t_last) == "2.0"
    assert traj.events == ()
    assert np.all(traj.eval_many(np.linspace(0.0, 2.0, 9)) == 0.0)


def test_non_finite_steps_are_rejected():
    # from 1e300 the controller's growing steps carry e^l past the float
    # range; those steps are rejected at a quarter of their size (a copy
    # with another factor gives other counts), and every node is finite
    cfg = IntegratorConfig(blowup_norm=1e307)
    traj = integrate(EigenTriple(1e300, 1e300, 1e300), P0, 0.0, 1.0, cfg)
    assert traj.stats == {"accepted": 7, "rejected": 2, "rhs_evals": 55}
    assert traj.terminal == TerminalStatus(BLOWUP, t_est=2.4999999265743225e-301, norm_exceeded=True)
    assert np.all(np.isfinite(traj.states_array))


def test_clock_stall_ends_as_blowup():
    # past |y| ~ 1e17 a step adds less than half an ulp to t; with the
    # norm threshold out of reach the trajectory ends on the stalled clock
    start = EigenTriple(58.59500633031746, -27.657793887989612, -55.67273816939442)
    traj = integrate(start, P1, 0.0, 0.05, IntegratorConfig(blowup_norm=1e307))
    assert traj.terminal.kind == BLOWUP
    assert traj.terminal.step_collapse and not traj.terminal.norm_exceeded
    assert traj.terminal.t_est == traj.t_last
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.max(np.abs(traj.states_array[-1])) > 1e12
