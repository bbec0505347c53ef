"""Adaptive embedded Runge-Kutta integration for the eigenvalue reaction
system.

The stepper is the Dormand-Prince 5(4) pair: the fifth-order solution is
propagated, the embedded fourth-order solution drives the error estimate,
and the first-same-as-last property saves one derivative evaluation per
step.  Step sizes follow a proportional-integral controller
(alpha = 0.7/5, beta = 0.4/5, safety 0.9, factors clamped to [0.2, 10]),
which damps the accept/reject oscillation a plain I-controller shows on
rapidly growing solutions.  Each accepted step keeps its stage
derivatives; when the trajectory ends, the quartic dense interpolant of
Shampine for the pair is formed for all steps at once, so trajectories
can be sampled anywhere in the covered interval at interpolation error
of the same order as the local tolerance.

Blow-up is part of the model, not a failure: the quadratic reaction
drives generic data to infinity in finite time.  A step whose accepted
state exceeds ``blowup_norm`` in sup-norm terminates the trajectory with
a blow-up record; a step size collapsing to the floating-point floor is
recorded separately (both flags are reported, norm threshold decides).

The integrator knows nothing about cones or pinching functions.  Event
functions (used by the verifier for trigger crossings) are generic
``g(t, lam, mu, nu)`` callables whose sign changes across an accepted
step are refined by bisection on the dense interpolant to 1e-10 in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .eigen_ode import EigenTriple, FlowParams
from .errors import DomainError, OutOfRange

__all__ = [
    "IntegratorConfig",
    "TerminalStatus",
    "EventRecord",
    "Trajectory",
    "integrate",
    "standard_trigger_events",
    "REACHED_END",
    "BLOWUP",
    "STEP_LIMIT",
]

REACHED_END = "reached_end"
BLOWUP = "blowup"
STEP_LIMIT = "step_limit"

# Dormand-Prince 5(4) tableau; the field is autonomous, so the stage
# times (the c nodes) never enter
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error weights: fifth-order minus embedded fourth-order solution
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# quartic dense-output weights (Shampine); column j multiplies sigma^(j+1)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# rows of _P for the stages with nonzero weights, each shaped (1, 4) to
# broadcast against the (steps, 3, 1) derivatives of one stage
_P_USED = np.array([_P[i] for i in (0, 2, 3, 4, 5, 6)])[:, None, :]

_SAFETY = 0.9
_ALPHA = 0.7 / 5.0  # PI proportional exponent
_BETA = 0.4 / 5.0  # PI integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 10.0


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    blowup_norm: float = 1e12
    max_steps: int = 500_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")
        if not (self.max_step > 0 and self.blowup_norm > 0):
            raise DomainError("max_step and blowup_norm must be positive")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")


@dataclass(frozen=True)
class TerminalStatus:
    """How a trajectory ended.

    kind           one of REACHED_END, BLOWUP, STEP_LIMIT
    t_est          last accepted time when kind == BLOWUP
    norm_exceeded  accepted state passed the blow-up norm threshold
    step_collapse  step size hit the floating-point floor
    """

    kind: str
    t_est: float | None = None
    norm_exceeded: bool = False
    step_collapse: bool = False


@dataclass(frozen=True)
class EventRecord:
    name: str
    time: float
    direction: int  # +1 upward crossing, -1 downward


@dataclass(frozen=True)
class Trajectory:
    """Result of one integration; immutable, arrays frozen read-only.

    times        accepted step times, strictly increasing, times[0] = t0
    states_array (len(times), 3) accepted states
    terminal     how integration ended
    events       recorded sign crossings of the registered event functions
    """

    times: np.ndarray
    states_array: np.ndarray
    dense: np.ndarray  # (steps, 3, 4) interpolant weights
    terminal: TerminalStatus
    params: FlowParams
    config: IntegratorConfig
    events: tuple[EventRecord, ...] = ()
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])

    def eval_many(self, ts) -> np.ndarray:
        """Dense evaluation at an array of times, (len(ts), 3).

        Stored nodes are returned bit-exact; interior times evaluate the
        quartic interpolant of the covering step.
        """
        ts = np.asarray(ts, dtype=float)
        flat = np.atleast_1d(ts)
        if flat.size and (flat.min() < self.times[0] or flat.max() > self.times[-1]):
            raise OutOfRange(
                f"evaluation times must lie in [{self.times[0]}, "
                f"{self.times[-1]}]"
            )
        idx = np.searchsorted(self.times, flat)
        idx = np.clip(idx, 0, len(self.times) - 1)
        exact = self.times[idx] == flat
        if self.dense.shape[0] == 0:
            # degenerate single-node trajectory: only t0 is in range
            out = np.repeat(self.states_array[:1], flat.size, axis=0)
            return out if ts.ndim else out[0]
        step = np.clip(np.searchsorted(self.times, flat, side="right") - 1, 0,
                       len(self.times) - 2)
        t0 = self.times[step]
        h = self.times[step + 1] - t0
        sig = (flat - t0) / h
        q = self.dense[step]  # (m, 3, 4)
        poly = q[..., 0] + sig[:, None] * (
            q[..., 1] + sig[:, None] * (q[..., 2] + sig[:, None] * q[..., 3])
        )
        out = self.states_array[step] + (h * sig)[:, None] * poly
        out[exact] = self.states_array[idx[exact]]
        return out if ts.ndim else out[0]

    def eval_at(self, t: float) -> EigenTriple:
        row = self.eval_many(np.asarray([float(t)]))[0]
        return EigenTriple.sorted_from(*row)


def _initial_step(y, d0) -> float:
    """Cheap starting-step heuristic: a hundredth of the state's own
    time scale |y|/|y'|; the controller corrects it within a few steps."""
    ny = max(abs(y[0]), abs(y[1]), abs(y[2]))
    nd = max(abs(d0[0]), abs(d0[1]), abs(d0[2]))
    if nd <= 1e-300 or ny <= 1e-300:
        return 1e-6
    return min(1.0, 0.01 * ny / nd)


def _dense_weights(stages: np.ndarray) -> np.ndarray:
    """Quartic interpolant weights (steps, 3, 4) from the stage
    derivatives (steps, 6, 3) of k1, k3, k4, k5, k6, k7 (k2 has weight 0).

    The products are summed in stage order, so the weights of one step
    come out the same whether it is formed alone or in a batch of steps.
    """
    q = stages[:, 0, :, None] * _P_USED[0]
    for i in range(1, 6):
        q += stages[:, i, :, None] * _P_USED[i]
    return q


def _locate_event(g, g0, t, h, y0, q) -> float:
    """Bisect the sign change of ``g`` across the step [t, t+h] on its
    interpolant ``q`` (3 rows of 4 weights) to 1e-10 in t."""
    lo_t, hi_t = t, t + h
    glo = g0
    while hi_t - lo_t > 1e-10:
        mid = 0.5 * (lo_t + hi_t)
        sig = (mid - t) / h
        vals = [
            y0[c] + h * sig * (
                q[c][0] + sig * (q[c][1] + sig * (q[c][2] + sig * q[c][3]))
            )
            for c in range(3)
        ]
        gm = g(mid, *vals)
        if (gm < 0.0) == (glo < 0.0):
            lo_t, glo = mid, gm
        else:
            hi_t = mid
    return 0.5 * (lo_t + hi_t)


def integrate(
    state: EigenTriple,
    params: FlowParams,
    t0: float,
    t_end: float,
    config: IntegratorConfig | None = None,
    events: Sequence[tuple[str, Callable[[float, float, float, float], float]]] = (),
) -> Trajectory:
    """Integrate the reaction system from ``state`` over [t0, t_end].

    Stops early with a blow-up record when the sup-norm of the state
    passes ``config.blowup_norm``, or with a step-limit record when
    ``config.max_steps`` is exhausted.  No clamping or re-sorting is ever
    applied to the evolving state.
    """
    cfg = config or IntegratorConfig()
    events = tuple(events)
    if not t_end > t0:
        raise ValueError(f"t_end must exceed t0, got [{t0}, {t_end}]")
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    max_step, blowup_norm = cfg.max_step, cfg.blowup_norm
    isfinite = math.isfinite
    # The reaction field of eigen_ode._rhs_f is written out at each stage,
    # with the same operand order, so the trajectory matches that kernel
    # bit for bit.
    rho4 = 4.0 * params.rho
    yl, ym, yn = map(float, state.as_tuple())
    t = float(t0)

    times = [t]
    states = [yl, ym, yn]
    stages: list[float] = []  # k1, k3..k7 of every accepted step
    recs: list[EventRecord] = []
    ev_last = [g(t, yl, ym, yn) for _, g in events]

    t4 = rho4 * (yl + ym + yn)
    k1l = 2.0 * yl * yl + 2.0 * ym * yn - t4 * yl
    k1m = 2.0 * ym * ym + 2.0 * yl * yn - t4 * ym
    k1n = 2.0 * yn * yn + 2.0 * yl * ym - t4 * yn
    h = min(_initial_step((yl, ym, yn), (k1l, k1m, k1n)), t_end - t, max_step)
    err_prev = 1e-4
    terminal = None
    naccept = nreject = 0

    for _ in range(cfg.max_steps):
        if t >= t_end:
            terminal = TerminalStatus(REACHED_END)
            break
        h = min(h, t_end - t, max_step)
        if h < 1e-14 * max(abs(t), 1.0):
            # step collapse: the norm threshold decides whether this is a
            # blow-up approach or a plain stall; both flags are recorded
            big = max(abs(yl), abs(ym), abs(yn)) > 0.01 * blowup_norm
            terminal = TerminalStatus(
                BLOWUP if big else STEP_LIMIT,
                t_est=t if big else None,
                norm_exceeded=False,
                step_collapse=True,
            )
            break

        ha = h * _A21
        al = yl + ha * k1l
        am = ym + ha * k1m
        an = yn + ha * k1n
        t4 = rho4 * (al + am + an)
        k2l = 2.0 * al * al + 2.0 * am * an - t4 * al
        k2m = 2.0 * am * am + 2.0 * al * an - t4 * am
        k2n = 2.0 * an * an + 2.0 * al * am - t4 * an

        al = yl + h * (_A31 * k1l + _A32 * k2l)
        am = ym + h * (_A31 * k1m + _A32 * k2m)
        an = yn + h * (_A31 * k1n + _A32 * k2n)
        t4 = rho4 * (al + am + an)
        k3l = 2.0 * al * al + 2.0 * am * an - t4 * al
        k3m = 2.0 * am * am + 2.0 * al * an - t4 * am
        k3n = 2.0 * an * an + 2.0 * al * am - t4 * an

        al = yl + h * (_A41 * k1l + _A42 * k2l + _A43 * k3l)
        am = ym + h * (_A41 * k1m + _A42 * k2m + _A43 * k3m)
        an = yn + h * (_A41 * k1n + _A42 * k2n + _A43 * k3n)
        t4 = rho4 * (al + am + an)
        k4l = 2.0 * al * al + 2.0 * am * an - t4 * al
        k4m = 2.0 * am * am + 2.0 * al * an - t4 * am
        k4n = 2.0 * an * an + 2.0 * al * am - t4 * an

        al = yl + h * (_A51 * k1l + _A52 * k2l + _A53 * k3l + _A54 * k4l)
        am = ym + h * (_A51 * k1m + _A52 * k2m + _A53 * k3m + _A54 * k4m)
        an = yn + h * (_A51 * k1n + _A52 * k2n + _A53 * k3n + _A54 * k4n)
        t4 = rho4 * (al + am + an)
        k5l = 2.0 * al * al + 2.0 * am * an - t4 * al
        k5m = 2.0 * am * am + 2.0 * al * an - t4 * am
        k5n = 2.0 * an * an + 2.0 * al * am - t4 * an

        al = yl + h * (_A61 * k1l + _A62 * k2l + _A63 * k3l + _A64 * k4l + _A65 * k5l)
        am = ym + h * (_A61 * k1m + _A62 * k2m + _A63 * k3m + _A64 * k4m + _A65 * k5m)
        an = yn + h * (_A61 * k1n + _A62 * k2n + _A63 * k3n + _A64 * k4n + _A65 * k5n)
        t4 = rho4 * (al + am + an)
        k6l = 2.0 * al * al + 2.0 * am * an - t4 * al
        k6m = 2.0 * am * am + 2.0 * al * an - t4 * am
        k6n = 2.0 * an * an + 2.0 * al * am - t4 * an

        y1l = yl + h * (_B1 * k1l + _B3 * k3l + _B4 * k4l + _B5 * k5l + _B6 * k6l)
        y1m = ym + h * (_B1 * k1m + _B3 * k3m + _B4 * k4m + _B5 * k5m + _B6 * k6m)
        y1n = yn + h * (_B1 * k1n + _B3 * k3n + _B4 * k4n + _B5 * k5n + _B6 * k6n)
        t4 = rho4 * (y1l + y1m + y1n)
        k7l = 2.0 * y1l * y1l + 2.0 * y1m * y1n - t4 * y1l
        k7m = 2.0 * y1m * y1m + 2.0 * y1l * y1n - t4 * y1m
        k7n = 2.0 * y1n * y1n + 2.0 * y1l * y1m - t4 * y1n

        el = h * (_E1 * k1l + _E3 * k3l + _E4 * k4l + _E5 * k5l + _E6 * k6l + _E7 * k7l)
        em = h * (_E1 * k1m + _E3 * k3m + _E4 * k4m + _E5 * k5m + _E6 * k6m + _E7 * k7m)
        en = h * (_E1 * k1n + _E3 * k3n + _E4 * k4n + _E5 * k5n + _E6 * k6n + _E7 * k7n)

        if not (
            isfinite(y1l) and isfinite(y1m) and isfinite(y1n)
            and isfinite(el) and isfinite(em) and isfinite(en)
        ):
            nreject += 1
            h *= 0.25
            continue
        # RMS of the error scaled by atol + rtol * max(|y0|, |y1|) per component
        rl = el / (atol + rtol * max(abs(yl), abs(y1l)))
        rm = em / (atol + rtol * max(abs(ym), abs(y1m)))
        rn = en / (atol + rtol * max(abs(yn), abs(y1n)))
        err = math.sqrt((rl * rl + rm * rm + rn * rn) / 3.0)
        if err > 1.0:  # reject
            nreject += 1
            h *= min(1.0, max(_FAC_MIN, _SAFETY * err ** -0.2))
            continue

        stages.extend((
            k1l, k1m, k1n, k3l, k3m, k3n, k4l, k4m, k4n,
            k5l, k5m, k5n, k6l, k6m, k6n, k7l, k7m, k7n,
        ))
        t_new = t + h
        times.append(t_new)
        states.extend((y1l, y1m, y1n))
        naccept += 1

        # event crossings inside the accepted step
        if events:
            q = None
            for i, (name, g) in enumerate(events):
                g0, g1 = ev_last[i], g(t_new, y1l, y1m, y1n)
                if (
                    isfinite(g0) and isfinite(g1)
                    and g0 != 0.0 and (g0 < 0.0) != (g1 < 0.0)
                ):
                    if q is None:
                        q = _dense_weights(np.array(stages[-18:]).reshape(1, 6, 3))[0].tolist()
                    recs.append(EventRecord(
                        name, _locate_event(g, g0, t, h, (yl, ym, yn), q),
                        +1 if g1 > g0 else -1,
                    ))
                ev_last[i] = g1

        yl, ym, yn = y1l, y1m, y1n
        k1l, k1m, k1n = k7l, k7m, k7n  # first-same-as-last
        t = t_new

        if max(abs(yl), abs(ym), abs(yn)) > blowup_norm:
            terminal = TerminalStatus(BLOWUP, t_est=t, norm_exceeded=True)
            break

        if err == 0.0:
            factor = _FAC_MAX
        else:
            factor = _SAFETY * err ** -_ALPHA * err_prev ** _BETA
        h *= min(_FAC_MAX, max(_FAC_MIN, factor))
        err_prev = max(err, 1e-10)
    else:
        terminal = TerminalStatus(STEP_LIMIT)

    times_a = np.array(times)
    states_a = np.array(states).reshape(-1, 3)
    stages_a = np.array(stages).reshape(-1, 6, 3)
    stages.clear()  # release the float objects before the weights are formed
    dense_a = _dense_weights(stages_a)
    for a in (times_a, states_a, dense_a):
        a.setflags(write=False)
    return Trajectory(
        times=times_a,
        states_array=states_a,
        dense=dense_a,
        terminal=terminal,
        params=params,
        config=cfg,
        events=tuple(recs),
        stats={
            "accepted": naccept,
            "rejected": nreject,
            "rhs_evals": 1 + 6 * (naccept + nreject),
        },
    )


def standard_trigger_events(params: FlowParams):
    """Event functions for the conditional-bound triggers of the cones.

    Returns (name, g) pairs for whichever of these are admissible:

    * ``nu_trigger``:    nu + 1/(1 + 2(1+eta rho) t)   (K/Y bound trigger)
    * ``ricci_trigger``: mu + nu + 1/(1 - 4 rho t)     (W bound trigger)
    * ``nu_zero`` and ``ricci_zero``: plain sign changes of nu and mu+nu.
    """
    out: list[tuple[str, Callable]] = [
        ("nu_zero", lambda t, l, m, n: n),
        ("ricci_zero", lambda t, l, m, n: m + n),
    ]
    ef = params.eta_factor
    if ef > 0:
        out.append(
            ("nu_trigger", lambda t, l, m, n: n + 1.0 / (1.0 + 2.0 * ef * t))
        )
    if params.rho < 0:
        rho = params.rho
        out.append(
            ("ricci_trigger",
             lambda t, l, m, n: m + n + 1.0 / (1.0 - 4.0 * rho * t))
        )
    return out
