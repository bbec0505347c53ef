"""Adaptive embedded Runge-Kutta integration of the eigenvalue reaction
system in projective time.

The reaction field F is homogeneous quadratic, so writing y = e^l u turns
y' = F(y) into

    du/ds = F(u) - g u,   dl/ds = g,   dt/ds = e^(-l),   g = <u, F(u)>/|u|^2

in the rescaled time ds = e^l dt (Berger & Kohn, "A rescaling algorithm
for the numerical calculation of blowing-up solutions", CPAM 41, 1988).
The choice of g keeps |u| constant, so u starts as the unit vector of
the initial state.  Finite-time blow-up of y becomes convergence of u,
linear growth of l and convergence of t, which an explicit method
follows in a few hundred steps instead of about 80 steps per decade of
|y| in t-time.

The stepper is the Dormand-Prince 5(4) pair on z = (u, l, t): the
fifth-order solution is propagated, the embedded fourth-order solution
drives the error estimate, and the first-same-as-last property saves one
derivative evaluation per step.  Every stage takes its projected field
from ``_projected``, which writes F out in the operand order of
``eigen_ode.rhs_array``; a test pins the two copies together bit for
bit.  The error norm is the RMS over the five components, each scaled
by its own tolerance: abs_tol + rel_tol * max(|u_i|, |u1_i|) for u,
rel_tol for l (an error in l is a relative error in y), and abs_tol +
rel_tol * max(|t|, |t1|) for t.
Step sizes in s follow a proportional-integral controller (alpha =
0.7/5, beta = 0.4/5, safety 0.9, factors clamped to [0.2, 10]).  Each
accepted step keeps its stage derivatives; when the trajectory ends,
the quartic dense interpolant of Shampine for the pair is formed for all
steps at once.

The clock t is the one component whose quadrature would decide the
result: near blow-up e^(-l) decays by a factor e^rise over a step, the
pair's quadrature of it errs by 1.6e-5 rise^6 of the step's t-increment
in one direction, and summed over the steps that error lands past the
blow-up time.  So where that error exceeds the one it would bring in, a
step's t-increment is split with its mean l-rate G = rise/h as

    e^(-l0) (1 - e^(-rise))/G + int e^(-l) (1 - g/G) ds,

whose first part is exact and whose integrand vanishes as g settles.
The dense clock has the same form, t(sigma) - t0 = -A expm1(l0 -
l(sigma)) + sigma D(sigma) with A = e^(-l0)/G (A = 0 for a plain step).

A trajectory is still read in t: ``times`` and ``states_array`` hold t
and y = e^l u at the accepted nodes.  ``eval_many`` finds the step that
covers each time, solves t(sigma) = t on that step's clock by two
guarded Newton steps from the sigma of an exponential clock, and returns
e^l(sigma) u(sigma); a node's row is copied from ``states_array``
without the clock inversion.  ``_read_lanes`` reads a block of lanes at
fixed step fractions instead, where t comes from the clock formula.

Terminal rules:

* a step is sized to add no more than max_step, or what is left to
  t_end, to t at the l-rate of its start held fixed.  A step sized to
  t_end is set on exactly t_end if it ends within the rounding of its
  t-increment of it (``reached_end``); one that falls short is accepted
  at its own time, and the next step is sized to the remainder;
* a step that passes t_end all the same is retried at the sigma where
  its clock reaches t_end, and one whose t-increment exceeds max_step at
  0.9 of the cap, the controller's safety; the node is never moved to a
  time its state was not integrated to;
* an accepted state past ``blowup_norm`` in sup-norm ends the trajectory
  with a blow-up record (``norm_exceeded``);
* a step that no longer advances the float t ends it as a blow-up with
  ``step_collapse`` set, so ``times`` stays strictly increasing;
* a step whose e^l u or error estimate is not finite is rejected and
  retried at a quarter of the step;
* the state 0 is a fixed point, and a state below 1e-300 in sup-norm
  does not move in floating point (its field underflows): both return a
  constant trajectory.

The integrator knows nothing about cones or pinching functions.  Event
functions (``cone_sets.standard_trigger_events`` gives the regions'
triggers) are generic ``g(t, lam, mu, nu)`` callables, read after the
steps are taken: each is evaluated once per node, and its sign changes
across a step are refined by bisection in sigma on the step's stored
coefficients to 1e-10 in t, or to 1e-6 of the step's length in a step
shorter than 1e-4, so that two crossings inside one short step stay
apart and in order.  A step from a nonzero value to exactly 0
crosses in either direction; one that starts at 0 does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .eigen_ode import EigenTriple, FlowParams, rhs_array
from .errors import DomainError, OutOfRange

__all__ = [
    "IntegratorConfig",
    "TerminalStatus",
    "EventRecord",
    "Trajectory",
    "integrate",
    "REACHED_END",
    "BLOWUP",
    "STEP_LIMIT",
]

REACHED_END = "reached_end"
BLOWUP = "blowup"
STEP_LIMIT = "step_limit"

# Dormand-Prince 5(4) tableau; the projective field is autonomous, so the
# stage times (the c nodes) never enter
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
# rows of _P for the stages with nonzero weights, k1 and k3..k7, each
# shaped (4, 1) to broadcast against a row of one stage's derivatives
_P_USED = np.array([_P[i] for i in (0, 2, 3, 4, 5, 6)])[:, :, None]

_SAFETY = 0.9
_ALPHA = 0.7 / 5.0  # PI proportional exponent
_BETA = 0.4 / 5.0  # PI integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# Newton steps on t(sigma) = t; measured on 42 X-band, estimate and mixed
# trajectories at the default and at 1e-6 tolerances, 20 times per step,
# they leave at worst 1.5e-7, 2.0e-14 and 3.9e-16 of the step's
# t-increment.  Two put a time within 1e-13 of its step, four orders
# below the interpolant's own error at the default tolerances; a third
# would cost about a fifth of a small batch's evaluation
_NEWTON_STEPS = 2
# relative error of the pair's quadrature of e^(-rise sigma) over a step,
# per rise^6 (measured: 1.63e-11 at rise 0.1, 4.37e-9 at 0.3)
_QUAD = 1.6e-5
# the rounding of a step's t-increment, a sum of seven products weighted
# by up to 1.64 in all, and of t + increment, in ulps of max(|t|, |t_end|),
# with room: a retried step that ends this close to t_end lands on it.
# Below it the retried step's t1 moves by rounding alone, not with sigma
_LAND_ULPS = 32
# below this sup-norm the field underflows and the state cannot move
_TINY = 1e-300


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
        # an infinite tolerance accepts every step: no error control at all
        if math.isinf(self.rel_tol) or math.isinf(self.abs_tol):
            raise DomainError("tolerances must be finite")
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
    step_collapse  a step no longer advanced the floating-point time
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


def _horner(c, sig):
    """Quartic with coefficients c[0..4] (first axis) at sigma."""
    return c[0] + sig * (c[1] + sig * (c[2] + sig * (c[3] + sig * c[4])))


# multiplies the sigma^1..sigma^4 coefficients of a quartic to give those
# of its derivative, sigma^0..sigma^3
_DERIVE = np.array([1.0, 2.0, 3.0, 4.0])[:, None]


def _sigma_at(c: np.ndarray, t0, t1, ts) -> np.ndarray:
    """Step fractions at which the clocks of steps [t0, t1] reach ``ts``;
    ``c`` (5, 5, m) holds each step's coefficients, coefficient first.

    Starts from the sigma at which a clock with l linear in sigma would
    reach ts, then takes _NEWTON_STEPS Newton steps on t(sigma) - t0,
    each skipped where the slope is not positive and clamped to [0, 1].
    Every row depends on its own inputs only.
    """
    amp, ln, tq = c[0, 4], -c[1:, 3], c[1:, 4]  # sigma^1..4 of l0 - l and t - t0
    # l0 - l and t - t0 over sigma, then their derivatives, the first
    # times the clock amplitude: (coefficient, row, m)
    polys = np.empty((4, 4, c.shape[2]))
    polys[:, 0], polys[:, 1] = ln, tq
    polys[:, 2], polys[:, 3] = ln * _DERIVE * amp, tq * _DERIVE
    rise = ts - t0
    r = rise / (t1 - t0)
    drop = ln[0] + ln[1] + ln[2] + ln[3]  # l0 - l at the end of the step
    # the guards below discard the quotients that raise these
    with np.errstate(divide="ignore", invalid="ignore"):
        # r expm1(drop) = -1 only at r = 1 of a step whose e^drop rounds
        # to 0, where log1p gives -inf and sigma clamps to 1
        sig = np.where(drop != 0.0, np.log1p(r * np.expm1(drop)) / drop, r)
        for _ in range(_NEWTON_STEPS):
            sig = np.fmin(np.fmax(sig, 0.0), 1.0)
            nl, tq, nslope, tslope = polys[0] + sig * (polys[1] + sig * (polys[2] + sig * polys[3]))
            em = np.expm1(sig * nl)
            slope = tslope - (1.0 + em) * nslope
            sig = sig - np.where(slope > 0.0, (sig * tq - amp * em - rise) / slope, 0.0)
    return np.fmin(np.fmax(sig, 0.0), 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Result of one integration; immutable, arrays frozen read-only.

    times        accepted step times, strictly increasing, times[0] = t0
    states_array (len(times), 3) accepted states y = e^l u
    dense        (steps, 5, 5) coefficients in the step fraction sigma:
                 rows 0-3 are the quartics u(sigma) and l(sigma), column
                 j multiplying sigma^j; row 4 is the clock, t(sigma) - t0
                 = -A expm1(l0 - l(sigma)) + sigma D(sigma) with A in
                 column 0 and the quartic sigma D(sigma) in columns 1-4
    terminal     how integration ended
    events       recorded sign crossings of the registered event functions
    """

    times: np.ndarray
    states_array: np.ndarray
    dense: np.ndarray
    terminal: TerminalStatus
    events: tuple[EventRecord, ...] = ()
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])

    def eval_many(self, ts) -> np.ndarray:
        """Dense evaluation at a time or an array of times, (*ts.shape, 3),
        by the rules of the module docstring.  Each row depends on its own
        time only, so a batch gives the rows, bit for bit, of one call per
        time.  A time outside [t_start, t_last], NaN and infinities
        included, raises OutOfRange."""
        ts = np.asarray(ts, dtype=float)
        t = ts.ravel()
        # written so that NaN, for which every comparison is False, fails
        if t.size and not (t.min() >= self.times[0] and t.max() <= self.times[-1]):
            raise OutOfRange(
                f"evaluation times must be finite and lie in "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        # in range, so every time has a first node at or after it
        end = self.times.searchsorted(t)
        # nodes keep their state, a fresh copy; only a time off the nodes,
        # inside the step that ends at node ``end``, pays for the clock inversion
        out = self.states_array[end]
        off = (self.times[end] != t).nonzero()[0]
        if off.size:
            end = end[off]
            step = end - 1
            # coefficient, component, point: every operand below is contiguous
            c = np.ascontiguousarray(self.dense[step].transpose(2, 1, 0))
            sig = _sigma_at(c, self.times[step], self.times[end], t[off])
            y = _horner(c[:, :4], sig)
            out[off] = (np.exp(y[3]) * y[:3]).T
        return out.reshape(*ts.shape, 3)


def _read_lanes(trajs: Sequence[Trajectory]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node of a block of trajectories and the points at sigma =
    1/4, 1/2, 3/4 of every step, lane after lane and in step order: their
    times, rows (points, 3) and each lane's count, nodes + 3 steps.

    Nodes are copied from ``times`` and ``states_array``.  At a fraction
    the row is e^l(sigma) u(sigma), one Horner pass on the step's
    coefficients, and t = t_k + sigma D(sigma) - A expm1(l_k - l(sigma)):
    no clock is inverted.  Each point depends on its own step only, so a
    block gives the points, bit for bit, of one call per lane.
    """
    nodes = np.array([len(traj.times) for traj in trajs])
    counts = 4 * nodes - 3
    lanes = np.arange(len(trajs))
    ts = np.empty(counts.sum())
    rows = np.empty((len(ts), 3))
    # node g of the block, in lane i, has 4g points before it less the
    # three that each earlier lane's last node, which starts no step, lacks
    at = 4 * np.arange(nodes.sum()) - 3 * np.repeat(lanes, nodes)
    ts[at] = np.concatenate([traj.times for traj in trajs])
    rows[at] = np.concatenate([traj.states_array for traj in trajs])
    # the block's step s, in lane i, starts from its node s + i: point 4s + i
    start = 4 * np.arange(nodes.sum() - len(trajs)) + np.repeat(lanes, nodes - 1)
    t0 = ts[start]
    # coefficient, component, step
    c = np.concatenate([traj.dense.T for traj in trajs], axis=2)
    ln, tq = c[1:, 3], c[1:, 4]  # sigma^1..4 of l - l_k and of sigma D(sigma)
    for j, sig in enumerate((0.25, 0.5, 0.75), 1):
        y = _horner(c[:, :4], sig)
        rows[start + j] = (np.exp(y[3]) * y[:3]).T
        rise = sig * (ln[0] + sig * (ln[1] + sig * (ln[2] + sig * ln[3])))
        ts[start + j] = t0 + (sig * (tq[0] + sig * (tq[1] + sig * (tq[2] + sig * tq[3])))
                              - c[0, 4] * np.expm1(-rise))
    return ts, rows, counts


def _initial_step(u, f) -> float:
    """Cheap starting-step heuristic in s: a hundredth of the unit
    state's own time scale |u|/|F(u)|; the controller corrects it within
    a few steps."""
    nu = max(abs(u[0]), abs(u[1]), abs(u[2]))
    nf = max(abs(f[0]), abs(f[1]), abs(f[2]))
    if nf <= 1e-300 or nu <= 1e-300:
        return 1e-6
    return min(1.0, 0.01 * nu / nf)


def _dense_weights(starts: np.ndarray, hs: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """Coefficients (steps, 5, 5) from the step starts (steps, 5) of u,
    l and the clock amplitude A, the step sizes in s (steps,) and the
    stage derivatives (steps, 6, 5) of u, l and the clock integrand at
    k1, k3, k4, k5, k6, k7 (k2 has weight 0).

    The products are summed in stage order, so the weights of one step
    come out the same whether it is formed alone or in a batch of steps.
    Each stage's derivatives are read as one contiguous row, and each
    product broadcasts that row against the stage's four weights.
    """
    s = np.ascontiguousarray(stages.transpose(1, 0, 2)).reshape(6, -1)
    q = _P_USED[0] * s[0]
    for i in range(1, 6):
        q += _P_USED[i] * s[i]
    q *= np.repeat(hs, 5)
    out = np.empty((len(hs), 5, 5))
    out[..., 0] = starts
    out[..., 1:] = q.reshape(4, -1, 5).transpose(1, 2, 0)
    return out


def _projected(l, m, n, rho):
    """The projected field k = F(u) - g u at u = (l, m, n) and the l-rate
    g = <u, F(u)>/|u|^2: (kl, km, kn, g).  Raises ZeroDivisionError at
    u = 0.

    F is written out here, in the operand order of eigen_ode.rhs_array,
    so that a stage costs one Python call; a test pins the two copies
    together bit for bit."""
    t4 = 4.0 * rho * (l + m + n)
    fl = 2.0 * l * l + 2.0 * m * n - t4 * l
    fm = 2.0 * m * m + 2.0 * l * n - t4 * m
    fn = 2.0 * n * n + 2.0 * l * m - t4 * n
    g = (l * fl + m * fm + n * fn) / (l * l + m * m + n * n)
    return fl - g * l, fm - g * m, fn - g * n, g


def _locate_event(g, g0, t_lo, t_hi, q) -> float:
    """Bisect the sign change of ``g`` across the step [t_lo, t_hi] in
    sigma on its coefficients ``q`` (5 rows of 5) to 1e-10 in t, or to
    1e-6 of the step's length when that is finer."""
    t0 = t_lo
    tol = min(1e-10, 1e-6 * (t_hi - t_lo))
    (l0, l1, l2, l3, l4), (amp, d1, d2, d3, d4) = q[3], q[4]
    lo, hi = 0.0, 1.0
    glo = g0
    while t_hi - t_lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        ul, um, un = (_horner(c, mid) for c in q[:3])
        # the clock of Trajectory.dense: sigma D(sigma) - A expm1(l0 - l)
        dl = mid * (l1 + mid * (l2 + mid * (l3 + mid * l4)))
        tm = t0 + (mid * (d1 + mid * (d2 + mid * (d3 + mid * d4))) - amp * math.expm1(-dl))
        scale = math.exp(l0 + dl)
        gm = g(tm, scale * ul, scale * um, scale * un)
        if (gm < 0.0) == (glo < 0.0):
            lo, glo, t_lo = mid, gm, tm
        else:
            hi, t_hi = mid, tm
    return 0.5 * (t_lo + t_hi)


def _constant_trajectory(y0, t0, t_end) -> Trajectory:
    """The exact solution of a state that cannot move: one step with
    u = y0 at l = 0 and a linear clock."""
    dense = np.zeros((1, 5, 5))
    dense[0, :3, 0] = y0
    dense[0, 4, 1] = t_end - t0
    arrays = (np.array([t0, t_end]), np.array([y0, y0]), dense)
    for a in arrays:
        a.setflags(write=False)
    return Trajectory(
        times=arrays[0],
        states_array=arrays[1],
        dense=arrays[2],
        terminal=TerminalStatus(REACHED_END),
        stats={"accepted": 0, "rejected": 0, "rhs_evals": 1},
    )


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
    passes ``config.blowup_norm`` or the time stops advancing, or with a
    step-limit record when ``config.max_steps`` attempts are exhausted.
    No clamping or re-sorting is ever applied to the evolving state.
    """
    cfg = config or IntegratorConfig()
    events = tuple(events)
    if not t_end > t0:
        raise ValueError(f"t_end must exceed t0, got [{t0}, {t_end}]")
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    max_step, blowup_norm = cfg.max_step, cfg.blowup_norm
    isfinite, exp, expm1, log1p = math.isfinite, math.exp, math.expm1, math.log1p
    y0 = tuple(map(float, state.as_tuple()))
    t = float(t0)
    big = max(abs(y0[0]), abs(y0[1]), abs(y0[2]))
    if big < _TINY:
        return _constant_trajectory(y0, t, float(t_end))
    # u = y/|y| and l = log|y|, formed without overflow or underflow
    vl, vm, vn = y0[0] / big, y0[1] / big, y0[2] / big
    r = math.sqrt(vl * vl + vm * vm + vn * vn)
    ul, um, un = vl / r, vm / r, vn / r
    ell = math.log(big) + math.log(r)
    scale, clock = big * r, exp(-ell)  # e^l and dt/ds = e^(-l)

    times = [t]
    states = list(y0)
    starts: list[float] = []  # u, l and the clock amplitude of every accepted step
    hs: list[float] = []
    stages: list[float] = []  # k1, k3..k7 of every accepted step, 5 each

    # the tableau as locals: the loop body reads each entry at every step
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    rho = params.rho
    k1l, k1m, k1n, g1 = _projected(ul, um, un, rho)
    h = _initial_step((ul, um, un), rhs_array(ul, um, un, rho))
    err_prev = 1e-4
    terminal = None
    landing = False  # this attempt was sized to end on t_end
    naccept = nreject = 0

    for _ in range(cfg.max_steps):
        if not landing:
            # the step that adds max_step, or what is left to t_end, to t
            # at the l-rate g1 held fixed; one sized to t_end lands on it
            dt = t_end - t if t_end - t < max_step else max_step
            x = dt * g1 * scale
            if x < 1.0:
                hc = dt * scale if x == 0.0 else -log1p(-x) / g1
                if hc <= h:
                    h, landing = hc, dt == t_end - t
        try:
            ha = h * a21
            k2l, k2m, k2n, g2 = _projected(ul + ha * k1l, um + ha * k1m, un + ha * k1n, rho)

            al = ul + h * (a31 * k1l + a32 * k2l)
            am = um + h * (a31 * k1m + a32 * k2m)
            an = un + h * (a31 * k1n + a32 * k2n)
            k3l, k3m, k3n, g3 = _projected(al, am, an, rho)
            d3 = exp(-h * (a31 * g1 + a32 * g2))

            al = ul + h * (a41 * k1l + a42 * k2l + a43 * k3l)
            am = um + h * (a41 * k1m + a42 * k2m + a43 * k3m)
            an = un + h * (a41 * k1n + a42 * k2n + a43 * k3n)
            k4l, k4m, k4n, g4 = _projected(al, am, an, rho)
            d4 = exp(-h * (a41 * g1 + a42 * g2 + a43 * g3))

            al = ul + h * (a51 * k1l + a52 * k2l + a53 * k3l + a54 * k4l)
            am = um + h * (a51 * k1m + a52 * k2m + a53 * k3m + a54 * k4m)
            an = un + h * (a51 * k1n + a52 * k2n + a53 * k3n + a54 * k4n)
            k5l, k5m, k5n, g5 = _projected(al, am, an, rho)
            d5 = exp(-h * (a51 * g1 + a52 * g2 + a53 * g3 + a54 * g4))

            al = ul + h * (a61 * k1l + a62 * k2l + a63 * k3l + a64 * k4l + a65 * k5l)
            am = um + h * (a61 * k1m + a62 * k2m + a63 * k3m + a64 * k4m + a65 * k5m)
            an = un + h * (a61 * k1n + a62 * k2n + a63 * k3n + a64 * k4n + a65 * k5n)
            k6l, k6m, k6n, g6 = _projected(al, am, an, rho)
            d6 = exp(-h * (a61 * g1 + a62 * g2 + a63 * g3 + a64 * g4 + a65 * g5))

            u1l = ul + h * (b1 * k1l + b3 * k3l + b4 * k4l + b5 * k5l + b6 * k6l)
            u1m = um + h * (b1 * k1m + b3 * k3m + b4 * k4m + b5 * k5m + b6 * k6m)
            u1n = un + h * (b1 * k1n + b3 * k3n + b4 * k4n + b5 * k5n + b6 * k6n)
            rise = h * (b1 * g1 + b3 * g3 + b4 * g4 + b5 * g5 + b6 * g6)
            k7l, k7m, k7n, g7 = _projected(u1l, u1m, u1n, rho)
            d7 = exp(-rise)
            ell1 = ell + rise
            scale1 = exp(ell1)
        except (OverflowError, ZeroDivisionError):
            # e^(+-l) out of the float range, or a stage u at the origin
            nreject += 1
            h *= 0.25
            landing = False
            continue

        el = h * (e1 * k1l + e3 * k3l + e4 * k4l + e5 * k5l + e6 * k6l + e7 * k7l)
        em = h * (e1 * k1m + e3 * k3m + e4 * k4m + e5 * k5m + e6 * k6m + e7 * k7m)
        en = h * (e1 * k1n + e3 * k3n + e4 * k4n + e5 * k5n + e6 * k6n + e7 * k7n)
        eg = h * (e1 * g1 + e3 * g3 + e4 * g4 + e5 * g5 + e6 * g6 + e7 * g7)

        # The clock, dt/ds = e^(-l): its plain quadrature errs by _QUAD
        # rise^6 of the step's t-increment, always in one direction.  The
        # split with amplitude A = e^(-l0) h/rise (module docstring) cuts
        # that, but divides an error in l by rise; it is taken where the
        # quadrature error exceeds the l error estimate over rise.
        amp = clock * h / rise if _QUAD * abs(rise) ** 7 > abs(eg) else 0.0
        c1 = clock - amp * g1
        c3, c4, c5 = d3 * (clock - amp * g3), d4 * (clock - amp * g4), d5 * (clock - amp * g5)
        c6, c7 = d6 * (clock - amp * g6), d7 * (clock - amp * g7)
        t1 = t + (h * (b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6) - amp * expm1(-rise))
        # the embedded l moves the split's exact part by A e^(-rise) eg
        et = h * (e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7) + amp * d7 * eg
        y1l, y1m, y1n = scale1 * u1l, scale1 * u1m, scale1 * u1n

        if not (
            isfinite(y1l) and isfinite(y1m) and isfinite(y1n) and isfinite(t1)
            and isfinite(el) and isfinite(em) and isfinite(en)
            and isfinite(eg) and isfinite(et)
        ):
            nreject += 1
            h *= 0.25
            landing = False
            continue
        # RMS over u, l and t of the error, each scaled by its tolerance;
        # each max(|a|, |b|) is written as a conditional expression, which
        # costs less than a call of max
        pl, pm, pn, ql, qm, qn = abs(ul), abs(um), abs(un), abs(u1l), abs(u1m), abs(u1n)
        rl = el / (atol + rtol * (pl if pl >= ql else ql))
        rm = em / (atol + rtol * (pm if pm >= qm else qm))
        rn = en / (atol + rtol * (pn if pn >= qn else qn))
        rg = eg / rtol
        # t1 clipped to [t, t_end]: a wild claimed t1 must not widen its
        # own tolerance
        pt, qt = abs(t), abs(t if t1 < t else t1 if t1 < t_end else t_end)
        rt = et / (atol + rtol * (pt if pt >= qt else qt))
        err = math.sqrt((rl * rl + rm * rm + rn * rn + rg * rg + rt * rt) / 5.0)
        if err > 1.0:  # reject
            nreject += 1
            h *= min(1.0, max(_FAC_MIN, _SAFETY * err ** -0.2))
            landing = False
            continue

        step = (
            k1l, k1m, k1n, g1, c1, k3l, k3m, k3n, g3, c3, k4l, k4m, k4n, g4, c4,
            k5l, k5m, k5n, g5, c5, k6l, k6m, k6n, g6, c6, k7l, k7m, k7n, g7, c7,
        )
        if landing:
            landing = False
            # a step sized to t_end that ends within the rounding of its
            # own t-increment of it is put on it; one that falls short is
            # taken at its own t1
            if abs(t1 - t_end) <= _LAND_ULPS * math.ulp(max(abs(t), abs(t_end))):
                t1 = t_end
        if t1 > t_end or t1 - t > max_step:
            # retry at the sigma where this step's clock reaches t_end, or
            # 0.9 of the max_step cap
            landing = t_end - t <= max_step
            c = _dense_weights(np.array([(ul, um, un, ell, amp)]), np.array([h]),
                               np.array(step).reshape(1, 6, 5)).transpose(2, 1, 0)
            target = t_end if landing else t + _SAFETY * max_step
            h *= float(_sigma_at(c, 0.0, t1 - t, target - t)[0])
            nreject += 1
            continue
        if t1 <= t:
            # the clock no longer moves: only a blow-up gets here
            terminal = TerminalStatus(BLOWUP, t_est=t, step_collapse=True)
            break

        stages.extend(step)
        starts.extend((ul, um, un, ell, amp))
        hs.append(h)
        times.append(t1)
        states.extend((y1l, y1m, y1n))
        naccept += 1

        ul, um, un, ell, t = u1l, u1m, u1n, ell1, t1
        scale, clock = scale1, exp(-ell1)
        k1l, k1m, k1n, g1 = k7l, k7m, k7n, g7  # first-same-as-last

        if abs(y1l) > blowup_norm or abs(y1m) > blowup_norm or abs(y1n) > blowup_norm:
            terminal = TerminalStatus(BLOWUP, t_est=t, norm_exceeded=True)
            break
        if t >= t_end:
            terminal = TerminalStatus(REACHED_END)
            break

        if err == 0.0:
            factor = _FAC_MAX
        else:
            factor = _SAFETY * err ** -_ALPHA * err_prev ** _BETA
        # the factor clamped to [_FAC_MIN, _FAC_MAX] and err floored at
        # 1e-10, as conditional expressions like the error norm's maxima
        h *= _FAC_MAX if factor >= _FAC_MAX else factor if factor > _FAC_MIN else _FAC_MIN
        err_prev = err if err >= 1e-10 else 1e-10
    else:
        terminal = TerminalStatus(STEP_LIMIT)

    # np.fromiter with the length given reads a list of floats in half the
    # time of np.array
    times_a = np.fromiter(times, float, len(times))
    states_a = np.fromiter(states, float, len(states)).reshape(-1, 3)
    stages_a = np.fromiter(stages, float, len(stages)).reshape(-1, 6, 5)
    stages.clear()  # release the float objects before the weights are formed
    dense_a = _dense_weights(np.fromiter(starts, float, len(starts)).reshape(-1, 5),
                             np.fromiter(hs, float, len(hs)), stages_a)
    for a in (times_a, states_a, dense_a):
        a.setflags(write=False)
    recs: list[EventRecord] = []
    if events:
        # each event function once per node, then each crossing bisected on
        # its step's stored coefficients; a step from a nonzero value to 0
        # crosses, one that starts at 0 does not, so a touch counts once
        values = [[g(t, *y) for _, g in events] for t, y in zip(times, states_a.tolist())]
        for k, (ev0, ev1) in enumerate(zip(values, values[1:])):
            q = None
            for (name, g), g0, gv in zip(events, ev0, ev1):
                if isfinite(g0) and isfinite(gv) and (g0 > 0.0 >= gv or g0 < 0.0 <= gv):
                    q = q or dense_a[k].tolist()
                    t_cross = _locate_event(g, g0, times[k], times[k + 1], q)
                    recs.append(EventRecord(name, t_cross, +1 if gv > g0 else -1))
    return Trajectory(
        times=times_a,
        states_array=states_a,
        dense=dense_a,
        terminal=terminal,
        events=tuple(recs),
        stats={
            "accepted": naccept,
            "rejected": nreject,
            "rhs_evals": 1 + 6 * (naccept + nreject),
        },
    )
