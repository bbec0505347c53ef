"""The benchmark's three workloads.

Each workload turns a pass seed into a list of operations.  An
operation is one call into pinchlab's public API, timed on its own by
the caller, plus a check of the verdict that call returned.  Passes run
as a closed loop: one caller, each call waiting for the previous one.

Every function of the package is reached through its module attribute
at call time (``verifier.check_invariance``, never a name imported
from it), so the tracing wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pinchlab import cli, cone_sets, pinch_functions, verifier
from pinchlab.cone_sets import SetKind, SetSpec
from pinchlab.eigen_ode import EigenTriple, FlowParams
from pinchlab.pinch_functions import EstimateVariant
from pinchlab.verifier import InequalityKind

TOL = 1e-8  # drift and slack tolerance of the invariance and estimate claims


@dataclass
class Op:
    """One timed call and the check of its verdict.

    ``check(result)`` returns None when the verdict is right, otherwise
    a one-line reason.  ``work`` is what the call processes: trajectories
    on ``ensemble`` and ``single``, points on ``kernels``.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: int | Callable[[Any], int]

    def done(self, result) -> int:
        return self.work(result) if callable(self.work) else self.work


class Workload:
    """A workload's operations for one pass seed, plus its hooks."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def end_pass(self, seed: int) -> None:
        """Called after each pass, once its verdicts are checked."""

    def finish(self) -> list[str | None]:
        """Checks that span the whole run: one entry per check, None
        when it passed, otherwise the reason it failed."""
        return []

    def notes(self) -> list[str]:
        """Findings to print with the run that are not failures."""
        return []


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run; every pass draws fresh inputs."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ----------------------------------------------------------------------
# ensemble: many trajectories behind a few verdicts

X_SPEC = SetSpec(SetKind.RICCI_LOG_STATIC, FlowParams(rho=-1.0))
W_SPEC = SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, FlowParams(rho=-1.0))
Y_SPEC = SetSpec(SetKind.SECTIONAL_LOG_NONNEG_RICCI, FlowParams(rho=-0.5, eta=1.0, theta=1.0))
K_SPEC = SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=0.1, eta=-4.0, theta=1.0))
# K outside its claimed window: known to drift out, so it must fail
K_NEGATIVE = SetSpec(SetKind.SECTIONAL_LOG, FlowParams(rho=-0.5, eta=1.0))
ESTIMATES = (
    (EstimateVariant.NEG_RHO_SCALAR, FlowParams(rho=-1.0)),
    (EstimateVariant.NEG_RHO_SECTIONAL, FlowParams(rho=-0.5, eta=1.0)),
    (EstimateVariant.NONNEG_RHO, FlowParams(rho=0.0)),
    (EstimateVariant.NONNEG_RHO, FlowParams(rho=0.2)),
)
HORIZON = 0.05


def _holds(rep) -> str | None:
    if not rep.claimed:
        return f"{rep.spec.kind.value} did not run as a claim"
    if rep.worst_drift < -rep.tol:
        return f"{rep.spec.kind.value} drifted to {rep.worst_drift!r} (sample {rep.violating_seed})"
    return None


def _detects_fault(rep) -> str | None:
    if rep.worst_drift < -rep.tol:
        return None
    return f"negative control missed: worst drift {rep.worst_drift!r} >= -{rep.tol}"


def _estimate_holds(rep) -> str | None:
    if rep.worst_slack < -rep.tol:
        return f"{rep.variant.value} slack {rep.worst_slack!r} (trajectory {rep.violating_seed})"
    if rep.min_coverage < 0.9:
        return f"{rep.variant.value} coverage {rep.min_coverage!r} < 0.9"
    return None


class Ensemble(Workload):
    """Criterion-06 invariance windows, a negative control and the
    criterion-07 estimate suites at a fraction of acceptance size."""

    name = "ensemble"
    INVARIANCE = ((X_SPEC, 12), (W_SPEC, 12), (Y_SPEC, 12), (K_SPEC, 24))
    # at a measured 13-22 failing samples in 300, 200 samples miss the
    # fault with probability below 2e-4
    NEGATIVE_SAMPLES = 200
    ESTIMATE_COUNT = 6

    def ops(self, seed: int) -> list[Op]:
        out = [
            Op(f"invariance {spec.kind.value}",
               lambda spec=spec, n=n: verifier.check_invariance(spec, n, HORIZON, seed, tol=TOL),
               _holds, n)
            for spec, n in self.INVARIANCE
        ]
        out += [
            Op(f"estimate {variant.value} rho={params.rho}",
               lambda v=variant, p=params: verifier.estimate_suite(
                   v, p, self.ESTIMATE_COUNT, seed, tol=TOL),
               _estimate_holds, self.ESTIMATE_COUNT)
            for variant, params in ESTIMATES
        ]
        return out

    def warm_up(self) -> None:
        verifier.check_invariance(K_SPEC, 2, HORIZON, 0, tol=TOL)
        verifier.check_invariance(X_SPEC, 1, HORIZON, 0, tol=TOL)
        verifier.estimate_suite(*ESTIMATES[2], 1, 0, tol=TOL)

    def finish(self) -> list[str | None]:
        """The negative control, once per run at the run's own seed: it
        must report the drift out of K that is known to happen there."""
        return [_detects_fault(verifier.check_invariance(
            K_NEGATIVE, self.NEGATIVE_SAMPLES, HORIZON, self.seed, tol=TOL))]


# ----------------------------------------------------------------------
# single: in-process CLI calls on the one-lane latency path


def _exit_zero(rc) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def _svg_ok(path: Path) -> str | None:
    text = path.read_text()
    if text.startswith("<svg") and text.rstrip().endswith("</svg>"):
        return None
    return f"{path.name} is not an SVG document"


def _claim_ok(path: Path) -> str | None:
    report = json.loads(path.read_text())["report"]
    if not report["claimed"]:
        return "verify-set did not run as a claim"
    drift = float(report["worst_drift"])
    return None if drift >= -float(report["tol"]) else f"drift {drift!r}"


class Single(Workload):
    """``simulate`` and ``plot`` per seeded start, ``deriv-check`` for
    both quantities and one small ``verify-set``, all through
    ``pinchlab.cli.main`` with outputs written to files."""

    name = "single"
    SIMULATIONS = 12
    POINTS = 201
    DERIV_TRAJECTORIES = 20  # the command's default, pinned as an input
    VERIFY_SAMPLES = 4
    DERIV_ARGS = (
        ("lambda-pinch", ["--rho=-1"]),
        ("xi-pinch", ["--rho=0.1", "--eta=-4", "--theta=1"]),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.first: tuple[int, dict[str, bytes]] | None = None
        self.deriv_over_tol = 0
        self.deriv_calls = 0

    def _calls(self, seed: int, out: Path) -> list[tuple[str, list[str], int, Callable]]:
        """(label, argv, trajectories, check) of one pass, outputs under ``out``."""
        rng = np.random.Generator(np.random.PCG64(seed))
        calls = []
        for i in range(self.SIMULATIONS):
            state = np.sort(rng.uniform(-1.5, 1.5, size=3))[::-1]
            rho = rng.uniform(-1.0, 0.2)
            csv_path, svg_path = out / f"sim{i}.csv", out / f"sim{i}.svg"
            calls.append(("simulate", [
                "simulate", "--state=" + ",".join(repr(float(v)) for v in state),
                f"--rho={rho!r}", "--t-end=0.05", f"--points={self.POINTS}",
                f"--out={csv_path}",
            ], 1, lambda rc, path=csv_path: _exit_zero(rc) or self._csv_ok(path)))
            calls.append(("plot", [
                "plot", f"--in={csv_path}", "--columns=R,lambda,ric_min", f"--out={svg_path}",
            ], 0, lambda rc, path=svg_path: _exit_zero(rc) or _svg_ok(path)))
        for quantity, params in self.DERIV_ARGS:
            path = out / f"deriv-{quantity}.json"
            calls.append((f"deriv-check {quantity}", [
                "deriv-check", f"--quantity={quantity}", *params, f"--seed={seed}",
                f"--trajectories={self.DERIV_TRAJECTORIES}", f"--out={path}",
            ], self.DERIV_TRAJECTORIES, lambda rc, path=path: self._deriv_ok(rc, path)))
        path = out / "verify-X.json"
        calls.append(("verify-set", [
            "verify-set", "--set=X", "--rho=-1", f"--samples={self.VERIFY_SAMPLES}",
            f"--horizon={HORIZON}", f"--seed={seed}", f"--out={path}",
        ], self.VERIFY_SAMPLES, lambda rc, path=path: _exit_zero(rc) or _claim_ok(path)))
        return calls

    def _csv_ok(self, path: Path) -> str | None:
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        if rows[0] != cli.CSV_HEADER or len(rows) != self.POINTS + 1:
            return f"{path.name}: {len(rows)} lines, header {rows[0]!r}"
        return None

    def _deriv_ok(self, rc, path: Path) -> str | None:
        """The identity holds when the discrepancy decays like h^2, and the
        exit code must agree with the reported discrepancy and tolerance."""
        doc = json.loads(path.read_text())
        over = float(doc["report"]["max_discrepancy"]) > float(doc["meta"]["tol"])
        self.deriv_calls += 1
        self.deriv_over_tol += over
        if rc != int(over):
            return f"exit code {rc} but discrepancy over tol is {over}"
        ratio = float(doc["report"]["decay_ratio"])
        return None if 2.5 < ratio < 6.0 else f"decay ratio {ratio!r} outside (2.5, 6)"

    def ops(self, seed: int) -> list[Op]:
        out = self.workdir / f"pass-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if self.first is None:
            self.first = (seed, {})
        return [
            Op(label, lambda argv=argv: cli.main(argv), check, trajectories)
            for label, argv, trajectories, check in self._calls(seed, out)
        ]

    def end_pass(self, seed: int) -> None:
        """Keep the first pass's outputs for the rerun check, drop the rest."""
        out = self.workdir / f"pass-{seed}"
        first_seed, saved = self.first
        if seed == first_seed and not saved:
            saved.update({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        shutil.rmtree(out)

    def finish(self) -> list[str | None]:
        """Rerun the first pass's commands and require identical bytes."""
        seed, saved = self.first
        out = self.workdir / "rerun"
        out.mkdir(parents=True)
        for _, argv, _, _ in self._calls(seed, out):
            cli.main(argv)
        changed = [name for name, data in saved.items() if (out / name).read_bytes() != data]
        shutil.rmtree(out)
        return [f"rerun of the first pass changed {', '.join(changed)}" if changed else None]

    def notes(self) -> list[str]:
        return [
            f"known finding: deriv-check reported a discrepancy above its "
            f"tolerance (exit 1) in {self.deriv_over_tol} of {self.deriv_calls} calls"
        ]

    def warm_up(self) -> None:
        out = self.workdir / "warm-up"
        out.mkdir(parents=True, exist_ok=True)
        cli.main(["simulate", "--state=1,0.5,-0.5", "--rho=-1", "--t-end=0.001",
                  f"--out={out / 'w.csv'}"])
        cli.main(["plot", f"--in={out / 'w.csv'}", f"--out={out / 'w.svg'}"])
        cli.main(["deriv-check", "--quantity=xi-pinch", "--rho=0.1", "--trajectories=1",
                  f"--out={out / 'd.json'}"])
        cli.main(["verify-set", "--set=K", "--rho=0.1", "--samples=1",
                  f"--out={out / 'v.json'}"])
        shutil.rmtree(out)


# ----------------------------------------------------------------------
# kernels: vectorised numpy calls, no integrator


GRID_SCANS = (
    # (kind, parameter sets the acceptance gate checks, one drawn per pass)
    (InequalityKind.J_NEG_TRACE, [FlowParams(rho=r) for r in (-0.1, -1.0, -10.0)]),
    (InequalityKind.J_NONNEG_TRACE, [FlowParams(rho=r) for r in (-0.1, -1.0, -10.0)]),
    (InequalityKind.I_POLY, [FlowParams(rho=r) for r in (0.0, 0.1, 0.24)]),
    (InequalityKind.XI_PRIME, [FlowParams(rho=r, eta=e, theta=-1.0 / (2.0 * r))
                               for e, r in ((1.0, -0.5), (2.0, -0.4), (10.0, -0.05))]),
)
REGIONS = (X_SPEC, W_SPEC, Y_SPEC, K_SPEC)


def _no_violations(rep) -> str | None:
    if rep.violations:
        return f"{rep.kind.value}: {rep.violations} violations, min margin {rep.min_margin!r}"
    if rep.injected_max_abs_margin is not None and rep.injected_max_abs_margin >= 1e-12:
        return f"isotropic equality residue {rep.injected_max_abs_margin!r}"
    return None


class Kernels(Workload):
    """Grid and random sign scans, ``f_inverse``, big ``margin_array``
    batches and banded ``sample_set`` draws."""

    name = "kernels"
    RESOLUTION = 1500
    RANDOM_STATES = 1_000_000
    F_INVERSE_POINTS = 200_000
    MARGIN_POINTS = 200_000
    MARGIN_CHECK_ROWS = 16
    SAMPLES = 200
    BAND = 100.0 * TOL

    def ops(self, seed: int) -> list[Op]:
        rng = np.random.Generator(np.random.PCG64(seed))
        out = []
        for kind, choices in GRID_SCANS:
            params = choices[rng.integers(len(choices))]
            out.append(Op(
                f"scan {kind.value}",
                lambda k=kind, p=params: verifier.scan_inequality(k, p, resolution=self.RESOLUTION),
                _no_violations, lambda rep: rep.points_checked,
            ))
        rho = float(rng.choice((-1.0, 0.0, 0.2)))
        out.append(Op(
            "scan trace-bound random",
            lambda: verifier.scan_inequality(
                InequalityKind.TRACE_BOUND, FlowParams(rho=rho),
                samples=self.RANDOM_STATES, seed=seed),
            _no_violations, lambda rep: rep.points_checked,
        ))
        out.append(self._f_inverse_op(rng))
        out += [self._margin_op(spec, rng) for spec in REGIONS]
        out += [
            Op(f"sample_set {spec.kind.value}",
               lambda spec=spec: cone_sets.sample_set(spec, 0.0, self.SAMPLES, seed, band=self.BAND),
               lambda states, spec=spec: self._in_band(spec, states), self.SAMPLES)
            for spec in (X_SPEC, Y_SPEC)
        ]
        return out

    def _f_inverse_op(self, rng) -> Op:
        params = FlowParams(rho=float(rng.choice((-10.0, -1.0, -0.1, 0.0, 0.2))))
        # interior of the domain over eight decades; at the edge f' = 0
        # and no inverse in floating point meets 1e-10
        x = pinch_functions.f_domain_min(params) * np.exp(
            rng.uniform(math.log(1.0 + 1e-3), math.log(1e8), self.F_INVERSE_POINTS))
        y = pinch_functions.f_pinch(x, params)

        def check(back) -> str | None:
            err = float(np.max(np.abs(back - x) / x))
            return None if err <= 1e-10 else f"f_inverse relative error {err!r}"

        return Op("f_inverse", lambda: pinch_functions.f_inverse(y, params), check,
                  self.F_INVERSE_POINTS)

    def _margin_op(self, spec: SetSpec, rng) -> Op:
        half = cone_sets.default_box_halfwidth(spec, 0.0)
        pts = np.sort(rng.uniform(-half, half, size=(self.MARGIN_POINTS, 3)), axis=1)[:, ::-1]
        lam, mu, nu = (np.ascontiguousarray(pts[:, i]) for i in range(3))
        ts = 0.0 if spec.kind is SetKind.RICCI_LOG_STATIC else rng.uniform(0.0, HORIZON, len(pts))

        def check(margins) -> str | None:
            inside = float(np.mean(margins >= 0.0))
            if np.isnan(margins).any() or not 0.0 < inside < 1.0:
                return f"{spec.kind.value}: member share {inside!r} or NaN margins"
            # f_inverse (inside the X margin) stops bisecting when the
            # whole batch has converged, so a state's margin may differ
            # with its batch within f_inverse's 1e-12 relative accuracy
            for i in range(self.MARGIN_CHECK_ROWS):
                t = ts if np.isscalar(ts) else ts[i]
                one = cone_sets.membership(spec, EigenTriple(*map(float, pts[i])), float(t)).margin
                scale = 1.0 + float(np.abs(pts[i]).max())
                if not math.isclose(one, margins[i], rel_tol=1e-12, abs_tol=1e-12 * scale):
                    return f"{spec.kind.value} row {i}: batch {margins[i]!r} != single {one!r}"
            return None

        return Op(f"margin_array {spec.kind.value}",
                  lambda: cone_sets.margin_array(spec, lam, mu, nu, ts), check,
                  self.MARGIN_POINTS)

    def _in_band(self, spec: SetSpec, states) -> str | None:
        arr = np.array([s.as_tuple() for s in states])
        if len(arr) != self.SAMPLES or np.any(np.diff(arr, axis=1) > 0):
            return f"{spec.kind.value}: {len(arr)} samples or unordered rows"
        m = cone_sets.margin_array(spec, arr[:, 0], arr[:, 1], arr[:, 2], 0.0)
        if not np.all((m >= 0.0) & (m <= self.BAND)):
            return f"{spec.kind.value}: margins outside [0, {self.BAND}]"
        return None

    def warm_up(self) -> None:
        for kind, choices in GRID_SCANS:
            verifier.scan_inequality(kind, choices[0], resolution=20)
        verifier.scan_inequality(InequalityKind.TRACE_BOUND, FlowParams(rho=0.0), samples=100)
        pinch_functions.f_inverse(np.array([1.0, 2.0]), FlowParams(rho=-1.0))
        for spec in REGIONS:
            cone_sets.margin_array(spec, np.ones(4), np.zeros(4), -np.ones(4), 0.0)
        for spec in (X_SPEC, Y_SPEC):
            cone_sets.sample_set(spec, 0.0, 2, 0, band=self.BAND)


WORKLOADS = {w.name: w for w in (Ensemble, Single, Kernels)}
