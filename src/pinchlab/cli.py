"""Command-line front end.

Subcommands: ``simulate``, ``scan``, ``verify-set``, ``verify-estimate``,
``deriv-check``, ``plot``.  Options come from flags, or from a JSON
config file (``--config``) with top-level sections ``params``,
``integrator``, ``command``, ``output`` — unknown keys anywhere in the
file are errors, and explicit flags always override file values.  The
fully resolved configuration is echoed into every output.

Exit codes: 0 success, 1 verification failure (violations or negative
slack beyond tolerance on a claimed check), 2 usage/config errors.
Observation runs (claimed=false in the report) exit 0 regardless of
drift, because no established claim was tested.

Outputs are byte-identical for identical configs; ``--stamp`` adds a
wall-clock timestamp to the metadata and is off by default.  CSV and
JSON only; numbers in CSV are printed with 17 significant digits so
doubles round-trip.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .cone_sets import SetKind, SetSpec, margin_array
from .eigen_ode import EigenTriple, FlowParams
from .errors import DomainError, EmptyRegion, HypothesisViolated, SamplingExhausted
from .integrator import IntegratorConfig, Trajectory, integrate, standard_trigger_events
from .pinch_functions import EstimateVariant
from .verifier import (
    InequalityKind,
    QuantityKind,
    check_invariance,
    deriv_suite,
    estimate_suite,
    scan_inequality,
)

__all__ = ["main", "export_trajectory", "write_report", "render_svg"]

CSV_HEADER = "t,lambda,mu,nu,R,ric_min,margin_X,margin_W,margin_K"

_CONFIG_SECTIONS = {"params", "integrator", "command", "output"}
_PARAM_KEYS = {"rho", "eta", "theta"}
_INTEGRATOR_KEYS = {"rel_tol", "abs_tol", "max_step", "blowup_norm", "max_steps"}
_OUTPUT_KEYS = {"out", "format", "stamp", "points"}


class _UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path} must be a JSON object")
    unknown = set(raw) - _CONFIG_SECTIONS
    if unknown:
        raise _UsageError(
            f"unknown config keys {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_SECTIONS)}"
        )
    for section, allowed in (
        ("params", _PARAM_KEYS),
        ("integrator", _INTEGRATOR_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            raise _UsageError(f"config section {section!r} must be an object")
        bad = set(entries) - allowed
        if bad:
            raise _UsageError(
                f"unknown keys {sorted(bad)} in config section {section!r}; "
                f"allowed: {sorted(allowed)}"
            )
    if not isinstance(raw.get("command", {}), dict):
        raise _UsageError("config section 'command' must be an object")
    return raw


class _Resolved:
    """Flag-over-file-over-default option resolution, with provenance
    kept simple: every resolved value is echoed into output metadata."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, section: str, key: str, default=None, required: bool = False):
        v = getattr(self.args, key, None)
        if v is None:
            v = self.config.get(section, {}).get(key)
        if v is None:
            v = default
        if v is None and required:
            raise _UsageError(f"missing required option --{key.replace('_', '-')}")
        return v

    def flow_params(self, default_theta: float | None = None) -> FlowParams:
        rho = self.get("params", "rho", required=True)
        eta = self.get("params", "eta", default=-4.0)
        theta = self.get("params", "theta")
        if theta is None:
            theta = 1.0 if default_theta is None else default_theta
        try:
            return FlowParams(rho=float(rho), eta=float(eta), theta=float(theta))
        except (ValueError, DomainError) as exc:
            raise _UsageError(str(exc))

    def integrator_config(self) -> IntegratorConfig:
        kw = {}
        for key in _INTEGRATOR_KEYS:
            v = self.get("integrator", key)
            if v is not None:
                kw[key] = int(v) if key == "max_steps" else float(v)
        try:
            return IntegratorConfig(**kw)
        except ValueError as exc:
            raise _UsageError(str(exc))


def _jsonify(obj):
    """Make reports JSON-safe: enums to tokens, triples to rows, and
    non-finite floats to the strings "inf"/"-inf"/"nan" (strict JSON
    has no literals for them)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, EigenTriple):
            return [_jsonify(obj.lam), _jsonify(obj.mu), _jsonify(obj.nu)]
        return {
            f.name: _jsonify(getattr(obj, f.name))
            for f in fields(obj)
            if f.repr  # bulky diagnostic payloads stay out of reports
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list):
        lines.append(f"{prefix} = {json.dumps(value)}")
    else:
        lines.append(f"{prefix} = {value}")


def write_report(payload: dict, out: str | None, fmt: str) -> None:
    """Serialize a report payload as JSON or flat text.

    JSON output is ``json.dumps(..., sort_keys=True)`` of the jsonified
    payload; text output is sorted ``dotted.key = value`` lines.  Both
    are deterministic.  ``out`` None writes to stdout.
    """
    safe = _jsonify(payload)
    if fmt == "json":
        text = json.dumps(safe, sort_keys=True, indent=2) + "\n"
    else:
        lines: list[str] = []
        _flatten("", safe, lines)
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}")


def _meta_block(meta: dict) -> str:
    safe = _jsonify(meta)
    lines: list[str] = []
    _flatten("", safe, lines)
    return "".join(f"# {line}\n" for line in lines)


def export_trajectory(
    traj: Trajectory | None,
    params: FlowParams,
    path: str,
    points: int = 201,
    meta: dict | None = None,
) -> None:
    """Write a trajectory as CSV: metadata block, fixed header, one row
    per checkpoint (uniform grid over the covered interval).

    R is twice the trace; ric_min is mu+nu; the three margin columns
    hold the corresponding region's membership margin at the row's time
    and state, or NaN when the region is undefined for these params.
    A None trajectory (degenerate zero-length request) writes metadata
    and header only.
    """
    full = dict(meta or {})
    spec_x = spec_w = spec_k = None
    if params.rho < 0:
        spec_x = SetSpec(SetKind.RICCI_LOG_STATIC, params)
        spec_w = SetSpec(SetKind.TRACE_POSITIVE_RICCI_LOG, params)
    if params.eta_factor > 0:
        spec_k = SetSpec(SetKind.SECTIONAL_LOG, params)
    rows: list[str] = []
    if traj is not None:
        full["terminal"] = {
            "kind": traj.terminal.kind,
            "t_est": traj.terminal.t_est,
            "norm_exceeded": traj.terminal.norm_exceeded,
            "step_collapse": traj.terminal.step_collapse,
        }
        full["events"] = [
            {"name": e.name, "t": e.time, "direction": e.direction}
            for e in traj.events
        ]
        ts = np.linspace(traj.t_start, traj.t_last, points)
        vals = traj.eval_many(ts)
        lam, mu, nu = vals[:, 0], vals[:, 1], vals[:, 2]
        trace = lam + mu + nu
        nan = np.full(len(ts), np.nan)
        m_x = margin_array(spec_x, lam, mu, nu, 0.0) if spec_x else nan
        m_w = margin_array(spec_w, lam, mu, nu, ts) if spec_w else nan
        m_k = margin_array(spec_k, lam, mu, nu, ts) if spec_k else nan
        table = np.column_stack(
            [ts, lam, mu, nu, 2.0 * trace, mu + nu, m_x, m_w, m_k]
        ).tolist()
        rows = [",".join(map("{:.17g}".format, row)) for row in table]
    body = _meta_block(full) + CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)
    try:
        Path(path).write_text(body)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


# ----------------------------------------------------------------------
# plotting (hand-rolled SVG, no external renderer)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(
    xs: np.ndarray, series: dict[str, np.ndarray], title: str
) -> str:
    """A minimal standalone SVG line chart (x axis = first CSV column)."""
    width, height = 800, 480
    lpad, rpad, tpad, bpad = 64, 16, 28, 44
    finite_y = [v[np.isfinite(v)] for v in series.values()]
    finite_y = [v for v in finite_y if v.size]
    if not finite_y or not np.isfinite(xs).any():
        raise _UsageError("nothing finite to plot")
    ymin = min(float(v.min()) for v in finite_y)
    ymax = max(float(v.max()) for v in finite_y)
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    xmin, xmax = float(xs.min()), float(xs.max())
    if xmin == xmax:
        xmin, xmax = xmin - 1.0, xmax + 1.0

    def sx(x: float) -> float:
        return lpad + (x - xmin) / (xmax - xmin) * (width - lpad - rpad)

    def sy(y: float) -> float:
        return height - bpad - (y - ymin) / (ymax - ymin) * (height - tpad - bpad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6g}" y="18" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{title}</text>',
    ]
    for i in range(5):
        yv = ymin + i * (ymax - ymin) / 4
        py = sy(yv)
        parts.append(
            f'<line x1="{lpad}" y1="{py:.6g}" x2="{width - rpad}" '
            f'y2="{py:.6g}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{lpad - 6}" y="{py + 4:.6g}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yv:.4g}</text>'
        )
        xv = xmin + i * (xmax - xmin) / 4
        px = sx(xv)
        parts.append(
            f'<text x="{px:.6g}" y="{height - bpad + 16}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
    parts.append(
        f'<line x1="{lpad}" y1="{height - bpad}" x2="{width - rpad}" '
        f'y2="{height - bpad}" stroke="#333"/>'
    )
    parts.append(
        f'<line x1="{lpad}" y1="{tpad}" x2="{lpad}" '
        f'y2="{height - bpad}" stroke="#333"/>'
    )
    for i, (name, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        segment: list[str] = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                segment.append(f"{sx(x):.6g},{sy(y):.6g}")
            elif segment:
                parts.append(
                    f'<polyline points="{" ".join(segment)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
                segment = []
        if segment:
            parts.append(
                f'<polyline points="{" ".join(segment)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = tpad + 16 * i
        parts.append(
            f'<line x1="{width - rpad - 120}" y1="{ly}" '
            f'x2="{width - rpad - 96}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - rpad - 90}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# subcommands


def _base_meta(res: _Resolved, command: str, params: FlowParams | None) -> dict:
    meta: dict = {"command": command, "version": __version__}
    if params is not None:
        meta["params"] = {
            "rho": params.rho, "eta": params.eta, "theta": params.theta,
        }
    if res.get("output", "stamp", default=False):
        meta["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    return meta


def _cfg_meta(cfg: IntegratorConfig) -> dict:
    return {
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
        "max_step": cfg.max_step,
        "blowup_norm": cfg.blowup_norm,
        "max_steps": cfg.max_steps,
    }


def _cmd_simulate(res: _Resolved) -> int:
    params = res.flow_params()
    cfg = res.integrator_config()
    state_raw = res.get("command", "state", required=True)
    try:
        l, m, n = (float(x) for x in str(state_raw).split(","))
        state = EigenTriple(l, m, n)
    except (ValueError, DomainError) as exc:
        raise _UsageError(f"bad --state {state_raw!r}: {exc}")
    t0 = float(res.get("command", "t0", default=0.0))
    t_end = float(res.get("command", "t_end", required=True))
    points = int(res.get("output", "points", default=201))
    out = res.get("output", "out", required=True)
    meta = _base_meta(res, "simulate", params)
    meta["integrator"] = _cfg_meta(cfg)
    meta["state0"] = state.as_tuple()
    meta["t0"], meta["t_end"], meta["points"] = t0, t_end, points
    if t_end == t0:
        export_trajectory(None, params, out, points, meta)
        return 0
    if t_end < t0:
        raise _UsageError(f"--t-end must be >= --t0, got [{t0}, {t_end}]")
    traj = integrate(
        state, params, t0, t_end, cfg, events=standard_trigger_events(params)
    )
    export_trajectory(traj, params, out, points, meta)
    return 0


def _cmd_scan(res: _Resolved) -> int:
    kind = InequalityKind.from_token(res.get("command", "kind", required=True))
    default_theta = None
    if kind is InequalityKind.XI_PRIME:
        rho = res.get("params", "rho", required=True)
        default_theta = -1.0 / (2.0 * float(rho))
    params = res.flow_params(default_theta=default_theta)
    resolution = int(res.get("command", "resolution", default=200))
    tol = float(res.get("command", "tol", default=1e-12))
    scan_times = res.get("command", "scan_times") or (0.0,)
    samples = res.get("command", "samples")
    seed = int(res.get("command", "seed", default=0))
    inject = res.get("command", "inject", default=True)
    report = scan_inequality(
        kind,
        params,
        resolution=resolution,
        tol=tol,
        scan_times=tuple(float(t) for t in scan_times),
        samples=None if samples is None else int(samples),
        seed=seed,
        inject_isotropic=bool(inject),
    )
    payload = {
        "meta": _base_meta(res, "scan", params),
        "report": report,
    }
    out = res.get("output", "out")
    fmt = _pick_format(res, out)
    write_report(payload, out, fmt)
    return 1 if report.violations > 0 else 0


def _cmd_verify_set(res: _Resolved) -> int:
    token = res.get("command", "set", required=True)
    kind = SetKind.from_token(str(token))
    params = res.flow_params()
    try:
        spec = SetSpec(kind, params)
    except DomainError as exc:
        raise _UsageError(str(exc))
    recheck = None
    recheck_token = res.get("command", "recheck_set")
    if recheck_token is not None:
        recheck = SetSpec(SetKind.from_token(str(recheck_token)), params)
    cfg = res.integrator_config()
    samples = int(res.get("command", "samples", default=1000))
    horizon = float(res.get("command", "horizon", default=0.05))
    seed = int(res.get("command", "seed", default=42))
    tol = float(res.get("command", "tol", default=1e-8))
    report = check_invariance(
        spec, samples, horizon, seed, cfg, tol, recheck=recheck
    )
    meta = _base_meta(res, "verify-set", params)
    meta["integrator"] = _cfg_meta(cfg)
    meta["prng"] = "numpy PCG64, per-sample SeedSequence(seed).spawn(i)"
    meta["drift_normalization"] = "margin / (1 + |trace|)"
    payload = {"meta": meta, "report": report}
    out = res.get("output", "out")
    write_report(payload, out, _pick_format(res, out))
    failed = report.claimed and report.worst_drift < -tol
    return 1 if failed else 0


def _cmd_verify_estimate(res: _Resolved) -> int:
    token = str(res.get("command", "variant", required=True))
    variant = None
    for v in EstimateVariant:
        if v.value == token:
            variant = v
    if variant is None:
        valid = ", ".join(v.value for v in EstimateVariant)
        raise _UsageError(f"unknown variant {token!r}; expected one of {valid}")
    params = res.flow_params()
    cfg = res.integrator_config()
    count = int(res.get("command", "count", default=100))
    seed = int(res.get("command", "seed", default=0))
    tol = float(res.get("command", "tol", default=1e-8))
    t_end = float(res.get("command", "t_end", default=50.0))
    report = estimate_suite(variant, params, count, seed, cfg, tol, t_end)
    meta = _base_meta(res, "verify-estimate", params)
    meta["integrator"] = _cfg_meta(cfg)
    meta["prng"] = "numpy PCG64, per-sample SeedSequence(seed).spawn(i)"
    payload = {
        "meta": meta,
        "report": {
            "variant": report.variant,
            "params": report.params,
            "count": report.count,
            "seed": report.seed,
            "tol": report.tol,
            "worst_slack": report.worst_slack,
            "violating_seed": report.violating_seed,
            "blowups": report.blowups,
            "min_coverage": report.min_coverage,
            "steps_accepted": report.steps_accepted,
            "steps_rejected": report.steps_rejected,
            "rhs_evals": report.rhs_evals,
            "terminal_kinds": report.terminal_kinds,
            "trigger_times_worst": (
                report.reports[report.violating_seed].trigger_times
                if report.violating_seed is not None
                else None
            ),
        },
    }
    out = res.get("output", "out")
    write_report(payload, out, _pick_format(res, out))
    return 1 if report.worst_slack < -tol else 0


def _cmd_deriv_check(res: _Resolved) -> int:
    quantity = QuantityKind.from_token(
        str(res.get("command", "quantity", required=True))
    )
    params = res.flow_params()
    cfg = res.integrator_config()
    trajectories = int(res.get("command", "trajectories", default=20))
    seed = int(res.get("command", "seed", default=0))
    h = float(res.get("command", "h", default=1e-4))
    t_end = float(res.get("command", "t_end", default=0.01))
    tol = float(res.get("command", "tol", default=1e-6))
    report = deriv_suite(quantity, params, trajectories, seed, h, t_end, cfg)
    meta = _base_meta(res, "deriv-check", params)
    meta["integrator"] = _cfg_meta(cfg)
    meta["tol"] = tol
    payload = {"meta": meta, "report": report}
    out = res.get("output", "out")
    write_report(payload, out, _pick_format(res, out))
    return 1 if report.max_discrepancy > tol else 0


def _cmd_plot(res: _Resolved) -> int:
    src = res.get("command", "infile", required=True)
    columns = res.get("command", "columns", default="R")
    out = res.get("output", "out", required=True)
    try:
        lines = [
            ln for ln in Path(src).read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
    except OSError as exc:
        raise _UsageError(f"cannot read {src}: {exc}")
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise _UsageError(f"{src} has no header row")
    data = {name: [] for name in header}
    for row in reader:
        for name, cell in zip(header, row):
            data[name].append(float(cell))
    wanted = [c.strip() for c in str(columns).split(",") if c.strip()]
    missing = [c for c in wanted if c not in data]
    if missing or "t" not in data:
        raise _UsageError(
            f"columns {missing or ['t']} not in {src} (has: {header})"
        )
    xs = np.asarray(data["t"])
    series = {c: np.asarray(data[c]) for c in wanted}
    svg = render_svg(xs, series, title=f"{Path(src).name}: {', '.join(wanted)}")
    try:
        Path(out).write_text(svg)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}")
    return 0


def _pick_format(res: _Resolved, out: str | None) -> str:
    fmt = res.get("output", "format")
    if fmt is not None:
        if fmt not in ("json", "text"):
            raise _UsageError(f"--format must be json or text, got {fmt!r}")
        return str(fmt)
    if out is not None and str(out).endswith(".json"):
        return "json"
    return "text"


# ----------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--rho", type=float, dest="rho")
    sub.add_argument("--eta", type=float, dest="eta")
    sub.add_argument("--theta", type=float, dest="theta")
    sub.add_argument("--out", dest="out")
    sub.add_argument("--format", dest="format", choices=("json", "text"))
    sub.add_argument(
        "--stamp", dest="stamp", action="store_const", const=True,
        help="include a wall-clock timestamp in output metadata",
    )
    for key in ("rel-tol", "abs-tol", "max-step", "blowup-norm"):
        sub.add_argument(f"--{key}", type=float, dest=key.replace("-", "_"))
    sub.add_argument("--max-steps", type=int, dest="max_steps")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call.

    Parsing keeps no state in the parser (``--scan-time`` appends to a
    fresh list per call), so reusing it gives every call the same
    result as a fresh process.
    """
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description=(
            "numerical laboratory for the 3d curvature-eigenvalue "
            "reaction flow: simulation, inequality scans, region "
            "invariance and curvature-bound verification"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="integrate one state, write CSV")
    _add_common(sim)
    sim.add_argument("--state", dest="state", help="lam,mu,nu (ordered)")
    sim.add_argument("--t0", type=float, dest="t0")
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--points", type=int, dest="points")
    sim.set_defaults(func=_cmd_simulate)

    scan = subs.add_parser("scan", help="grid/random sign scan of one claim")
    _add_common(scan)
    scan.add_argument(
        "--kind", dest="kind", help=", ".join(k.value for k in InequalityKind)
    )
    scan.add_argument("--resolution", type=int, dest="resolution")
    scan.add_argument("--tol", type=float, dest="tol")
    scan.add_argument(
        "--scan-time", type=float, action="append", dest="scan_times",
        help="time for the xi-rate term (repeatable; default 0)",
    )
    scan.add_argument(
        "--samples", type=int, dest="samples",
        help="random ordered states instead of a grid (trace-bound only)",
    )
    scan.add_argument("--seed", type=int, dest="seed")
    scan.add_argument(
        "--no-inject", dest="inject", action="store_const", const=False,
        help="skip the injected isotropic equality states (random mode)",
    )
    scan.set_defaults(func=_cmd_scan)

    vset = subs.add_parser(
        "verify-set", help="flow-invariance check of a preserved region"
    )
    _add_common(vset)
    vset.add_argument("--set", dest="set", help="X, K, Y, or W")
    vset.add_argument("--samples", type=int, dest="samples")
    vset.add_argument("--horizon", type=float, dest="horizon")
    vset.add_argument("--seed", type=int, dest="seed")
    vset.add_argument("--tol", type=float, dest="tol")
    vset.add_argument(
        "--recheck-set", dest="recheck_set",
        help="evaluate THIS region along trajectories (observation mode)",
    )
    vset.set_defaults(func=_cmd_verify_set)

    vest = subs.add_parser(
        "verify-estimate", help="scalar-curvature lower bound along blow-ups"
    )
    _add_common(vest)
    vest.add_argument(
        "--variant", dest="variant",
        help=", ".join(v.value for v in EstimateVariant),
    )
    vest.add_argument("--count", type=int, dest="count")
    vest.add_argument("--seed", type=int, dest="seed")
    vest.add_argument("--tol", type=float, dest="tol")
    vest.add_argument("--t-end", type=float, dest="t_end")
    vest.set_defaults(func=_cmd_verify_estimate)

    dchk = subs.add_parser(
        "deriv-check", help="closed-form rate vs central difference"
    )
    _add_common(dchk)
    dchk.add_argument(
        "--quantity", dest="quantity",
        help=", ".join(k.value for k in QuantityKind),
    )
    dchk.add_argument("--trajectories", type=int, dest="trajectories")
    dchk.add_argument("--seed", type=int, dest="seed")
    dchk.add_argument("--h", type=float, dest="h")
    dchk.add_argument("--t-end", type=float, dest="t_end")
    dchk.add_argument("--tol", type=float, dest="tol")
    dchk.set_defaults(func=_cmd_deriv_check)

    plot = subs.add_parser("plot", help="render CSV columns to SVG")
    _add_common(plot)
    plot.add_argument("--in", dest="infile", help="CSV produced by simulate")
    plot.add_argument(
        "--columns", dest="columns", help="comma-separated column names"
    )
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        res = _Resolved(args, config)
        return int(args.func(res))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, EmptyRegion, SamplingExhausted,
            HypothesisViolated, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
