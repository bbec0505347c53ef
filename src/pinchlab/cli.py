"""Command-line front end.

Subcommands: ``simulate``, ``scan``, ``verify-set``, ``verify-estimate``,
``deriv-check``, ``plot``.  Options come from flags, or from a JSON
config file (``--config``) with top-level sections ``params``,
``integrator``, ``command``, ``output``; explicit flags always override
file values.  Each option is declared once, as an ``_Opt`` giving its
flag, config key, type and default, and takes one value, never a list.
Each subcommand takes exactly the options it reads: a flag it does not
read is unrecognized, and a config key it does not read is an error in
every section.  The fully resolved configuration is echoed into every
output.  ``scan`` checks xi-prime at t = 0 only, its most adverse time,
so no option sets a time.

Exit codes: 0 success, 1 verification failure (violations or negative
slack beyond tolerance on a claimed check, or a lane of one that stopped
at the step limit), 2 usage/config errors.
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
import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .cone_sets import SetKind, SetSpec, margin_array, standard_trigger_events
from .eigen_ode import EigenTriple, FlowParams
from .errors import DomainError, SamplingExhausted
from .integrator import STEP_LIMIT, IntegratorConfig, Trajectory, integrate
from .pinch_functions import EstimateVariant
from .verifier import (
    InequalityKind,
    QuantityKind,
    check_invariance,
    deriv_suite,
    estimate_suite,
    scan_inequality,
    validate_tol,
)

__all__ = ["main", "export_trajectory", "write_report", "render_svg"]

CSV_HEADER = "t,lambda,mu,nu,R,ric_min,margin_X,margin_W,margin_K"
_PRNG = "numpy PCG64, per-sample SeedSequence(seed).spawn(i)"

# in the order the config check and option resolution report errors
_CONFIG_SECTIONS = ("params", "integrator", "command", "output")


class _UsageError(Exception):
    pass


def _tokens(kind: type[Enum]) -> str:
    return ", ".join(m.value for m in kind)


def _cast(section: str, key: str, value, cast, flag: str | None = None):
    """``value`` read as ``cast``: int, float, bool, str or an Enum whose
    values are the option's tokens.  Flags arrive typed but config values
    do not, so a value of the wrong type is a usage error that names its
    key: an int takes a JSON integer only, a float any JSON number.  A
    NaN is refused from a flag too, naming ``flag``, the flag the value
    came from (None for a config value)."""
    if issubclass(cast, Enum):
        try:
            return cast(value)
        except ValueError:
            raise _UsageError(
                f"unknown --{key.replace('_', '-')} {value!r}; "
                f"expected one of {_tokens(cast)}"
            ) from None
    if cast in (bool, str) and isinstance(value, cast):
        return value
    if cast is float and isinstance(value, float):
        if math.isnan(value):
            raise _UsageError(f"{flag or f'config value {section}.{key}'} must not be NaN")
        return value
    if cast in (int, float) and isinstance(value, int) and not isinstance(value, bool):
        try:
            return cast(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise _UsageError(
        f"config value {section}.{key} must be {cast.__name__}, got {value!r}"
    )


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


def _flatten(prefix: str, value):
    """Sorted ``dotted.key = value`` lines of a jsonified value."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(f"{prefix}.{k}" if prefix else str(k), value[k])
    elif isinstance(value, list):
        yield f"{prefix} = {json.dumps(value)}"
    else:
        yield f"{prefix} = {value}"


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


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
        text = "\n".join(_flatten("", safe)) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


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
    rows: list[str] = []
    if traj is not None:
        full["terminal"] = traj.terminal
        full["events"] = [
            {"name": e.name, "t": e.time, "direction": e.direction}
            for e in traj.events
        ]
        ts = np.linspace(traj.t_start, traj.t_last, points)
        vals = traj.eval_many(ts)
        lam, mu, nu = vals[:, 0], vals[:, 1], vals[:, 2]
        trace = lam + mu + nu
        margins = []
        for kind in (SetKind.RICCI_LOG_STATIC, SetKind.TRACE_POSITIVE_RICCI_LOG,
                     SetKind.SECTIONAL_LOG):
            try:
                spec = SetSpec(kind, params)
            except DomainError:  # the region is undefined for these params
                margins.append(np.full(len(ts), np.nan))
            else:
                margins.append(margin_array(spec, lam, mu, nu, ts))
        table = np.column_stack(
            [ts, lam, mu, nu, 2.0 * trace, mu + nu, *margins]
        ).tolist()
        fmt = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))
        rows = [fmt % tuple(row) for row in table]
    meta_block = "".join(f"# {line}\n" for line in _flatten("", _jsonify(full)))
    _write_file(path, meta_block + CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))


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

    def sx(x):
        return lpad + (x - xmin) / (xmax - xmin) * (width - lpad - rpad)

    def sy(y):
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
        # a non-finite point ends a polyline; the sentinel ends the last one
        x, y = np.append(xs, np.nan), np.append(ys, np.nan)
        finite = (np.isfinite(x) & np.isfinite(y)).tolist()
        for ok, pt in zip(finite, np.column_stack([sx(x), sy(y)]).tolist()):
            if ok:
                segment.append("%.6g,%.6g" % tuple(pt))
            elif segment:
                parts.append(
                    f'<polyline points="{" ".join(segment)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
                segment = []
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


def _base_meta(opts: dict, command: str, params: FlowParams,
               cfg: IntegratorConfig | None = None) -> dict:
    meta = {"command": command, "version": __version__, "params": asdict(params)}
    if cfg is not None:
        meta["integrator"] = asdict(cfg)
    if opts["output"]["stamp"]:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def _write(opts: dict, meta: dict, report) -> None:
    """Write a report where ``--out`` says, in the ``--format`` given or
    else the one the file name implies."""
    out, fmt = opts["output"].get("out"), opts["output"].get("format")
    if fmt is None:
        fmt = "json" if out is not None and out.endswith(".json") else "text"
    write_report({"meta": meta, "report": report}, out, fmt)


def _cmd_simulate(opts: dict) -> int:
    params = FlowParams(**opts["params"])
    cfg = IntegratorConfig(**opts["integrator"])
    cmd, out, points = opts["command"], opts["output"]["out"], opts["output"]["points"]
    try:
        l, m, n = (float(x) for x in cmd["state"].split(","))
        state = EigenTriple(l, m, n)
    except (ValueError, DomainError) as exc:
        raise _UsageError(f"bad --state {cmd['state']!r}: {exc}")
    t0, t_end = cmd["t0"], cmd["t_end"]
    # every region clock and trigger time factor is stated for t >= 0
    if t0 < 0:
        raise _UsageError(f"--t0 must be >= 0, got {t0}")
    if points < 2:
        raise _UsageError("points must be >= 2")
    meta = _base_meta(opts, "simulate", params, cfg)
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


def _cmd_scan(opts: dict) -> int:
    cmd, params = opts["command"], FlowParams(**opts["params"])
    # a given option that this mode or kind never reads would be echoed
    # beside a verdict it did not shape
    flag = {o.key: o.flag_name for o in _SUBCOMMANDS["scan"].opts}
    if "seed" in cmd and "samples" not in cmd:
        raise _UsageError(f"{flag['seed']} needs {flag['samples']}")
    if "resolution" in cmd and "samples" in cmd:
        raise _UsageError(f"{flag['resolution']} cannot be used with {flag['samples']}")
    # theta defaults to the claim's own where rho and eta are inside its
    # window; outside it the scan's window check reports
    if (cmd["kind"] is InequalityKind.XI_PRIME and "theta" not in opts["params"]
            and params.neg_rho_sectional_window(check_theta=False) is None):
        params = replace(params, theta=params.sectional_theta)
    report = scan_inequality(params=params, **cmd)
    _write(opts, _base_meta(opts, "scan", params), report)
    return 1 if report.violations > 0 else 0


def _cmd_verify_set(opts: dict) -> int:
    params = FlowParams(**opts["params"])
    cmd = opts["command"]
    spec = SetSpec(cmd.pop("set"), params)
    recheck = cmd.pop("recheck_set", None)
    if recheck is not None:
        recheck = SetSpec(recheck, params)
    cfg = IntegratorConfig(**opts["integrator"])
    report = check_invariance(spec, config=cfg, recheck=recheck, **cmd)
    meta = _base_meta(opts, "verify-set", params, cfg)
    meta["prng"] = _PRNG
    meta["drift_normalization"] = "margin / (1 + |trace|)"
    _write(opts, meta, report)
    failed = report.worst_drift < -report.tol or STEP_LIMIT in report.terminal_kinds
    return 1 if report.claimed and failed else 0


def _cmd_verify_estimate(opts: dict) -> int:
    params = FlowParams(**opts["params"])
    cfg = IntegratorConfig(**opts["integrator"])
    report = estimate_suite(params=params, config=cfg, **opts["command"])
    meta = _base_meta(opts, "verify-estimate", params, cfg)
    meta["prng"] = _PRNG
    _write(opts, meta, report)
    # a lane that stopped at the step limit was not checked up to its horizon
    return 1 if report.worst_slack < -report.tol or STEP_LIMIT in report.terminal_kinds else 0


def _cmd_deriv_check(opts: dict) -> int:
    params = FlowParams(**opts["params"])
    cfg = IntegratorConfig(**opts["integrator"])
    cmd = opts["command"]
    tol = cmd.pop("tol")  # the verdict's, not deriv_suite's
    validate_tol(tol)
    report = deriv_suite(params=params, config=cfg, **cmd)
    meta = _base_meta(opts, "deriv-check", params, cfg)
    meta["tol"] = tol
    _write(opts, meta, report)
    # a lane that stopped at the step limit was not checked up to t_end
    return 1 if report.max_discrepancy > tol or STEP_LIMIT in report.terminal_kinds else 0


def _cmd_plot(opts: dict) -> int:
    src, columns = opts["command"]["infile"], opts["command"]["columns"]
    try:
        text = Path(src).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {src}: {exc}")
    rows = [
        (number, next(csv.reader([ln])))
        for number, ln in enumerate(text.splitlines(), 1)
        if ln and not ln.startswith("#")
    ]
    if not rows:
        raise _UsageError(f"{src} has no header row")
    (_, header), *body = rows
    for number, row in body:
        if len(row) != len(header):
            raise _UsageError(
                f"{src} line {number} has {len(row)} cells, its header {len(header)}"
            )
    table = np.array([row for _, row in body], dtype=float)
    data = dict(zip(header, table.reshape(len(body), len(header)).T))
    wanted = [c.strip() for c in columns.split(",") if c.strip()]
    missing = [c for c in wanted if c not in data]
    if missing or "t" not in data:
        raise _UsageError(
            f"columns {missing or ['t']} not in {src} (has: {header})"
        )
    series = {c: data[c] for c in wanted}
    _write_file(
        opts["output"]["out"],
        render_svg(data["t"], series, title=f"{Path(src).name}: {', '.join(wanted)}"),
    )
    return 0


# ----------------------------------------------------------------------
# options: one declaration per key drives the flag, the config check and
# the default

_REQUIRED = object()  # the default of an option that must be given


class _Opt(NamedTuple):
    """One option, read from its flag or else from ``key`` in its config
    ``section``, cast by ``_cast``.  A None default leaves the value to
    the called function's own default: the option is then not passed at
    all.  ``kw`` holds extra ``add_argument`` keywords."""

    key: str
    cast: type
    default: object = None
    help: str | None = None
    section: str = "command"
    flag: str | None = None  # when it is not --key with dashes
    kw: dict | None = None

    @property
    def flag_name(self) -> str:
        return self.flag or "--" + self.key.replace("_", "-")


def _dataclass_opts(section: str, cls: type) -> tuple[_Opt, ...]:
    """One option per field of ``cls``; a field without a default is a
    required option, the others keep the dataclass's own defaults."""
    hints = get_type_hints(cls)
    return tuple(
        _Opt(f.name, hints[f.name], _REQUIRED if f.default is MISSING else None,
             section=section)
        for f in fields(cls)
    )


# the option groups a subcommand takes whole or in part
_PARAMS = _dataclass_opts("params", FlowParams)
_INTEGRATOR = _dataclass_opts("integrator", IntegratorConfig)
_OUT = _Opt("out", str, section="output")
_OUT_REQUIRED = _Opt("out", str, _REQUIRED, section="output")
_FORMAT = _Opt("format", str, section="output", kw={"choices": ("json", "text")})
_STAMP = _Opt("stamp", bool, False, "include a wall-clock timestamp in output metadata",
              section="output", kw={"action": "store_const", "const": True})
_REPORT = (_OUT, _FORMAT, _STAMP)


class _Subcommand(NamedTuple):
    run: Callable[[dict], int]
    opts: tuple[_Opt, ...]  # exactly the options ``run`` reads, in --help order
    help: str


_SUBCOMMANDS = {
    "simulate": _Subcommand(_cmd_simulate, (
        *_PARAMS, _OUT_REQUIRED, _STAMP, *_INTEGRATOR,
        _Opt("state", str, _REQUIRED, "lam,mu,nu (ordered)"),
        _Opt("t0", float, 0.0),
        _Opt("t_end", float, _REQUIRED),
        _Opt("points", int, 201, section="output"),
    ), "integrate one state, write CSV"),
    "scan": _Subcommand(_cmd_scan, (
        *_PARAMS, *_REPORT,
        _Opt("kind", InequalityKind, _REQUIRED, _tokens(InequalityKind)),
        _Opt("resolution", int),
        _Opt("tol", float),
        _Opt("samples", int, None,
             "random ordered states instead of a grid (trace-bound only)"),
        _Opt("seed", int),
    ), "grid/random sign scan of one claim"),
    "verify-set": _Subcommand(_cmd_verify_set, (
        *_PARAMS, *_REPORT, *_INTEGRATOR,
        _Opt("set", SetKind, _REQUIRED, "X, K, Y, or W"),
        _Opt("samples", int, 1000),
        _Opt("horizon", float, 0.05),
        _Opt("seed", int, 42),
        _Opt("tol", float),
        _Opt("recheck_set", SetKind, None,
             "evaluate THIS region along trajectories (observation mode)"),
    ), "flow-invariance check of a preserved region"),
    "verify-estimate": _Subcommand(_cmd_verify_estimate, (
        *_PARAMS, *_REPORT, *_INTEGRATOR,
        _Opt("variant", EstimateVariant, _REQUIRED, _tokens(EstimateVariant)),
        _Opt("count", int, 100),
        _Opt("seed", int, 0),
        _Opt("tol", float),
        _Opt("t_end", float),
    ), "scalar-curvature lower bound along blow-ups"),
    "deriv-check": _Subcommand(_cmd_deriv_check, (
        *_PARAMS, *_REPORT, *_INTEGRATOR,
        _Opt("quantity", QuantityKind, _REQUIRED, _tokens(QuantityKind)),
        _Opt("trajectories", int),
        _Opt("seed", int),
        _Opt("h", float),
        _Opt("t_end", float),
        _Opt("tol", float, 1e-6),
    ), "closed-form rate vs central difference"),
    "plot": _Subcommand(_cmd_plot, (
        _OUT_REQUIRED,
        _Opt("infile", str, _REQUIRED, "CSV produced by simulate", flag="--in"),
        _Opt("columns", str, "R", "comma-separated column names"),
    ), "render CSV columns to SVG"),
}


def _load_config(path: str | None, subcommand: str) -> dict:
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
    unknown = set(raw) - set(_CONFIG_SECTIONS)
    if unknown:
        raise _UsageError(
            f"unknown config keys {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_SECTIONS)}"
        )
    for section in _CONFIG_SECTIONS:
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            raise _UsageError(f"config section {section!r} must be an object")
        allowed = {o.key for o in _SUBCOMMANDS[subcommand].opts if o.section == section}
        bad = set(entries) - allowed
        if bad:
            raise _UsageError(
                f"unknown keys {sorted(bad)} in config section {section!r}; "
                f"allowed: {sorted(allowed)}"
            )
    return raw


def _resolve(args: argparse.Namespace, config: dict, opts: tuple[_Opt, ...]) -> dict:
    """Each option's value, flag over file over default, cast and grouped
    by config section.  Options left to the called function's default
    are absent.  Sections resolve in ``_CONFIG_SECTIONS`` order, so the
    inputs of a run are checked before its outputs, and all of them
    before the run.  argparse refuses a flag outside an option's
    ``choices``; a config value outside them is refused here."""
    values: dict = {section: {} for section in _CONFIG_SECTIONS}
    for opt in sorted(opts, key=lambda o: _CONFIG_SECTIONS.index(o.section)):
        v = getattr(args, opt.key)
        flag = None if v is None else opt.flag_name
        if v is None:
            v = config.get(opt.section, {}).get(opt.key)
        if v is None:
            v = opt.default
        if v is _REQUIRED:
            raise _UsageError(f"missing required option {opt.flag_name}")
        if v is None:
            continue
        v = _cast(opt.section, opt.key, v, opt.cast, flag)
        choices = (opt.kw or {}).get("choices")
        if choices is not None and v not in choices:
            raise _UsageError(
                f"config value {opt.section}.{opt.key} must be "
                f"{' or '.join(choices)}, got {v!r}"
            )
        values[opt.section][opt.key] = v
    return values


# ----------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call.

    Parsing keeps no state in the parser, so reusing it gives every call
    the same result as a fresh process.
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
    for name, subcommand in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=subcommand.help)
        sub.add_argument("--config", help="JSON config file")
        for opt in subcommand.opts:
            kw = dict(opt.kw or {})
            if opt.cast in (int, float):
                kw["type"] = opt.cast
            sub.add_argument(opt.flag_name, dest=opt.key, help=opt.help, **kw)
    return parser


def _reads_as_numbers(token: str) -> bool:
    """Whether ``token`` is a number or a comma list of numbers."""
    try:
        for part in token.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _join_number_values(argv: list[str]) -> list[str]:
    """``argv`` with each token that starts with '-' and reads as numbers
    joined to the flag before it, as ``--flag=value``, when that flag
    names or abbreviates an option of the subcommand that takes a value.

    argparse reads -1 and -1.5 as values but -1e-3, -1E-1 and -1,-2,-3 as
    flags, so ``--rho -1e-3`` would lose its value; joined, it reads as
    ``--rho=-1e-3`` does.  A token that does not read as numbers, such
    as ``--out``, is left as it is, and a flag before it still misses
    its value.
    """
    command = next((a for a in argv if a in _SUBCOMMANDS), None)
    if command is None:
        return argv
    flags = ["--config", *(o.flag_name for o in _SUBCOMMANDS[command].opts
                           if "action" not in (o.kw or {}))]
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and _reads_as_numbers(token)
                and len(prev) > 2 and prev.startswith("--") and "=" not in prev
                and any(f.startswith(prev) for f in flags)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_number_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        config = _load_config(args.config, args.subcommand)
        opts = _resolve(args, config, _SUBCOMMANDS[args.subcommand].opts)
        return int(_SUBCOMMANDS[args.subcommand].run(opts))
    # DomainError, EmptyRegion and HypothesisViolated are ValueErrors
    except (_UsageError, ValueError, SamplingExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
