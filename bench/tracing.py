"""Span tracing for the per-layer metrics of the traced run.

Spans are recorded from outside the package: each public function named
in ``SITES`` is replaced, at every module attribute through which a
caller looks it up, by a wrapper that records a span around the
original.  ``verifier`` for instance imports ``integrate`` by name, so
``pinchlab.verifier.integrate`` is one of the patched attributes.  The
package itself is never edited.

A span carries its name, start, end, thread and parent.  The parent is
the innermost open span on the same thread; a thread with no open span
(a worker of the verifier's thread pool) takes the innermost open
verifier call instead.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pinchlab import cli, cone_sets, eigen_ode, integrator, pinch_functions, verifier


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # sites the package no longer has
        self._ids = itertools.count()
        self._local = threading.local()
        self._verifier_span: int | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None, is_verifier=False):
        """Return ``fn`` wrapped so each call records a span ``name``.

        ``attrs(result, *args, **kwargs)`` runs after the span has
        closed and returns the span's counters (points, bytes, steps).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].id if stack else self._verifier_span
            span = Span(next(self._ids), name, parent, threading.get_ident(),
                        time.perf_counter())
            stack.append(span)
            if is_verifier:
                outer, self._verifier_span = self._verifier_span, span.id
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_verifier:
                    self._verifier_span = outer
                self.spans.append(span)  # one atomic append per span
            if attrs is not None:
                span.attrs = attrs(result, *args, **kwargs)
            return result

        return wrapper


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _points(index, key):
    def attrs(result, *args, **kwargs):
        return {"points": int(np.size(_arg(args, kwargs, index, key)))}
    return attrs


def _traj_attrs(traj, *args, **kwargs):
    return {
        "accepted": traj.stats["accepted"],
        "rejected": traj.stats["rejected"],
        "kind": traj.terminal.kind,
        "events": len(traj.events),
        "dense_bytes": traj.times.nbytes + traj.states_array.nbytes + traj.dense.nbytes,
    }


def _file_bytes(index, key):
    def attrs(result, *args, **kwargs):
        path = _arg(args, kwargs, index, key)
        return {"bytes": Path(path).stat().st_size if path else 0}
    return attrs


def _samples(result, *args, **kwargs):
    return {"samples": len(result)}


# (span name, module or class holding the original, attribute name,
#  every module or class the callers look it up through, counters)
SITES = (
    ("integrator.integrate", integrator, "integrate", (verifier, cli), _traj_attrs),
    ("integrator.eval_many", integrator.Trajectory, "eval_many",
     (integrator.Trajectory,), _points(1, "ts")),
    ("integrator.eval_at", integrator.Trajectory, "eval_at",
     (integrator.Trajectory,), None),
    ("verifier.check_invariance", verifier, "check_invariance", (verifier, cli), None),
    ("verifier.estimate_suite", verifier, "estimate_suite", (verifier, cli), None),
    ("verifier.deriv_suite", verifier, "deriv_suite", (verifier, cli), None),
    ("verifier.scan_inequality", verifier, "scan_inequality", (verifier, cli), None),
    ("cone_sets.sample_set", cone_sets, "sample_set", (cone_sets, verifier), _samples),
    ("cone_sets.margin_array", cone_sets, "margin_array",
     (cone_sets, verifier, cli), _points(1, "lam")),
    ("pinch_functions.f_inverse", pinch_functions, "f_inverse",
     (pinch_functions, cone_sets), _points(0, "y")),
    ("pinch_functions.poly", pinch_functions, "j_poly_array",
     (pinch_functions, verifier), _points(0, "l")),
    ("pinch_functions.poly", pinch_functions, "i_poly_array",
     (pinch_functions, verifier), _points(0, "l")),
    ("pinch_functions.poly", pinch_functions, "xi_prime_numerator_array",
     (pinch_functions, verifier), _points(0, "l")),
    ("pinch_functions.poly", pinch_functions, "estimate_rhs_array",
     (pinch_functions, verifier), _points(1, "smallest")),
    ("eigen_ode.rhs_array", eigen_ode, "rhs_array",
     (eigen_ode, pinch_functions, verifier), _points(0, "l")),
    ("cli.main", cli, "main", (cli,), None),
    ("cli.write_report", cli, "write_report", (cli,), _file_bytes(1, "out")),
    ("cli.export_trajectory", cli, "export_trajectory", (cli,), _file_bytes(2, "path")),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block.

    A site the package no longer defines is skipped and listed in
    ``tracer.missing``; its metrics then read 0.
    """
    saved = []
    try:
        for name, owner, attr, lookups, attrs in SITES:
            if attr not in owner.__dict__:
                tracer.missing.add(f"{owner.__name__}.{attr}")
                continue
            wrapper = tracer.wrap(name, owner.__dict__[attr], attrs,
                                  is_verifier=name.startswith("verifier."))
            for holder in lookups:
                if attr in holder.__dict__:
                    saved.append((holder, attr, holder.__dict__[attr]))
                    setattr(holder, attr, wrapper)
                else:
                    tracer.missing.add(f"{holder.__name__}.{attr}")
        yield tracer
    finally:
        for holder, attr, value in reversed(saved):
            setattr(holder, attr, value)


# ----------------------------------------------------------------------
# per-layer metrics

TERMINAL_KINDS = (integrator.BLOWUP, integrator.REACHED_END, integrator.STEP_LIMIT)
VERIFIER_CALLS = ("check_invariance", "estimate_suite", "deriv_suite", "scan_inequality")
POOLED_CALLS = ("verifier.check_invariance", "verifier.estimate_suite")

# name -> (unit, better, deterministic); the traced run reports exactly these
LAYER_METRICS = {
    "integrator.integrate.calls": ("count", "lower", True),
    "integrator.integrate.s": ("s", "lower", False),
    **{f"integrator.steps_accepted.{k}": ("count", "lower", True) for k in TERMINAL_KINDS},
    "integrator.steps_rejected": ("count", "lower", True),
    "integrator.rhs_evals": ("count", "lower", True),
    "integrator.accept_ratio": ("ratio", "higher", True),
    "integrator.us_per_step": ("us", "lower", False),
    **{f"integrator.terminal.{k}": ("count", "lower", True) for k in TERMINAL_KINDS},
    "integrator.events": ("count", "lower", True),
    "integrator.dense_bytes": ("B_computed", "lower", True),
    "integrator.eval_many.calls": ("count", "lower", True),
    "integrator.eval_many.points": ("count", "lower", True),
    "integrator.eval_many.s": ("s", "lower", False),
    "integrator.eval_at.calls": ("count", "lower", True),
    "integrator.eval_at.s": ("s", "lower", False),
    "verifier.pool_efficiency": ("ratio", "higher", False),
    **{f"verifier.{c}.s": ("s", "lower", False) for c in VERIFIER_CALLS},
    "verifier.self_s": ("s", "lower", False),
    "cone_sets.sample_set.calls": ("count", "lower", True),
    "cone_sets.sample_set.samples": ("count", "lower", True),
    "cone_sets.sample_set.margin_calls": ("count", "lower", True),
    "cone_sets.sample_set.s": ("s", "lower", False),
    "cone_sets.margin_array.calls": ("count", "lower", True),
    "cone_sets.margin_array.points": ("count", "lower", True),
    "cone_sets.margin_array.s": ("s", "lower", False),
    "pinch_functions.f_inverse.calls": ("count", "lower", True),
    "pinch_functions.f_inverse.points": ("count", "lower", True),
    "pinch_functions.f_inverse.ns_per_point": ("ns", "lower", False),
    "pinch_functions.poly.points": ("count", "lower", True),
    "pinch_functions.poly.s": ("s", "lower", False),
    "eigen_ode.rhs_array.points": ("count", "lower", True),
    "eigen_ode.rhs_array.s": ("s", "lower", False),
    "cli.main.calls": ("count", "lower", True),
    "cli.main.s": ("s", "lower", False),
    "cli.write_report.s": ("s", "lower", False),
    "cli.write_report.bytes": ("B", "lower", True),
    "cli.export_trajectory.s": ("s", "lower", False),
    "cli.export_trajectory.bytes": ("B", "lower", True),
    "cli.self_s": ("s", "lower", False),
    "trace.untraced_wall_s": ("s", "lower", False),
    "trace.traced_wall_s": ("s", "lower", False),
    "trace.one_worker_wall_s": ("s", "lower", False),
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Aggregate one traced pass into the ``LAYER_METRICS`` values
    (without the ``trace.*`` entries, which the caller measures).

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span; children on pool threads overlap,
    so a plain sum would count them twice.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    def self_time(names):
        out = 0.0
        for name in names:
            for s in by_name.get(name, ()):
                kids = [(max(c.start, s.start), min(c.end, s.end))
                        for c in children.get(s.id, ())]
                out += s.duration - _covered([k for k in kids if k[1] > k[0]])
        return out

    trajs = [s.attrs for s in by_name.get("integrator.integrate", ())]
    accepted = sum(t["accepted"] for t in trajs)
    attempted = accepted + sum(t["rejected"] for t in trajs)
    m: dict[str, float] = {
        "integrator.integrate.calls": len(trajs),
        "integrator.integrate.s": secs("integrator.integrate"),
        "integrator.steps_rejected": attempted - accepted,
        "integrator.rhs_evals": sum(1 + 6 * (t["accepted"] + t["rejected"]) for t in trajs),
        "integrator.accept_ratio": _ratio(accepted, attempted),
        "integrator.us_per_step": _ratio(1e6 * secs("integrator.integrate"), attempted),
        "integrator.events": sum(t["events"] for t in trajs),
        "integrator.dense_bytes": sum(t["dense_bytes"] for t in trajs),
    }
    for kind in TERMINAL_KINDS:
        ended = [t for t in trajs if t["kind"] == kind]
        m[f"integrator.steps_accepted.{kind}"] = sum(t["accepted"] for t in ended)
        m[f"integrator.terminal.{kind}"] = len(ended)
    m["integrator.eval_many.calls"] = calls("integrator.eval_many")
    m["integrator.eval_many.points"] = total("integrator.eval_many", "points")
    m["integrator.eval_many.s"] = secs("integrator.eval_many")
    m["integrator.eval_at.calls"] = calls("integrator.eval_at")
    m["integrator.eval_at.s"] = secs("integrator.eval_at")

    pooled = [s for name in POOLED_CALLS for s in by_name.get(name, ())]
    busy = sum(c.duration for s in pooled for c in children.get(s.id, ())
               if c.name == "integrator.integrate")
    m["verifier.pool_efficiency"] = _ratio(busy, workers * sum(s.duration for s in pooled))
    for c in VERIFIER_CALLS:
        m[f"verifier.{c}.s"] = secs(f"verifier.{c}")
    m["verifier.self_s"] = self_time([f"verifier.{c}" for c in VERIFIER_CALLS])

    sampler_ids = {s.id for s in by_name.get("cone_sets.sample_set", ())}
    m["cone_sets.sample_set.calls"] = len(sampler_ids)
    m["cone_sets.sample_set.samples"] = total("cone_sets.sample_set", "samples")
    m["cone_sets.sample_set.margin_calls"] = sum(
        1 for s in by_name.get("cone_sets.margin_array", ()) if s.parent in sampler_ids
    )
    m["cone_sets.sample_set.s"] = secs("cone_sets.sample_set")
    for name in ("cone_sets.margin_array", "pinch_functions.f_inverse"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.points"] = total(name, "points")
    m["cone_sets.margin_array.s"] = secs("cone_sets.margin_array")
    m["pinch_functions.f_inverse.ns_per_point"] = _ratio(
        1e9 * secs("pinch_functions.f_inverse"), m["pinch_functions.f_inverse.points"]
    )
    for name in ("pinch_functions.poly", "eigen_ode.rhs_array"):
        m[f"{name}.points"] = total(name, "points")
        m[f"{name}.s"] = secs(name)

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.s"] = secs("cli.main")
    for name in ("cli.write_report", "cli.export_trajectory"):
        m[f"{name}.s"] = secs(name)
        m[f"{name}.bytes"] = total(name, "bytes")
    m["cli.self_s"] = self_time(["cli.main"])
    return m


def deterministic(metrics: dict[str, float]) -> dict[str, float]:
    """The counters that must repeat exactly for identical inputs."""
    return {k: v for k, v in metrics.items() if LAYER_METRICS[k][2]}


def span_rows(spans: list[Span]) -> list[list]:
    """Compact rows for the trace file: id, name, parent, thread,
    start, end (seconds), counters."""
    return [[s.id, s.name, s.parent, s.thread, s.start, s.end, s.attrs] for s in spans]
