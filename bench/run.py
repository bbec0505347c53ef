"""pinchlab benchmark: times one workload and checks every verdict.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported
from the checkout's ``src`` directory and from nowhere else.  With
``--trace 0`` the run repeats passes of the workload until ``--seconds``
have gone by and reports the end-to-end metrics: medians over passes,
untraced.  With ``--trace 1`` it alternates untraced and traced passes
on the inputs of the first pass and reports the per-layer metrics,
which must repeat exactly across the traced passes where they are
counts.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any verdict was wrong.

Run records (environment, per-pass figures, spans of the first traced
pass) go to ``.bench_out/`` in the checkout.  Untraced runs set
``PINCHLAB_THREADS`` to 1: the verifier's two pool threads wait on each
other for a share of the run that swings with the host's load, and that
swing spread ``wall_s`` past its bound.  Traced runs unset it, so the
pool runs at its default worker count, and time one-worker passes
beside.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
TIMED_WORKERS = "1"  # PINCHLAB_THREADS of the untraced runs
PROBE_TIMEOUT_S = 120

# name -> unit; every name is printed by every untraced run
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ensemble", "single", "kernels"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # child mode: time set-up once
    return ap.parse_args(argv)


def use_checkout_package() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "pinchlab" / "__init__.py").is_file():
        print(f"error: no pinchlab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def probe(workload_name: str) -> None:
    """Child mode: time the imports and the first calls of a workload."""
    start = time.perf_counter()
    import workloads  # imports numpy and pinchlab

    workdir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload_name](0, workdir).warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(time.perf_counter() - start))


def setup_times(workload_name: str) -> list[float]:
    """Set-up seconds of fresh interpreters, one after the other."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload_name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited {done.returncode}")
        out.append(float(done.stdout.split()[-1]))
    return out


@contextlib.contextmanager
def pool_workers(count: str | None):
    """Set ``PINCHLAB_THREADS`` to ``count`` inside the block, or unset it
    for None so the verifier's pool runs at its default size."""
    saved = os.environ.pop("PINCHLAB_THREADS", None)
    if count is not None:
        os.environ["PINCHLAB_THREADS"] = count
    try:
        yield
    finally:
        os.environ.pop("PINCHLAB_THREADS", None)
        if saved is not None:
            os.environ["PINCHLAB_THREADS"] = saved


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unavailable (unresolved {ref})"


def env_record(threads_was: str | None) -> dict:
    import numpy

    from pinchlab import verifier

    with pool_workers(None):
        default = verifier.thread_count()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_workers": default,
        "run_workers": verifier.thread_count(),
        "PINCHLAB_THREADS": os.environ.get("PINCHLAB_THREADS", "unset"),
        "PINCHLAB_THREADS_of_caller": "unset" if threads_was is None else threads_was,
        "machine": platform.machine(),
    }


@dataclass
class Pass:
    """Timing and verdicts of one pass."""

    wall: float
    cpu: float
    latencies: list[float]
    work: int
    failures: list[str]


def run_pass(workload, seed: int, around=contextlib.nullcontext) -> Pass:
    """Run one pass; wall and CPU time cover the calls, not the checks.

    ``around()`` is entered for each call alone, so a tracer sees the
    workload's calls and not the checks that follow them.
    """
    latencies, failures, work, cpu = [], [], 0, 0.0
    for op in workload.ops(seed):
        reason = None
        with around():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call()
            except Exception as exc:  # a raising call is a failed operation
                reason = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
        if reason is None:
            reason = op.check(result)
            work += op.done(result)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    workload.end_pass(seed)
    return Pass(sum(latencies), cpu, latencies, work, failures)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least ten
    samples beyond it: the eleventh largest of n samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(workload, args):
    from workloads import pass_seed

    passes = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, pass_seed(args.seed, index)))
        index += 1
    lat = [x for p in passes for x in p.latencies]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "throughput_per_s": statistics.median(p.work / p.wall for p in passes),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
    }
    info = {"pass_count": len(passes), "ops": len(lat), "tail_percentile": tail_pct}
    return metrics, passes, info


def traced_run(workload, args):
    import tracing
    from pinchlab import verifier
    from workloads import pass_seed

    workers = verifier.thread_count()
    seed0 = pass_seed(args.seed, 0)
    untraced, traced_walls, one_worker, layers, passes = [], [], [], [], []
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    while len(layers) < 2 or time.perf_counter() < deadline:
        plain = run_pass(workload, seed0)
        untraced.append(plain.wall)
        with pool_workers(TIMED_WORKERS):
            alone = run_pass(workload, seed0)
        one_worker.append(alone.wall)
        tracer = tracing.Tracer()
        p = run_pass(workload, seed0, around=lambda: tracing.traced(tracer))
        traced_walls.append(p.wall)
        layers.append(tracing.layer_metrics(tracer.spans, workers))
        passes += [plain, alone, p]
        if first_spans is None:
            first_spans, missing = tracing.span_rows(tracer.spans), sorted(tracer.missing)
    counters = [tracing.deterministic(m) for m in layers]
    mismatch = [
        f"counter {k} differs between traced passes: {[c[k] for c in counters]}"
        for k in counters[0] if any(c[k] != counters[0][k] for c in counters[1:])
    ]
    metrics = {k: counters[0][k] if k in counters[0] else statistics.median(m[k] for m in layers)
               for k in layers[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
    metrics["trace.one_worker_wall_s"] = statistics.median(one_worker)
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    info = {"traced_passes": len(layers), "workers": workers, "missing_sites": missing,
            "spans": first_spans}
    return metrics, units, passes, mismatch, info


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_package()
    if args.probe:
        probe(args.workload)
        return 0
    threads_was = os.environ.pop("PINCHLAB_THREADS", None)
    if not args.trace:
        os.environ["PINCHLAB_THREADS"] = TIMED_WORKERS

    setups = setup_times(args.workload)

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.warm_up()
        if args.trace:
            metrics, units, passes, mismatch, info = traced_run(workload, args)
        else:
            metrics, passes, info = timed_run(workload, args)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
        checks = workload.finish()
        if args.trace:
            checks.append("; ".join(mismatch) or None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures] + [c for c in checks if c]
    attempted = sum(len(p.latencies) for p in passes) + len(checks)
    failed = len(failures)
    env = env_record(threads_was)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_probes_s": setups,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "work": p.work,
                    "latencies_s": p.latencies, "failures": p.failures} for p in passes],
        "failures": failures, "metrics": metrics, **info,
    }
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))

    print(f"env {json.dumps(env, sort_keys=True)}")
    for f in failures:
        print(f"FAILED {f}")
    for note in workload.notes():
        print(note)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    if not args.trace:
        work_name = "points_per_s" if args.workload == "kernels" else "trajectories_per_s"
        print(f"  ({work_name} = throughput_per_s; op_tail_ms is p{info['tail_percentile']:.2f} "
              f"of {info['ops']} operations; ops_failed_frac = {failed / attempted!r})")
    else:
        overhead = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
        pool = metrics["trace.untraced_wall_s"] / metrics["trace.one_worker_wall_s"] - 1.0
        print(f"  tracing overhead {100 * overhead:+.1f}% of untraced wall_s; "
              f"{info['traced_passes']} traced passes at {info['workers']} workers; "
              f"untraced wall_s at {info['workers']} workers differs by {100 * pool:+.1f}% "
              f"from one worker")
        if info["missing_sites"]:
            print(f"  not traced, gone from the package: {', '.join(info['missing_sites'])}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
