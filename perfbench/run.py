"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` alternates plain and probed passes and reports the
per-layer split (``perfbench/README.md`` lists every metric, the layer
it belongs to and the end-to-end metric it should move).  Human-readable
lines come first; the last line of standard output is the JSON result.
Probed runs also write their spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _quantile(values, q: float) -> float:
    """The ``q`` quantile (``statistics.quantiles`` inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(workload, passes, setup_s, peak_rss_mb) -> tuple:
    """End-to-end metrics (plus sample counts for the report)."""
    ops = [op for p in passes for op in p.ops]
    fresh = [op.seconds for op in ops if op.kind == "fresh"]
    cached = [op.seconds for op in ops if op.kind == "cached"]
    # service requests are the workload's mix; elsewhere the fresh
    # operations are, and the cached read-back is timed on its own
    mix = [op.seconds for op in ops] if workload.name == "service-mixed" else fresh
    hop_ns = [op.seconds / op.hops * 1e9 for op in ops if op.kind == "fresh" and op.hops]
    metrics = {
        "hop_ns": (statistics.median(hop_ns), "ns"),
        "run_s_p50": (statistics.median(fresh), "s"),
        "latency_ms_p50": (statistics.median(mix) * 1e3, "ms"),
        "latency_ms_p90": (_quantile(mix, 0.9) * 1e3, "ms"),
        "fresh_ms_p50": (statistics.median(fresh) * 1e3, "ms"),
        "cached_ms_p50": (statistics.median(cached) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"passes": len(passes), "fresh": len(fresh), "cached": len(cached),
               "latency": len(mix)}
    return metrics, samples


def _layers(tracer, traced, plain) -> dict:
    """Per-layer metrics from the probed passes ``traced``."""
    from workloads import _batch_accounting

    agg = tracer.aggregate()
    n = len(traced)
    wall = sum(p.traced_seconds for p in traced)

    def entry(name):
        return agg.get(name, {"calls": 0, "count": 0, "total": 0.0, "self": 0.0})

    def per(name, scale, by="count"):
        e = entry(name)
        return e["total"] / e[by] * scale if e[by] else 0.0

    def timer_per_cycle(name):
        calls = tracer.timer_calls.get(name, 0)
        return tracer.timers[name] / calls * 1e6 if calls else 0.0

    # streamed pre-draw: from entry into run_streamed to its first push
    predraw = 0.0
    first_push: dict = {}
    for name, start, _, parent, _ in tracer.spans:
        if name == "switch.push" and parent is not None:
            first_push.setdefault(parent, start)
    for i, (name, start, _, _, _) in enumerate(tracer.spans):
        if name == "streamed.run":
            predraw += first_push.get(i, start) - start
    switch = [entry(f"switch.{op}") for op in ("push", "pop", "peek")]
    attributed = sum(e["self"] for e in agg.values())
    requests = [op for p in traced for op in p.ops]
    job_run = entry("api.job_run")
    # fresh run_many calls: the passes' own, and the job manager's
    accounts = [(p.pool_overhead_s, p.retries) for p in traced]
    accounts += [_batch_accounting(b) for b in tracer.batches]
    if any(p.overhead_pair for p in traced):
        overhead = statistics.median(p.overhead_pair[1] / p.overhead_pair[0] for p in traced)
    else:
        overhead = (statistics.median(p.hop_ns() for p in traced)
                    / statistics.median(p.hop_ns() for p in plain))
    metrics = {
        "engine.inject_us_per_cycle": (timer_per_cycle("engine.inject"), "us"),
        "engine.serve_us_per_cycle": (timer_per_cycle("engine.serve"), "us"),
        "engine.tick_us_per_cycle": (timer_per_cycle("engine.tick"), "us"),
        "engine.cycles": (tracer.timer_calls.get("engine.inject", 0) / n, "count"),
        "switch.push_ns_per_msg": (per("switch.push", 1e9), "ns"),
        "switch.pop_ns_per_msg": (per("switch.pop", 1e9), "ns"),
        "switch.peek_ns_per_call": (per("switch.peek", 1e9, "calls"), "ns"),
        "switch.calls": (sum(e["calls"] for e in switch) / n, "count"),
        "switch.msgs": (entry("switch.push")["count"] / n, "count"),
        "switch.self_share": (sum(e["self"] for e in switch) / wall, "ratio"),
        "traffic.generate_us_per_cycle": (per("traffic.generate", 1e6, "calls"), "us"),
        "streamed.predraw_s": (predraw / n, "s"),
        "streamed.self_s": ((entry("streamed.run")["self"] - predraw) / n, "s"),
        "stats.add_ns_per_msg": (per("stats.add", 1e9), "ns"),
        "stats.record_ns_per_msg": (per("stats.record", 1e9), "ns"),
        "stats.totals_reduce_s": (entry("stats.totals_reduce")["total"] / n, "s"),
        "backends.inject_s": (tracer.timers.get("backends.inject", 0.0) / n, "s"),
        "backends.serve_s": (tracer.timers.get("backends.serve", 0.0) / n, "s"),
        "backends.tick_s": (tracer.timers.get("backends.tick", 0.0) / n, "s"),
        "exec.pool_overhead_s": (sum(a[0] for a in accounts) / n, "s"),
        "exec.result_bytes": (sum(p.result_bytes for p in traced) / n, "B"),
        "exec.retries": (sum(a[1] for a in accounts) / n, "count"),
        "exec.cache_get_ms": (per("exec.cache_get", 1e3, "calls"), "ms"),
        "exec.cache_put_ms": (per("exec.cache_put", 1e3, "calls"), "ms"),
        "exec.cache_hit_ratio": (
            entry("exec.cache_get")["count"] / entry("exec.cache_get")["calls"]
            if entry("exec.cache_get")["calls"] else 0.0, "ratio"),
        "exec.digest_us": (per("exec.digest", 1e6, "calls"), "us"),
        "api.submit_ms": (per("api.submit", 1e3, "calls"), "ms"),
        "api.job_run_ms": (per("api.job_run", 1e3, "calls"), "ms"),
        "api.overhead_ms": (
            (sum(op.seconds for op in requests) - job_run["total"]) / len(requests) * 1e3
            if entry("api.submit")["calls"] else 0.0, "ms"),
        "api.rejected": (sum(p.rejected for p in traced) / n, "count"),
        "unattributed_share": (1.0 - attributed / wall, "ratio"),
        "trace_overhead": (overhead, "ratio"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    t_import = perf_counter()
    import numpy
    import scipy.stats  # noqa: F401 -- used by the Theorem-1 check

    import repro.api  # noqa: F401
    import repro.exec  # noqa: F401
    import repro.simulation.batched  # noqa: F401
    import repro.simulation.streamed  # noqa: F401
    from spans import Probes, Tracer
    from workloads import POOL_WORKERS, WORKLOADS

    import_s = perf_counter() - t_import

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        t0 = perf_counter()
        state = workload.setup(args.seed, workdir)
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    passes, plain, traced, audit = [], [], [], None
    tracer = Tracer()
    probes = Probes(tracer)
    deadline = perf_counter() + args.seconds
    try:
        if not args.trace:
            while len(passes) < 2 or perf_counter() < deadline:
                passes.append(workload.run_pass(state))
            peak_rss_mb = _peak_rss_mb()
            # untimed: one more pass that audits conservation exactly
            # against the queues it builds (traced runs do this anyway)
            audit = workload.run_pass(state, Probes(Tracer(), layers=False))
        elif workload.self_paired:
            while not traced or perf_counter() < deadline:
                traced.append(workload.run_pass(state, probes))
            passes = traced
        else:
            while not traced or perf_counter() < deadline:
                plain.append(workload.run_pass(state))
                traced.append(workload.run_pass(state, probes))
            passes = plain + traced
    finally:
        workload.teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)

    checked = passes + ([audit] if audit else [])
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    fingerprints = sorted({p.fingerprint for p in checked})
    if len(fingerprints) != 1:
        failed += sum(p.attempted for p in checked if p.fingerprint != passes[0].fingerprint)
    failed = min(failed, attempted)

    if args.trace:
        metrics = _layers(tracer, traced, plain)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        samples = {"traced_passes": len(traced), "plain_passes": len(plain),
                   "spans": len(tracer.spans)}
    else:
        metrics, samples = _end_to_end(workload, passes, setup_s, peak_rss_mb)

    provenance = {
        "workload": workload.name,
        "why": _why(workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": _numba_present(),
        "backend": sorted({p.backend for p in passes}),
        "nproc": os.cpu_count(),
        "pool_workers": POOL_WORKERS,
        "git_commit": _git_commit(),
        "input": workload.size(state),
    }
    if args.trace and workload.self_paired:
        provenance["traced_in_process"] = (
            "layers inside pool workers were traced on an in-process replay (workers=1)"
        )
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(f"# samples {json.dumps(samples)}")
    print(f"# fingerprint {' '.join(fingerprints)} (passes: {len(checked)})")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and len(fingerprints) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _why(name: str) -> str:
    """The workload's one-line reason, as recorded in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in doc["workloads"] if w["name"] == name)


def _numba_present() -> bool:
    import importlib.util

    return importlib.util.find_spec("numba") is not None


if __name__ == "__main__":
    sys.exit(main())
