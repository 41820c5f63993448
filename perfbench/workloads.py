"""The four benchmark workloads.

Each workload builds its specs from the workload seed alone, runs them
through a public entry point of the program, and checks every result.
All load is closed loop from this one process: the next operation
starts when the previous one has returned.

A *pass* runs the workload's whole spec list once.  Every pass of a run
uses the same specs, so every pass must produce the same statistics
fingerprint; that is one of the checks.  After the simulating
("fresh") operations, each simulation workload stores its results in a
temporary result cache and asks the same entry point again, so the
cached answer path is timed too ("cached" operations).
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import numpy as np

from checks import (
    conserves,
    finite_stats,
    fingerprint,
    held_misses,
    result_ok,
    result_row,
    stage1_misses,
    theorem1_mean,
)

#: process-pool width for the stacked sweep: two, but never above nproc
POOL_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Op:
    """One closed-loop operation: spec(s) in, result(s) out."""

    kind: str  # "fresh" (simulated) or "cached" (answered by the result cache)
    seconds: float
    hops: int = 0  # measured message-hops of the results (fresh only)


@dataclass
class PassResult:
    ops: List[Op]
    fingerprint: str
    attempted: int
    failed: int
    backend: str
    #: wall x workers - sum of per-result engine seconds, per fresh run_many call
    pool_overhead_s: float = 0.0
    result_bytes: int = 0
    retries: int = 0
    rejected: int = 0
    #: seconds during which layer probes were installed (traced passes)
    traced_seconds: float = 0.0
    #: (untraced, traced) ns per hop of an in-process replay, when the
    #: pass measures its own tracing overhead
    overhead_pair: Optional[tuple] = None

    def fresh(self) -> List[Op]:
        return [op for op in self.ops if op.kind == "fresh"]

    def hop_ns(self) -> float:
        """Median over fresh operations of host ns per message-hop."""
        return statistics.median(op.seconds / op.hops * 1e9 for op in self.fresh() if op.hops)


@dataclass
class State:
    specs: list
    workdir: str
    extra: dict = field(default_factory=dict)


def _seeds(seed: int, salt: int, n: int) -> List[int]:
    """``n`` distinct config seeds derived from the workload seed."""
    base = int(np.random.default_rng([seed, salt]).integers(1, 2**40))
    return [base + i for i in range(n)]


def _payload_bytes(results) -> int:
    """Bytes a worker ships per result: the pickled cache payload."""
    from repro.exec.cache import result_to_payload

    return sum(len(pickle.dumps(result_to_payload(r))) for r in results)


def _batch_accounting(batch) -> tuple:
    """``(pool overhead seconds, retries)`` of one run_many call."""
    engine_seconds = sum(o.elapsed_seconds for o in batch.outcomes if o.status == "completed")
    retries = sum(max(o.attempts - 1, 0) for o in batch.outcomes)
    return batch.elapsed_seconds * batch.workers - engine_seconds, retries


def _cached_probe(specs, outcomes, workdir, **run_kwargs) -> tuple:
    """Store fresh outcomes in a new cache and time run_many answering from it.

    Returns ``(op, results, n_not_cached)``.
    """
    from repro.exec import ResultCache, run_many

    root = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        cache = ResultCache(root)
        for o in outcomes:
            cache.put(o.spec, o.result)
        t0 = perf_counter()
        batch = run_many(specs, cache=cache, **run_kwargs)
        dt = perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    misses = sum(1 for o in batch.outcomes if o.status != "cached")
    return Op("cached", dt), [o.result for o in batch.outcomes], misses


def _check_batch(results, cached_results, extra_failed=0) -> tuple:
    """``(attempted, failed, fingerprint)`` for fresh + cached results."""
    ok = [r is not None and result_ok(r) for r in results]
    failed = extra_failed + ok.count(False)
    good = [r for r, fine in zip(results, ok) if fine]
    failed += stage1_misses(good)
    fp = fingerprint(result_row(r) for r in good)
    cached_good = [r for r in cached_results if r is not None]
    if fingerprint(result_row(r) for r in cached_good) != fp or len(cached_good) != len(good):
        failed += len(cached_results)
    return len(results) + len(cached_results), failed, fp


class Workload:
    name = ""
    #: True when a traced pass measures its own untraced baseline
    self_paired = False

    def specs(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> State:
        specs = self.specs(seed)
        for spec in specs:
            theorem1_mean(spec.config.k, spec.config.p)
        state = State(specs=specs, workdir=workdir)
        self.warm(state)
        return state

    def warm(self, state: State) -> None:
        """Finish lazy set-up (first-call costs) before anything is timed."""

    def teardown(self, state: State) -> None:
        pass

    def size(self, state: State) -> dict:
        first = state.specs[0]
        return {
            "replicas": len(state.specs),
            "cycles": first.n_cycles,
            "warmup": first.warmup,
            "stages": sorted({s.config.n_stages for s in state.specs}),
            "width": sorted({s.config.k ** s.config.n_stages for s in state.specs}),
            "loads": sorted({s.config.p for s in state.specs}),
        }

    def run_pass(self, state: State, probes=None) -> PassResult:
        raise NotImplementedError


def _spec(k, n_stages, p, seed, n_cycles, warmup, track_limit=200_000):
    from repro.exec import ExperimentSpec
    from repro.simulation.network import NetworkConfig

    config = NetworkConfig(k=k, n_stages=n_stages, p=p, seed=seed, track_limit=track_limit)
    return ExperimentSpec(config=config, n_cycles=n_cycles, warmup=warmup)


class PaperSerial(Workload):
    name = "paper-serial"
    N_SEEDS, CYCLES, WARMUP = 8, 600, 100

    def specs(self, seed):
        return [_spec(2, 6, 0.5, s, self.CYCLES, self.WARMUP)
                for s in _seeds(seed, 1, self.N_SEEDS)]

    def warm(self, state):
        from repro.simulation.network import NetworkConfig, NetworkSimulator

        NetworkSimulator(NetworkConfig(k=2, n_stages=6, p=0.5, seed=0)).run(20, warmup=0)

    def run_pass(self, state, probes=None):
        from repro.exec import ResultCache, run_many
        from repro.simulation.network import NetworkSimulator

        t_traced = perf_counter()
        with _maybe(probes, "simulation", "exec"):
            ops, results, failed = [], [], 0
            for spec in state.specs:
                t0 = perf_counter()
                sim = NetworkSimulator(spec.config)
                result = sim.run(spec.n_cycles, warmup=spec.warmup)
                dt = perf_counter() - t0
                ops.append(Op("fresh", dt, int(result.stage_counts.sum())))
                if not result_ok(result, in_flight=sim.engine.in_flight):
                    failed += 1
                    result = None
                results.append(result)
                if probes is not None:
                    probes.held()
            # the cached answer to the same spec, one spec per request
            root = tempfile.mkdtemp(prefix="cache-", dir=state.workdir)
            cached, misses = [], 0
            try:
                cache = ResultCache(root)
                for spec, result in zip(state.specs, results):
                    if result is None:
                        continue
                    cache.put(spec, result)
                    t0 = perf_counter()
                    outcome = run_many([spec], cache=cache).outcomes[0]
                    ops.append(Op("cached", perf_counter() - t0))
                    misses += outcome.status != "cached"
                    cached.append(outcome.result)
            finally:
                shutil.rmtree(root, ignore_errors=True)
        traced = perf_counter() - t_traced
        attempted, failed, fp = _check_batch(results, cached, failed + misses)
        return PassResult(
            ops=ops, fingerprint=fp, attempted=attempted, failed=failed,
            backend=results[0].backend if results[0] else "?",
            result_bytes=_payload_bytes(r for r in results if r) if probes else 0,
            traced_seconds=traced if probes else 0.0,
        )


class _BatchWorkload(Workload):
    """A workload whose fresh operation is one run_many call per pass."""

    run_kwargs: dict = {}

    def _fresh(self, state, probes=None, **overrides):
        """One timed run_many call; ``misses`` counts conservation failures
        found against the queues the probes saw built (in-process only)."""
        from repro.exec import run_many

        kwargs = dict(self.run_kwargs, **overrides)
        t0 = perf_counter()
        batch = run_many(state.specs, **kwargs)
        dt = perf_counter() - t0
        results = [o.result for o in batch.outcomes]
        hops = sum(int(r.stage_counts.sum()) for r in results if r is not None)
        misses = held_misses(results, probes.held()) if probes is not None else 0
        return Op("fresh", dt, hops), batch, results, misses

    def run_pass(self, state, probes=None):
        t_traced = perf_counter()
        with _maybe(probes, "simulation", "exec"):
            op, batch, results, misses = self._fresh(state, probes)
            probe, cached, cache_misses = _cached_probe(
                state.specs, batch.outcomes, state.workdir, **self.run_kwargs
            )
        traced = perf_counter() - t_traced
        return self._finish([op, probe], batch, results, cached, misses + cache_misses,
                            probes, traced)

    def _finish(self, ops, batch, results, cached, misses, probes, traced,
                overhead_pair=None):
        overhead, retries = _batch_accounting(batch)
        attempted, failed, fp = _check_batch(results, cached, misses)
        return PassResult(
            ops=ops, fingerprint=fp, attempted=attempted, failed=failed,
            backend=next((r.backend for r in results if r is not None), "?"),
            pool_overhead_s=overhead, retries=retries,
            result_bytes=_payload_bytes(r for r in results if r) if probes else 0,
            traced_seconds=traced if probes else 0.0,
            overhead_pair=overhead_pair,
        )


class ReplicaStream(_BatchWorkload):
    name = "replica-stream"
    LOADS, PER_LOAD, CYCLES, WARMUP = (0.3, 0.5, 0.8), 16, 300, 60
    run_kwargs = {"stream": True, "workers": 1}

    def specs(self, seed):
        seeds = iter(_seeds(seed, 2, len(self.LOADS) * self.PER_LOAD))
        return [_spec(2, 6, p, next(seeds), self.CYCLES, self.WARMUP, track_limit=0)
                for _ in range(self.PER_LOAD) for p in self.LOADS]

    def warm(self, state):
        from repro.exec import run_many

        run_many([_spec(2, 6, 0.5, 1, 20, 0, track_limit=0)], stream=True)


class TableSweep(_BatchWorkload):
    name = "table-sweep"
    LOADS = tuple(round(0.1 * i, 1) for i in range(1, 10))
    STAGES, PER_LOAD, CYCLES, WARMUP = (3, 6), 4, 360, 120
    run_kwargs = {"vectorize": True, "workers": POOL_WORKERS}
    self_paired = True

    def specs(self, seed):
        seeds = iter(_seeds(seed, 3, len(self.STAGES) * len(self.LOADS) * self.PER_LOAD))
        return [_spec(2, n, p, next(seeds), self.CYCLES, self.WARMUP)
                for n in self.STAGES for p in self.LOADS for _ in range(self.PER_LOAD)]

    def warm(self, state):
        from repro.exec import run_many

        run_many([_spec(2, 3, 0.5, s, 20, 0) for s in (1, 2)], vectorize=True)

    def run_pass(self, state, probes=None):
        if probes is None:
            return super().run_pass(state)
        # Pool workers cannot report spans or queues back, so the pooled
        # call runs unprobed (it still yields the pool accounting) and
        # the probes watch an in-process replay of the same groups; with
        # layer probes the replay is also timed once plain, for the
        # tracing overhead.
        op, batch, results, _ = self._fresh(state)
        replays = []
        if probes.layers:
            plain, _, plain_results, _ = self._fresh(state, workers=1)
            replays.append(plain_results)
        t_traced = perf_counter()
        with probes.active("simulation", "exec"):
            replay, _, replay_results, misses = self._fresh(state, probes, workers=1)
            probe, cached, cache_misses = _cached_probe(
                state.specs, batch.outcomes, state.workdir, **self.run_kwargs
            )
        traced = perf_counter() - t_traced
        replays.append(replay_results)
        misses += cache_misses
        fp = fingerprint(result_row(r) for r in results if r is not None)
        for other in replays:
            if fingerprint(result_row(r) for r in other if r is not None) != fp:
                misses += len(other)
        pair = None
        if probes.layers:
            pair = (plain.seconds / plain.hops * 1e9, replay.seconds / replay.hops * 1e9)
        return self._finish([op, probe], batch, results, cached, misses, probes, traced,
                            overhead_pair=pair)


class ServiceMixed(Workload):
    name = "service-mixed"
    N_FRESH, N_CACHED, CYCLES, WARMUP, STAGES = 36, 72, 80, 20, 3
    LOADS = (0.3, 0.5, 0.7)

    def specs(self, seed):
        fresh = _seeds(seed, 4, self.N_FRESH)
        cached = _seeds(seed, 5, self.N_CACHED)
        plan = []
        for i in range(self.N_FRESH):
            p = self.LOADS[i % len(self.LOADS)]
            plan.append(("fresh", _spec(2, self.STAGES, p, fresh[i], self.CYCLES, self.WARMUP)))
            for j in (2 * i, 2 * i + 1):
                q = self.LOADS[j % len(self.LOADS)]
                plan.append(("cached",
                             _spec(2, self.STAGES, q, cached[j], self.CYCLES, self.WARMUP)))
        return plan

    def setup(self, seed, workdir):
        from repro.api import result_summary
        from repro.exec import ResultCache, run_many

        plan = self.specs(seed)
        root = tempfile.mkdtemp(prefix="service-", dir=workdir)
        primed = os.path.join(root, "primed")
        cached_specs = [spec for kind, spec in plan if kind == "cached"]
        batch = run_many(cached_specs, cache=ResultCache(primed), workers=POOL_WORKERS)
        expected = {o.spec.digest: result_summary(o.result) for o in batch.outcomes if o.ok}
        state = State(specs=plan, workdir=root,
                      extra={"primed": primed, "expected": expected, "server": None})
        self._start_server(state)
        return state

    def _start_server(self, state) -> None:
        """A fresh server and job manager over a fresh copy of the primed cache."""
        from repro.api import ApiClient, JobManager, make_server, start_in_thread
        from repro.exec import ResultCache

        cache_root = tempfile.mkdtemp(prefix="cache-", dir=state.workdir)
        shutil.copytree(state.extra["primed"], cache_root, dirs_exist_ok=True)
        manager = JobManager(executors=1, workers=1, cache=ResultCache(cache_root))
        server = make_server(port=0, manager=manager, quiet=True)
        thread = start_in_thread(server)
        client = ApiClient(f"http://127.0.0.1:{server.port}")
        client.healthz()
        state.extra.update(server=server, thread=thread, client=client, cache_root=cache_root)

    def _stop_server(self, state) -> None:
        server = state.extra.get("server")
        if server is None:
            return
        server.shutdown()
        server.server_close()
        state.extra["thread"].join(timeout=30)
        shutil.rmtree(state.extra["cache_root"], ignore_errors=True)
        state.extra["server"] = None

    def teardown(self, state):
        self._stop_server(state)
        shutil.rmtree(state.workdir, ignore_errors=True)

    def size(self, state):
        specs = [spec for _, spec in state.specs]
        first = specs[0]
        return {
            "requests": len(specs),
            "fresh": sum(kind == "fresh" for kind, _ in state.specs),
            "cached": sum(kind == "cached" for kind, _ in state.specs),
            "cycles": first.n_cycles,
            "warmup": first.warmup,
            "stages": [first.config.n_stages],
            "width": [first.config.k ** first.config.n_stages],
            "loads": list(self.LOADS),
        }

    def run_pass(self, state, probes=None):
        from repro.errors import ApiError
        from repro.exec import ResultCache

        client = state.extra["client"]
        expected = state.extra["expected"]
        ops, rows, failed, rejected, fresh_specs, result_bytes = [], [], 0, 0, [], 0
        t_traced = perf_counter()
        with _maybe(probes, "simulation", "exec", "api"):
            for kind, spec in state.specs:
                t0 = perf_counter()
                try:
                    run = client.submit({"spec": spec.to_jsonable()})["runs"][0]
                    client.events(run["digest"])
                    doc = client.run(run["digest"])
                except ApiError as exc:
                    rejected += "HTTP 429" in str(exc)
                    failed += 1
                    ops.append(Op(kind, perf_counter() - t0))
                    continue
                ops.append(Op(kind, perf_counter() - t0))
                summary = doc.get("result")
                if kind == "cached":
                    good = (run["cached"] and run["digest"] == spec.digest
                            and summary == expected.get(spec.digest))
                else:
                    fresh_specs.append((len(ops) - 1, spec))
                    config = spec.config
                    n_ports = config.n_stages * config.k ** config.n_stages
                    good = (doc.get("status") == "done" and not run["cached"]
                            and summary is not None
                            and _summary_ok(summary, n_ports))
                if not good:
                    failed += 1
                    continue
                rows.append((summary["stage_means"], summary["stage_variances"],
                             summary["injected"], summary["completed"]))
        traced = perf_counter() - t_traced
        # measured hops of each fresh answer, read back from the cache the
        # server wrote (outside the timed and probed section)
        cache = ResultCache(state.extra["cache_root"])
        fresh_results = []
        for index, spec in fresh_specs:
            result = cache.get(spec)
            if result is None:
                failed += 1
                continue
            ops[index].hops = int(result.stage_counts.sum())
            rows.append(result_row(result))
            fresh_results.append(result)
        if probes is not None:
            failed += held_misses(fresh_results, probes.held())
            result_bytes = _payload_bytes(fresh_results)
        self._stop_server(state)
        self._start_server(state)
        return PassResult(
            ops=ops, fingerprint=fingerprint(rows), attempted=len(state.specs),
            # the service runs single specs on the serial engine, which
            # always uses the NumPy reference path
            failed=failed, backend="numpy", rejected=rejected, result_bytes=result_bytes,
            traced_seconds=traced if probes else 0.0,
        )


def _summary_ok(summary, n_ports) -> bool:
    """Finite statistics and conservation, from an API result summary."""
    return finite_stats(summary["stage_means"], summary["stage_variances"]) and conserves(
        summary["injected"], summary["completed"], summary["dropped"],
        summary["max_occupancy"], n_ports,
    )


def _maybe(probes, *groups):
    """``probes.active(*groups)`` when tracing, else a no-op context."""
    return probes.active(*groups) if probes is not None else nullcontext()


WORKLOADS = {w.name: w for w in (PaperSerial(), ReplicaStream(), TableSweep(), ServiceMixed())}
