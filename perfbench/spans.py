"""In-memory span tracer and the layer probes the traced pass installs.

A span is ``(name, start, end, parent, count)``: ``parent`` is the index
of the span that was open on the same thread when this one began, and
``count`` the work it carried (messages for a queue push, one for a
call).  Spans stay in memory while the benchmark runs and are written
out once at the end (:meth:`Tracer.dump`).

The probes wrap the *public* functions of each layer from the outside
(class attributes and module attributes are swapped for timing wrappers
and restored afterwards); nothing inside the program is edited.  Phase
timers the program already exposes (``enable_profiling()`` on the serial
and the stacked engine) are switched on by the same wrappers.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, count]
        self.timers: dict = defaultdict(float)  # harvested engine phase timers
        self.timer_calls: dict = defaultdict(int)
        #: BatchResults returned by the job manager's run_many calls
        self.batches: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, count: int = 1):
        """Record the enclosed block as one span; yields its record."""
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None, count]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            stack.pop()

    def add_timers(self, prefix: str, before: dict, after: dict, calls: dict) -> None:
        """Fold the growth of a program-side ``PhaseTimers`` into ours."""
        for phase, seconds in after.items():
            self.timers[f"{prefix}.{phase}"] += seconds - before.get(phase, 0.0)
            self.timer_calls[f"{prefix}.{phase}"] += calls[phase]

    # ------------------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: ``calls``, ``count``, ``total`` and ``self`` seconds.

        Self time is the span's duration minus the time its direct
        children (same thread, nested) cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "count": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, _, count) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["count"] += count
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "count": count}
                    )
                    + "\n"
                )


def _size_of_first(args, kwargs) -> int:
    """Messages in a queue push/pop or a tracker record: ``len`` of the
    first argument after ``self``."""
    return len(args[1])


def _size_of_second(args, kwargs) -> int:
    """Messages in ``StageAccumulator.add(stages, waits)``."""
    return len(args[2])


class Probes:
    """Swap layer entry points for span-recording wrappers, and back.

    Every activation also records each ``RingBufferQueues`` built while it
    is active (:attr:`queues`), so a pass can check message conservation
    exactly against the queues' final occupancy.  ``layers=False`` keeps
    only that audit and installs no timing wrappers.
    """

    def __init__(self, tracer: Tracer, layers: bool = True) -> None:
        self.tracer = tracer
        self.layers = layers
        self.queues: list = []
        self._saved: list = []  # (owner, attribute, original)

    def _swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, count=None, classmethod_=False) -> None:
        tracer = self.tracer
        raw = owner.__dict__[attr]
        fn = raw.__func__ if classmethod_ else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, count(args, kwargs) if count else 1):
                return fn(*args, **kwargs)

        self._swap(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)

    def _wrap_engine(self, owner, name: str) -> None:
        """Time ``run`` and switch on the engine's own phase timers."""
        tracer = self.tracer
        fn = owner.__dict__["run"]

        @functools.wraps(fn)
        def run(engine, *args, **kwargs):
            timers = engine.enable_profiling()
            before = dict(timers.seconds)
            calls_before = dict(timers.calls)
            with tracer.span(name):
                out = fn(engine, *args, **kwargs)
            calls = {k: v - calls_before.get(k, 0) for k, v in timers.calls.items()}
            tracer.add_timers(name.split(".")[0], before, dict(timers.seconds), calls)
            return out

        self._swap(owner, "run", run)

    def install_simulation(self) -> None:
        """Engine, switch, traffic, stats, streamed and stacked layers."""
        from repro.simulation import streamed
        from repro.simulation.batched import BatchedClockedEngine
        from repro.simulation.engine import ClockedEngine
        from repro.simulation.stats import (
            BatchedTrackedMessages,
            StageAccumulator,
            StreamingTotals,
            TrackedMessages,
        )
        from repro.simulation.switch import RingBufferQueues
        from repro.simulation.traffic import NetworkTrafficGenerator

        self._wrap_engine(ClockedEngine, "engine.run")
        self._wrap_engine(BatchedClockedEngine, "backends.run")
        self._wrap(RingBufferQueues, "push_batch", "switch.push", _size_of_first)
        self._wrap(RingBufferQueues, "pop", "switch.pop", _size_of_first)
        self._wrap(RingBufferQueues, "peek", "switch.peek")
        self._wrap(NetworkTrafficGenerator, "generate", "traffic.generate")
        self._wrap(NetworkTrafficGenerator, "generate_batch", "traffic.generate")
        self._wrap(StageAccumulator, "add", "stats.add", _size_of_second)
        self._wrap(TrackedMessages, "record", "stats.record", _size_of_first)
        self._wrap(BatchedTrackedMessages, "record", "stats.record", _size_of_first)
        self._wrap(StreamingTotals, "from_totals", "stats.totals_reduce", classmethod_=True)
        # the runner imports run_streamed at call time, so the module
        # attribute is the one every shard reaches
        self._wrap(streamed, "run_streamed", "streamed.run")

    def install_exec(self) -> None:
        """Result cache and spec digest (parent-process side of ``exec``)."""
        from repro.exec.cache import ResultCache
        from repro.exec.spec import ExperimentSpec

        tracer = self.tracer
        self._wrap(ResultCache, "put", "exec.cache_put")
        get = ResultCache.__dict__["get"]

        @functools.wraps(get)
        def traced_get(cache, spec):
            with tracer.span("exec.cache_get") as record:
                result = get(cache, spec)
            record[4] = 0 if result is None else 1  # count = hits
            return result

        self._swap(ResultCache, "get", traced_get)
        digest = ExperimentSpec.__dict__["digest"]

        def traced_digest(spec):
            with tracer.span("exec.digest"):
                return digest.fget(spec)

        self._swap(ExperimentSpec, "digest", property(traced_digest, doc=digest.__doc__))

    def install_api(self) -> None:
        """Job submission and the manager's ``run_many`` calls."""
        from repro.api import jobs

        tracer = self.tracer
        self._wrap(jobs.JobManager, "submit", "api.submit")
        run_many = jobs.__dict__["run_many"]

        @functools.wraps(run_many)
        def traced_run_many(specs, **kwargs):
            with tracer.span("api.job_run", count=len(specs)):
                batch = run_many(specs, **kwargs)
            tracer.batches.append(batch)
            return batch

        self._swap(jobs, "run_many", traced_run_many)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install_queues(self) -> None:
        from repro.simulation.switch import RingBufferQueues

        init = RingBufferQueues.__dict__["__init__"]
        built = self.queues

        @functools.wraps(init)
        def recording_init(queues, *args, **kwargs):
            init(queues, *args, **kwargs)
            built.append(queues)

        self._swap(RingBufferQueues, "__init__", recording_init)

    def held(self) -> int:
        """Messages still buffered in the queues built so far; forgets them."""
        total = sum(q.total_occupancy() for q in self.queues)
        self.queues.clear()
        return total

    @contextmanager
    def active(self, *groups: str):
        """Install the queue audit and, with ``layers``, the named groups."""
        self.install_queues()
        for group in groups if self.layers else ():
            getattr(self, f"install_{group}")()
        try:
            yield self.tracer
        finally:
            self.uninstall()
