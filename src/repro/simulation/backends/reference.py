"""The vectorised NumPy cycle loop over stacked replicas.

Every phase is a whole-batch array pass -- a fixed number of NumPy
calls per cycle whatever the replica count -- over
:class:`~repro.simulation.switch.RingBufferQueues` holding every
replica's output queues.  The loop takes its arrivals one cycle at a
time from an iterator, so a design that draws live (the stacked
engine's traffic generator) never holds more than one cycle's draws.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import numpy as np

from repro.obs.profiling import PhaseTimers
from repro.simulation.sanitize import (
    check_conservation,
    check_queue_depths,
    check_stage_stats,
    sanitizer_enabled,
)
from repro.simulation.switch import RingBufferQueues

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.backends import StackedLoop

__all__ = ["Draws", "numpy_cycle_loop"]

#: one cycle's arrivals, one entry per message: global entry port,
#: destination, service time, and tracker slot (a message id in
#: streaming summary mode; ``-1`` = untracked)
Draws = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_FIELDS = {
    "dest": np.int64,
    "service": np.int64,
    "arrival": np.int64,
    "track": np.int64,
}


def numpy_cycle_loop(
    loop: "StackedLoop",
    n_cycles: int,
    warmup: int,
    cycles: Iterable[Draws],
    timers: Optional[PhaseTimers] = None,
) -> np.ndarray:
    """Run ``n_cycles`` of inject / serve / forward / tick over ``loop``.

    Accumulates into ``loop``'s statistics, completion counts, and
    tracker (or streaming totals), records ``inject``/``serve``/``tick``
    wall time into ``timers`` when given, and returns the per-port
    occupancy high-water marks.  Bit-identical to the kernel path:
    waiting times are integers, so every accumulation is exact.
    """
    width = loop.width
    n_stages = loop.n_stages
    k = loop.topology.k
    ppr = loop.ports_per_replica
    n_replicas = loop.n_replicas
    perm_stack, shifts = loop.perm_stack, loop.shifts
    stats, tracker, completed = loop.stats, loop.tracker, loop.completed
    msg_total, msg_done = loop.msg_total, loop.msg_done
    streaming = tracker is None
    queues = RingBufferQueues(loop.n_ports, _FIELDS, capacity=64)
    busy = np.zeros(loop.n_ports, dtype=np.int64)
    sanitize = sanitizer_enabled()
    injected = 0
    arrivals = iter(cycles)
    for t in range(n_cycles):
        measuring = t >= warmup

        # -- inject ------------------------------------------------------
        t0 = perf_counter()
        ports, dests, services, tracks = next(arrivals)
        if ports.size:
            injected += ports.size
            queues.push_batch(
                ports,
                dest=dests,
                service=services,
                arrival=np.full(ports.size, t, dtype=np.int64),
                track=tracks,
            )

        # -- serve every ready head, then forward what was served --------
        t1 = perf_counter()
        candidates = np.flatnonzero((busy == 0) & (queues.counts > 0))
        if candidates.size:
            head_arrival = queues.peek(candidates, "arrival")
            ready = candidates[head_arrival <= t]
        else:
            ready = candidates
        if ready.size:
            msg = queues.pop(ready)
            waits = (t - msg["arrival"]).astype(np.float64)
            reps = ready // ppr
            local = ready - reps * ppr
            stages = local // width
            if measuring:
                stats.add(reps * n_stages + stages, waits)
                tids = msg["track"]
                if streaming:
                    live = tids >= 0
                    if live.any():
                        msg_total[tids[live]] += waits[live]
                elif tracker is not None:
                    tracker.record(tids, stages, waits)
            busy[ready] = msg["service"]
            moving = stages < n_stages - 1
            done = ~moving
            if done.any():
                completed += np.bincount(reps[done], minlength=n_replicas)
                if streaming:
                    done_tids = msg["track"][done]
                    done_tids = done_tids[done_tids >= 0]
                    if done_tids.size:
                        msg_done[done_tids] = 1
            if moving.any():
                f_reps = reps[moving]
                f_stages = stages[moving]
                dest = msg["dest"][moving]
                lines = local[moving] % width
                in_lines = perm_stack[f_stages + 1, lines]
                digits = (dest // shifts[f_stages + 1]) % k
                next_lines = (in_lines // k) * k + digits
                next_ports = f_reps * ppr + (f_stages + 1) * width + next_lines
                if loop.cut_through:
                    arrival = np.full(f_reps.size, t + 1, dtype=np.int64)
                else:
                    arrival = t + msg["service"][moving]
                queues.push_batch(
                    next_ports,
                    dest=dest,
                    service=msg["service"][moving],
                    arrival=arrival,
                    track=msg["track"][moving],
                )

        # -- tick --------------------------------------------------------
        t2 = perf_counter()
        np.subtract(busy, 1, out=busy, where=busy > 0)
        if timers is not None:
            t3 = perf_counter()
            timers.add("inject", t1 - t0, backend="numpy")
            timers.add("serve", t2 - t1, backend="numpy")
            timers.add("tick", t3 - t2, backend="numpy")
        if sanitize:
            check_stage_stats(stats, cycle=t, n_stages=n_stages)
            check_queue_depths(queues.counts, cycle=t, ports_per_replica=ppr)
            # every arrival through cycle t is either done or still
            # buffered (a served message re-queues or completes within
            # its cycle)
            check_conservation(
                injected, int(completed.sum()), queues.total_occupancy(), cycle=t
            )
    return queues.high_water()
