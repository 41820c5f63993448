"""The stage-major segmented Lindley scan over stacked replicas.

Buffers are infinite and every draw happens at injection, so one FIFO
output queue obeys the Lindley recursion in push order:

    start_n = max(ready_n, start_{n-1} + service_{n-1})

where ``ready`` is the cycle the message may first be served (its
inject cycle at stage 0, the cycle after its previous start for
cut-through, or previous start + service for store-and-forward).  With
the exclusive prefix sum of services within the queue,
``C_n = sum_{j<n} service_j``, this unrolls to

    start_n = C_n + max_{j<=n} (ready_j - C_j)

-- one ``cumsum`` and one ``maximum.accumulate``, segmented per queue
by adding ``segment id * span`` (Greenberg, Lubachevsky & Mitrani,
*Algorithms for Unboundedly Parallel Simulations*, ACM TOCS 1991).  A
stage's start times fix the next stage's ready times, so the network
is simulated stage by stage with no loop over cycles.

Replicas are disjoint, so messages are processed in blocks of whole
replicas of about :data:`BLOCK_MESSAGES` messages, which keeps every
temporary cache-sized.  For each block and stage:

* **order** -- sort the stage's messages stably by queue, then push
  cycle, then previous-stage port (at stage 0: queue, inject cycle,
  draw order), with 16-bit radix passes;
* **scan** -- the start times above; a hop is *served* when
  ``start < n_cycles`` and *measured* when ``start >= warmup``;
* **reduce** -- stage moments, tracker or streaming totals,
  completions, queue high-water marks and the end-of-run backlog.

The result is bit-identical to the cycle loop (and to the kernel in
:mod:`~repro.simulation.backends.jit`): waits are integers, so every
sum is exact in any order, and the two order-dependent outputs are
reproduced exactly -- each stat bin's shift is the wait of its measured
hop with the smallest ``(start, port)``, the first value a cycle loop
sees, and each queue's high-water mark is the largest depth at a push
(rank in the queue + 1, minus the pops before the push).
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation.sanitize import (
    check_conservation,
    check_fifo_starts,
    check_queue_depths,
    check_stage_conservation,
    check_stage_stats,
    sanitizer_enabled,
)
from repro.simulation.switch import RingBufferQueues

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.backends import StackedLoop

__all__ = ["BLOCK_MESSAGES", "stage_scan"]

#: messages per replica block (whole replicas, so a block may exceed
#: it by one replica): small enough that the per-stage temporaries stay
#: in cache, large enough to amortise NumPy's per-call cost; 2**14 ran
#: fastest of 2**12 .. 2**18 on 48 streamed k=2, 6-stage replicas
BLOCK_MESSAGES = 1 << 14

#: predecessors :func:`_push_depths` checks by slicing before it
#: falls back to a binary search
_LAG_SCAN = 8

#: segment offsets stay this far below the int64 limit
_KEY_LIMIT = 1 << 62

_BACKLOG_FIELDS = {
    "dest": np.int64,
    "service": np.int64,
    "arrival": np.int64,
    "track": np.int64,
}


def stage_scan(
    loop: "StackedLoop",
    n_cycles: int,
    warmup: int,
    arrivals: Tuple[np.ndarray, ...],
    timers: Optional[PhaseTimers] = None,
) -> Tuple[np.ndarray, RingBufferQueues]:
    """Simulate ``n_cycles`` of ``loop`` over the whole run's ``arrivals``.

    ``arrivals`` is ``(offsets, ports, dests, services, tracks)``, cycle
    ``t``'s messages at ``offsets[t]:offsets[t + 1]`` in draw order.
    Accumulates into ``loop``'s statistics, completions, tracker (or
    streaming totals) and per-port high-water marks, records
    ``order``/``scan``/``reduce`` wall time into ``timers`` when given,
    and returns the messages still queued at ``n_cycles``: the global
    port of each queue holding any, and one
    :class:`~repro.simulation.switch.RingBufferQueues` with those queues
    in that order.
    """
    offsets, ports, dests, services, tracks = arrivals
    scan = _Scan(loop, n_cycles, warmup, timers)
    ppr = loop.ports_per_replica
    for r0, r1, index in _replica_blocks(ports, ppr, loop.n_replicas):
        if index is None:
            cycles = np.repeat(np.arange(n_cycles, dtype=np.int64), np.diff(offsets))
            block = (ports, cycles, services, dests, tracks)
        else:
            cycles = np.searchsorted(offsets, index, side="right") - 1
            block = (ports[index], cycles, services[index], dests[index], tracks[index])
        scan.block(r0, r1, *block)
    return scan.finish(int(offsets[n_cycles]))


def _replica_blocks(
    ports: np.ndarray, ppr: int, n_replicas: int
) -> Iterator[Tuple[int, int, Optional[np.ndarray]]]:
    """``(first replica, end replica, message indices)`` per block.

    Indices are ascending, so each block keeps the cycle-major draw
    order; a single block yields ``None`` (every message, as is).
    """
    n_msgs = ports.size
    if n_msgs <= BLOCK_MESSAGES:
        yield 0, n_replicas, None
        return
    reps = ports // ppr
    per_rep = np.bincount(reps, minlength=n_replicas)
    # a replica joins the block its first message falls in
    block_of_rep = (np.cumsum(per_rep) - per_rep) // BLOCK_MESSAGES
    firsts = np.flatnonzero(np.diff(block_of_rep, prepend=-1))
    if firsts.size == 1:
        yield 0, n_replicas, None
        return
    block_id = np.cumsum(np.diff(block_of_rep, prepend=block_of_rep[0]) != 0)
    order = _stable_order(block_id[reps], firsts.size - 1)
    bounds = np.zeros(firsts.size + 1, dtype=np.int64)
    np.cumsum(np.add.reduceat(per_rep, firsts), out=bounds[1:])
    ends = np.append(firsts[1:], n_replicas)
    for b in range(firsts.size):
        yield int(firsts[b]), int(ends[b]), order[bounds[b] : bounds[b + 1]]


def _stable_order(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` <= ``max_key``.

    Least-significant-digit radix passes over 16-bit digits: NumPy's
    stable sort of ``uint16`` is a counting sort, linear in the input.
    (``astype(np.uint16)`` keeps the low 16 bits of a non-negative int.)
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while max_key >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _push_depths(
    key: np.ndarray,
    base: np.ndarray,
    start: np.ndarray,
    push: np.ndarray,
    new: np.ndarray,
    after_pops: bool,
) -> np.ndarray:
    """Each hop's queue depth just after its push.

    Depth = rank in the queue + 1 - pops before the push: the pops of
    cycles before the push cycle, plus those of the push cycle itself
    when pushes follow the pops (``after_pops``, forwarding at later
    stages; injection at stage 0 precedes them).  Starts rise within a
    queue, so the hops still queued at a push are its nearest
    predecessors: count them lag by lag with array slices, and
    binary-search ``key`` (``base + start``) only for the rare hops
    still deeper than :data:`_LAG_SCAN`.
    """
    n = key.size
    depth = np.ones(n, dtype=np.int64)
    # index j stands for hop i = j + lag: same[j] says hop i - lag is in
    # hop i's queue and the hops between are still queued at its push
    same = ~new[1:]
    for lag in range(1, _LAG_SCAN + 1):
        earlier, later = start[: n - lag], push[lag:]
        queued = same & (earlier > later if after_pops else earlier >= later)
        if not queued.any():
            return depth
        depth[lag:] += queued
        same = queued[1:] & ~new[1 : n - lag]
    deep = np.flatnonzero(queued) + _LAG_SCAN
    pops = np.searchsorted(
        key, base[deep] + push[deep], side="right" if after_pops else "left"
    )
    depth[deep] = deep + 1 - pops
    return depth


def _lindley(
    queue: np.ndarray, ready: np.ndarray, service: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Start times of FIFO queues by the segmented prefix scan.

    The hops are sorted by queue, in push order within each.  Returns
    ``(new, firsts, key, base)``: the flags and positions of each
    queue's first hop, and per hop ``base + start`` and ``base`` =
    segment id x span, which keeps every queue's keys apart (so ``key``
    ascends over the whole block).
    """
    n = queue.size
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(queue[1:], queue[:-1], out=new[1:])
    firsts = np.flatnonzero(new)
    c = np.cumsum(service)
    # ready - C and start both lie in (-span, span)
    span = int(ready.max()) + int(c[-1]) + 1
    if firsts.size * span >= _KEY_LIMIT:
        raise SimulationError(
            f"scan keys overflow: {firsts.size} queues x span {span} "
            ">= 2**62 in one replica block"
        )
    c -= service
    base = np.cumsum(new)
    base -= 1  # block-local segment id
    c -= c[firsts][base]  # exclusive service sum within the queue
    base *= span
    key = ready - c
    key += base
    np.maximum.accumulate(key, out=key)
    key += c
    return new, firsts, key, base


class _Scan:
    """One run's accumulation state across blocks."""

    def __init__(
        self,
        loop: "StackedLoop",
        n_cycles: int,
        warmup: int,
        timers: Optional[PhaseTimers],
    ) -> None:
        self.loop = loop
        self.n_cycles = n_cycles
        self.warmup = warmup
        self.timers = timers
        self.sanitize = sanitizer_enabled()
        shape = (loop.n_replicas, loop.n_stages)
        #: hops pushed into / served from each (replica, stage)'s queues
        self.arrived = np.zeros(shape, dtype=np.int64)
        self.departed = np.zeros(shape, dtype=np.int64)
        #: (global port, dest, service, ready, track) of unserved hops
        self.backlog: List[Tuple[np.ndarray, ...]] = []

    def _time(self, phase: str, since: float) -> float:
        now = perf_counter()
        if self.timers is not None:
            self.timers.add(phase, now - since, backend="numpy")
        return now

    def block(
        self,
        r0: int,
        r1: int,
        ports: np.ndarray,
        ready: np.ndarray,
        service: np.ndarray,
        dest: np.ndarray,
        track: np.ndarray,
    ) -> None:
        """Scan replicas ``[r0, r1)`` through every stage.

        The arrays hold the block's arrivals in cycle-major draw order:
        global entry port, inject cycle, service, destination, track.
        """
        loop = self.loop
        width, ppr, k = loop.width, loop.ports_per_replica, loop.topology.k
        n_stages, n_cycles = loop.n_stages, self.n_cycles
        # stage-local queue id: block replica * width + line
        queue = ports - r0 * ppr
        queue = (queue // ppr) * width + queue % ppr
        max_queue = (r1 - r0) * width - 1
        for stage in range(n_stages):
            if queue.size == 0:
                return
            t0 = perf_counter()
            # -- order: (queue, push cycle, previous port) --------------
            # the arrays arrive sorted by the previous stage's queue (at
            # stage 0: in draw order), so two stable passes suffice
            if stage == 0:
                order = _stable_order(queue, max_queue)
            else:
                order = _stable_order(push, n_cycles - 1)
                order = order[_stable_order(queue[order], max_queue)]
                push = push[order]
            # one gather at a time, so each unsorted column is freed at once
            queue = queue[order]
            ready = ready[order]
            service = service[order]
            dest = dest[order]
            track = track[order]
            del order
            if stage == 0:
                push = ready
            t1 = self._time("order", t0)

            # -- scan: start = C + segmented max.accumulate(ready - C) --
            new, firsts, key, base = _lindley(queue, ready, service)
            start = key - base
            depth = _push_depths(key, base, start, push, new, after_pops=stage > 0)
            del key, base
            rep = queue // width
            line = queue - rep * width
            first_queue = queue[firsts]
            loop.high_water[
                (r0 + first_queue // width) * ppr + stage * width + first_queue % width
            ] = np.maximum.reduceat(depth, firsts)
            del depth
            if self.sanitize:
                check_fifo_starts(start, ready, new, replicas=r0 + rep, stage=stage)
            t2 = self._time("scan", t1)

            # -- reduce ------------------------------------------------
            served = start < n_cycles
            wait = start - ready
            self._measure(r0, stage, rep, line, start, wait, new, track)
            if self.sanitize:
                n_reps = r1 - r0
                self.arrived[r0:r1, stage] += np.bincount(rep, minlength=n_reps)
                self.departed[r0:r1, stage] += np.bincount(rep[served], minlength=n_reps)
            all_served = bool(served.all())
            if not all_served:
                left = ~served
                self.backlog.append(
                    (
                        (r0 + rep[left]) * ppr + stage * width + line[left],
                        dest[left],
                        service[left],
                        ready[left],
                        track[left],
                    )
                )
            if stage == n_stages - 1:
                done = rep if all_served else rep[served]
                loop.completed[r0:r1] += np.bincount(done, minlength=r1 - r0)
                if loop.tracker is None:
                    # untracked ids (-1) land in the sink slot at the end
                    loop.msg_done[track if all_served else track[served]] = 1
                self._time("reduce", t2)
                return

            # -- forward the served hops to the next stage's queues ----
            if not all_served:
                start, rep, line, service, dest, track = (
                    a[served] for a in (start, rep, line, service, dest, track)
                )
            nxt = stage + 1
            in_line = loop.perm_stack[nxt, line]
            digit = (dest // loop.shifts[nxt]) % k
            queue = rep * width + (in_line // k) * k + digit
            push = start
            ready = start + 1 if loop.cut_through else start + service
            self._time("reduce", t2)

    def _measure(
        self,
        r0: int,
        stage: int,
        rep: np.ndarray,
        line: np.ndarray,
        start: np.ndarray,
        wait: np.ndarray,
        new: np.ndarray,
        track: np.ndarray,
    ) -> None:
        """Stage moments and tracker/streaming totals of measured hops."""
        loop = self.loop
        measured = (start >= self.warmup) & (start < self.n_cycles)
        index = np.flatnonzero(measured)
        if index.size == 0:
            return
        m_wait = wait[index].astype(np.float64)
        ids = track[index]
        if loop.tracker is not None:
            loop.tracker.record(ids, np.full(index.size, stage), m_wait)
        else:
            # untracked ids (-1) land in the sink slot at the end
            loop.msg_total[ids] += m_wait
        # each bin's shift is the first wait a cycle loop would see: the
        # hop with the smallest (start, line).  Starts rise within a
        # queue, so it is some queue's first measured hop; swap it to
        # the front of its bin.
        heads = measured.copy()
        heads[1:] &= new[1:] | ~measured[:-1]
        heads = np.flatnonzero(heads)
        head_rep = rep[heads]
        order_key = start[heads] * loop.width + line[heads]
        bin_first = np.flatnonzero(np.diff(head_rep, prepend=-1))
        lows = np.minimum.reduceat(order_key, bin_first)
        sizes = np.diff(np.append(bin_first, heads.size))
        winner = heads[order_key == np.repeat(lows, sizes)]
        front, earliest = np.searchsorted(index, (heads[bin_first], winner))
        m_wait[front], m_wait[earliest] = m_wait[earliest], m_wait[front]
        loop.stats.add((r0 + rep[index]) * loop.n_stages + stage, m_wait)
        if self.sanitize:
            check_stage_stats(loop.stats, cycle=self.n_cycles - 1, n_stages=loop.n_stages)

    def finish(self, injected: int) -> Tuple[np.ndarray, RingBufferQueues]:
        """The end-of-run backlog as real queues, conservation-checked."""
        loop = self.loop
        pieces = self.backlog or [(np.empty(0, dtype=np.int64),) * 5]
        ports, dest, service, ready, track = (
            np.concatenate(column) for column in zip(*pieces, strict=True)
        )
        # one queue per port that holds messages, in FIFO order
        held_ports, queue, depth = np.unique(ports, return_inverse=True, return_counts=True)
        queues = RingBufferQueues(
            max(held_ports.size, 1), _BACKLOG_FIELDS, capacity=int(depth.max(initial=1))
        )
        queues.push_batch(queue, dest=dest, service=service, arrival=ready, track=track)
        if self.sanitize:
            last = self.n_cycles - 1
            check_queue_depths(queues.counts, cycle=last)
            held = np.zeros_like(self.arrived)
            local = held_ports % loop.ports_per_replica
            np.add.at(
                held,
                (held_ports // loop.ports_per_replica, local // loop.width),
                queues.counts[: held_ports.size],
            )
            check_stage_conservation(self.arrived, self.departed, held, cycle=last)
            check_conservation(
                injected, int(loop.completed.sum()), queues.total_occupancy(), cycle=last
            )
        return held_ports, queues
