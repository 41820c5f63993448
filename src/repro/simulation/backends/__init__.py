"""The stacked cycle loop shared by both replica designs.

The replica-batched engine (:mod:`repro.simulation.batched`, one shared
RNG stream) and the streamed engine (:mod:`repro.simulation.streamed`,
one stream per replica) simulate ``R`` networks in one flat port space
-- global port ``replica * n_stages * width + stage * width + line`` --
with the paper's single cycle semantics: inject, serve every ready
queue head, forward, tick.  The two designs differ only in the *order
their arrivals are drawn*, so each reduces to a draw order yielding one
:data:`Draws` tuple per cycle, and :class:`StackedLoop` runs those
arrivals through one of two interchangeable loops:

* the vectorised NumPy loop
  (:func:`~repro.simulation.backends.reference.numpy_cycle_loop`),
  which consumes the arrivals one cycle at a time;
* the whole-run kernel
  (:func:`~repro.simulation.backends.jit.cycle_loop_kernel`), over the
  arrivals concatenated up front -- taken whenever
  :func:`~repro.simulation.backends.jit.compiled_kernel` returns a
  compiled loop, i.e. whenever numba imports.

The two loops are bit-identical (test-asserted); the one that ran is
recorded on :attr:`NetworkResult.backend
<repro.simulation.network.NetworkResult.backend>` and never enters a
digest or cache key.  See ``docs/backends.md``.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation.backends import jit
from repro.simulation.backends.jit import numba_available
from repro.simulation.backends.reference import Draws, numpy_cycle_loop
from repro.simulation.engine import build_routing_tables
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.sanitize import (
    check_conservation,
    check_stage_stats,
    sanitizer_enabled,
)
from repro.simulation.stats import (
    BatchedTrackedMessages,
    StageAccumulator,
    StreamingTotals,
    TrackedMessages,
)
from repro.simulation.topology import MultistageTopology

__all__ = ["Draws", "StackedLoop", "numba_available"]


class StackedLoop:
    """``n_replicas`` stacked networks and the accumulators one run fills.

    Holds the routing tables and the run's outputs: per-(replica, stage)
    wait moments, per-replica completions, per-port occupancy high-water
    marks, and either a per-message stage tracker (``track_limit > 0``)
    or, in streaming summary mode (``track_limit == 0``), a total wait
    and a completion flag for each of ``n_streamed`` message ids.
    """

    def __init__(
        self,
        topology: MultistageTopology,
        n_replicas: int,
        cut_through: bool,
        track_limit: int,
        n_streamed: int = 0,
    ) -> None:
        self.perm_stack, shifts = build_routing_tables(topology)
        if shifts is None:
            raise SimulationError(
                "topology routes without a digit table (routing_shifts() is "
                "None); the replica engines draw all randomness at injection, "
                "so run it on the serial engine"
            )
        self.shifts: np.ndarray = shifts
        self.topology = topology
        self.n_replicas = n_replicas
        self.n_stages = topology.n_stages
        self.width = topology.width
        self.ports_per_replica = self.n_stages * self.width
        self.n_ports = n_replicas * self.ports_per_replica
        self.cut_through = cut_through
        self.stats = StageAccumulator(n_replicas * self.n_stages)
        self.completed = np.zeros(n_replicas, dtype=np.int64)
        self.tracker = (
            BatchedTrackedMessages(n_replicas, track_limit, self.n_stages)
            if track_limit > 0
            else None
        )
        self.msg_total = np.zeros(max(n_streamed, 1), dtype=np.float64)
        self.msg_done = np.zeros(self.msg_total.size, dtype=np.uint8)
        self.high_water = np.zeros(self.n_ports, dtype=np.int64)
        #: which loop the last :meth:`run` took: ``"numpy"`` or ``"numba"``
        self.loop_name = "numpy"

    def run(
        self,
        n_cycles: int,
        warmup: int,
        cycles: Iterable[Draws],
        predrawn: Optional[Tuple[np.ndarray, ...]] = None,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        """Simulate ``n_cycles`` from empty queues, measuring from ``warmup``.

        ``cycles`` yields each cycle's arrivals in order.  ``predrawn``
        -- ``(offsets, ports, dests, services, tracks)`` with cycle
        ``t``'s messages at ``offsets[t]:offsets[t + 1]`` -- spares the
        kernel from concatenating ``cycles`` when a design already holds
        its arrivals assembled.
        """
        kernel = jit.compiled_kernel()
        if kernel is None:
            self.loop_name = "numpy"
            self.high_water = numpy_cycle_loop(self, n_cycles, warmup, cycles, timers)
            return
        self.loop_name = "numba"
        t0 = perf_counter()
        offsets, ports, dests, services, tracks = (
            predrawn if predrawn is not None else _concatenate(cycles, n_cycles)
        )
        t1 = perf_counter()
        in_flight = kernel(
            n_cycles,
            warmup,
            self.n_ports,
            self.ports_per_replica,
            self.n_stages,
            self.width,
            self.topology.k,
            self.cut_through,
            offsets,
            ports,
            dests,
            services,
            tracks,
            self.perm_stack.astype(np.int64, copy=False),
            self.shifts,
            np.zeros(self.n_ports, dtype=np.int64),
            self.stats.count,
            self.stats.shift,
            self.stats.total,
            self.stats.total_sq,
            (
                self.tracker.waits
                if self.tracker is not None
                else np.zeros((1, self.n_stages), dtype=np.float32)
            ),
            self.completed,
            self.high_water,
            self.tracker is None,
            self.msg_total,
            self.msg_done,
        )
        t2 = perf_counter()
        self.stats.refresh_unseen()
        if sanitizer_enabled():
            # the kernel's queues are gone when it returns; its moment
            # bins and its in-flight count are what can be vouched for
            last = n_cycles - 1
            check_stage_stats(self.stats, cycle=last, n_stages=self.n_stages)
            check_conservation(
                int(offsets[n_cycles]), int(self.completed.sum()), int(in_flight),
                cycle=last,
            )
        if timers is not None:
            timers.add("predraw", t1 - t0, backend="numba")
            timers.add("kernel", t2 - t1, backend="numba")

    def results(
        self,
        configs: Sequence[NetworkConfig],
        n_cycles: int,
        warmup: int,
        injected: np.ndarray,
        elapsed: float,
        totals: Optional[StreamingTotals] = None,
    ) -> List[NetworkResult]:
        """One :class:`NetworkResult` per replica, in order.

        ``elapsed_seconds`` is ``elapsed`` divided by ``R`` (the
        amortised per-replica cost).
        """
        shape = (self.n_replicas, self.n_stages)
        means = self.stats.means().reshape(shape)
        variances = self.stats.variances().reshape(shape)
        counts = self.stats.count.reshape(shape)
        high_water = self.high_water.reshape(self.n_replicas, self.ports_per_replica)
        results: List[NetworkResult] = []
        for i, config in enumerate(configs):
            results.append(
                NetworkResult(
                    config=config,
                    n_cycles=n_cycles,
                    warmup=warmup,
                    stage_means=means[i].copy(),
                    stage_variances=variances[i].copy(),
                    stage_counts=counts[i].copy(),
                    tracked=(
                        self.tracker.replica_tracker(i)
                        if self.tracker is not None
                        else TrackedMessages.from_rows(
                            np.empty((0, self.n_stages), dtype=np.float32),
                            self.n_stages,
                        )
                    ),
                    injected=int(injected[i]),
                    completed=int(self.completed[i]),
                    dropped=0,
                    max_occupancy=int(high_water[i].max()),
                    elapsed_seconds=elapsed / self.n_replicas,
                    backend=self.loop_name,
                    totals_summary=(
                        totals.replica_summary(i) if totals is not None else None
                    ),
                )
            )
        return results


def _concatenate(cycles: Iterable[Draws], n_cycles: int) -> Tuple[np.ndarray, ...]:
    """``(offsets, ports, dests, services, tracks)`` over all cycles."""
    offsets = np.zeros(n_cycles + 1, dtype=np.int64)
    columns: Tuple[List[np.ndarray], ...] = ([], [], [], [])
    for t, draws in enumerate(cycles):
        offsets[t + 1] = offsets[t] + draws[0].size
        for column, values in zip(columns, draws, strict=True):
            column.append(values)
    return (
        offsets,
        *(np.concatenate(column).astype(np.int64, copy=False) for column in columns),
    )
