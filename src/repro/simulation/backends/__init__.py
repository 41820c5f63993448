"""The stacked replica engine shared by both replica designs.

The replica-batched engine (:mod:`repro.simulation.batched`, one shared
RNG stream) and the streamed engine (:mod:`repro.simulation.streamed`,
one stream per replica) simulate ``R`` networks in one flat port space
-- global port ``replica * n_stages * width + stage * width + line``
-- with the paper's single cycle semantics: inject, serve every ready
queue head, forward, tick.  The two designs differ only in the *order
their arrivals are drawn*; each hands the whole run's arrivals to
:class:`StackedLoop` as arrays ``(offsets, ports, dests, services,
tracks)``, which simulates them in one of two interchangeable ways:

* the stage-major segmented Lindley scan
  (:func:`~repro.simulation.backends.scan.stage_scan`), vectorised
  NumPy passes per replica block and stage, with no loop over cycles;
* the whole-run kernel
  (:func:`~repro.simulation.backends.jit.cycle_loop_kernel`) --
  taken whenever :func:`~repro.simulation.backends.jit.compiled_kernel`
  returns a compiled loop, i.e. whenever numba imports.

The two are bit-identical (test-asserted); the one that ran is
recorded on :attr:`NetworkResult.backend
<repro.simulation.network.NetworkResult.backend>` and never enters a
digest or cache key.  See ``docs/backends.md``.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation.backends import jit
from repro.simulation.backends.jit import numba_available
from repro.simulation.backends.scan import stage_scan
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
from repro.simulation.switch import RingBufferQueues
from repro.simulation.topology import MultistageTopology

__all__ = ["Arrivals", "StackedLoop", "numba_available"]

#: a whole run's arrivals: ``(offsets, ports, dests, services, tracks)``,
#: cycle ``t``'s messages at ``offsets[t]:offsets[t + 1]`` in draw order,
#: each with its global entry port, destination, service time and
#: tracker slot (a message id in streaming summary mode; ``-1`` =
#: untracked)
Arrivals = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
        # one slot past the ids: the scan's sink for untracked (-1) hops
        self.msg_total = np.zeros(n_streamed + 1, dtype=np.float64)
        self.msg_done = np.zeros(self.msg_total.size, dtype=np.uint8)
        self.high_water = np.zeros(self.n_ports, dtype=np.int64)
        #: which loop the last :meth:`run` took: ``"numpy"`` or ``"numba"``
        self.loop_name = "numpy"
        #: the messages still queued when the scan's run ended, one
        #: queue per global port in :attr:`backlog_ports` (``None``
        #: after a kernel run, whose queues end with it)
        self.backlog: Optional[RingBufferQueues] = None
        self.backlog_ports = np.empty(0, dtype=np.int64)

    def run(
        self,
        n_cycles: int,
        warmup: int,
        arrivals: Arrivals,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        """Simulate ``n_cycles`` from empty queues, measuring from ``warmup``.

        ``arrivals`` is the whole run's :data:`Arrivals`.  Service times
        below one cycle are refused: a port serves at most one message
        per cycle, which the scan's recursion relies on.
        """
        offsets, ports, dests, services, tracks = arrivals
        if services.size and int(services.min()) < 1:
            raise SimulationError(
                f"service times must be >= 1 cycle, got {int(services.min())}"
            )
        kernel = jit.compiled_kernel()
        if kernel is None:
            self.loop_name = "numpy"
            self.backlog_ports, self.backlog = stage_scan(
                self, n_cycles, warmup, arrivals, timers
            )
            return
        self.loop_name = "numba"
        t0 = perf_counter()
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
        t1 = perf_counter()
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
            timers.add("kernel", t1 - t0, backend="numba")

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

