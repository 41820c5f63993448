"""Replica-batched simulation: R independent runs in one set of arrays.

The paper's tables average many independent replications, and for its
small networks (``k = 2``, width 8--128) a :class:`ClockedEngine` cycle
is ~20 NumPy kernel calls on tiny arrays -- per-call Python overhead
dominates, so running replicas one after another multiplies that
overhead by ``R``.  :class:`BatchedClockedEngine` instead stacks ``R``
replicas into flat arrays of ``R * n_stages * width`` ports (global
port = ``replica * n_stages * width + stage * width + line``;
:class:`~repro.simulation.switch.RingBufferQueues` takes any
``n_queues``, so the substrate needs no change) and advances all of
them with the *same* fixed number of kernel calls per cycle.

Randomness
----------
One traffic generator draws a single ``(R, width)`` uniform block per
cycle; replicas consume disjoint slices of one shared stream, which
keeps them statistically independent.  The stream is seeded from the
*list* of per-replica seeds (``SeedSequence([s_0, ..., s_{R-1}])``),
so a batch's results are a pure function of the ordered seed list.
Because ``SeedSequence([s]) == SeedSequence(s)`` and in-place uniform
draws consume the stream exactly like allocating ones, a batch of
**one** replica reproduces the serial engine **bit-for-bit** -- this is
test-asserted.  For ``R > 1`` each replica's sample path depends on the
whole batch (still a valid i.i.d. replication design, just a different
one than ``R`` serial runs), which is why :mod:`repro.exec` marks
batched specs with a distinct cache digest.

Limitations (by construction)
-----------------------------
* Finite buffers are refused: drops are counted globally by the
  substrate, not per replica.
* Observers/metrics collectors are not wired: per-cycle metrics on a
  stacked batch would interleave replicas.  Batched runs are
  *metrics-off*; run serially when you need instrumentation.
* ``warmup="auto"`` (MSER-5) is refused: the detector is a per-run
  pilot; pass an explicit warm-up instead.
* Topologies without a digit-routing table (``routing_shifts()`` is
  ``None``) are refused: the replica engine expects every draw to
  happen at injection.

Execution
---------
The engine contributes the *draw order* -- one ``generate_batch`` per
cycle, all cycles drawn and concatenated before any is simulated --
and hands the run's arrivals to the executor it shares with the
streamed engine (:class:`~repro.simulation.backends.StackedLoop`): the
compiled kernel when numba imports, otherwise the stage-major Lindley
scan, which sorts and scans each stage's hops in blocks of whole
replicas with no loop over cycles.  Both are bit-identical
(test-asserted), so which one ran is an execution detail -- never part
of a spec digest or cache key.  Working set: the concatenated arrivals
(four int64 columns per message) and the tracker for the whole run,
plus one replica block's scan temporaries at a time.
"""

from __future__ import annotations

from dataclasses import replace

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation.backends import Arrivals, StackedLoop
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.rng import DEFAULT_SEED, spawn_stacked_rngs
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["BatchedClockedEngine", "run_batched", "run_stacked"]

#: config fields that fix the stacked engine's array shapes -- scenarios
#: in one batch must agree on all of these (everything else may vary)
STACK_SHAPE_FIELDS = (
    "k",
    "n_stages",
    "topology",
    "width",
    "transfer",
    "buffer_capacity",
    "track_limit",
)


class BatchedClockedEngine:
    """Cycle-accurate simulator of ``n_replicas`` identical networks.

    Simulates the cycle semantics of
    :class:`~repro.simulation.engine.ClockedEngine` (inject / serve /
    tick) on the stacked port space; per-replica statistics come from
    flat ``(replica, stage)`` bins and block-partitioned trackers (see
    :class:`~repro.simulation.backends.StackedLoop`).

    Parameters mirror the serial engine's; ``traffic`` must have been
    built with ``n_replicas`` matching (see
    :meth:`NetworkConfig.build_traffic`).  The engine is single-shot:
    one :meth:`run` from ``t = 0``.
    """

    def __init__(
        self,
        topology: MultistageTopology,
        traffic: NetworkTrafficGenerator,
        n_replicas: int,
        transfer: Literal["cut_through", "store_forward"] = "cut_through",
        routing_rng: Optional[np.random.Generator] = None,
        track_limit: int = 200_000,
    ) -> None:
        if traffic.width != topology.width:
            raise SimulationError(
                f"traffic width {traffic.width} != topology width {topology.width}"
            )
        if traffic.n_replicas != n_replicas:
            raise SimulationError(
                f"traffic built for {traffic.n_replicas} replicas, engine "
                f"stacking {n_replicas}"
            )
        if transfer not in ("cut_through", "store_forward"):
            raise SimulationError(f"unknown transfer mode {transfer!r}")
        if n_replicas < 1:
            raise SimulationError(f"need >= 1 replica, got {n_replicas}")
        if track_limit < 1:
            raise SimulationError(
                "track_limit=0 (streaming summary mode) is only supported by "
                "the streamed engine -- use repro.simulation.streamed."
                "run_streamed; see docs/scaling.md"
            )
        self.topology = topology
        self.traffic = traffic
        self.routing_rng = routing_rng
        self.n_replicas = n_replicas
        self.loop = StackedLoop(
            topology, n_replicas, transfer == "cut_through", track_limit
        )
        self.injected = np.zeros(n_replicas, dtype=np.int64)
        self.now = 0
        #: wall-clock phase timers (enable via :meth:`enable_profiling`);
        #: entries carry the loop that executed each phase
        self.timers: Optional[PhaseTimers] = None

    def enable_profiling(self) -> PhaseTimers:
        """Start accumulating per-phase wall-clock timers."""
        if self.timers is None:
            self.timers = PhaseTimers()
        return self.timers

    def run(self, n_cycles: int, warmup: int = 0) -> None:
        """Simulate cycles ``0 .. n_cycles - 1``; discard statistics before ``warmup``."""
        if n_cycles < 1:
            raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
        if not 0 <= warmup < n_cycles:
            raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
        if self.now:
            raise SimulationError(
                "the stacked engine runs once; build a fresh engine to "
                "simulate further"
            )
        t0 = perf_counter()
        arrivals = self._arrivals(n_cycles, warmup)
        t1 = perf_counter()
        self.loop.run(n_cycles, warmup, arrivals, timers=self.timers)
        if self.timers is not None:
            self.timers.add("predraw", t1 - t0, backend=self.loop.loop_name)
        self.now = n_cycles

    def _arrivals(self, n_cycles: int, warmup: int) -> Arrivals:
        """The shared-stream draw order: one ``generate_batch`` per cycle.

        Draws every cycle up front and concatenates them, advancing
        :attr:`injected` and the tracker's slot allocator as each cycle
        is drawn; arrivals before ``warmup`` are untracked.
        """
        tracker = self.loop.tracker
        assert tracker is not None  # track_limit >= 1, checked at construction
        ppr = self.loop.ports_per_replica
        offsets = np.zeros(n_cycles + 1, dtype=np.int64)
        columns: Tuple[List[np.ndarray], ...] = ([], [], [], [])
        for t in range(n_cycles):
            arrivals = self.traffic.generate_batch()
            reps = arrivals.replicas
            self.injected += np.bincount(reps, minlength=self.n_replicas)
            lines = self.topology.entry_queue(
                arrivals.sources, arrivals.destinations, self.routing_rng
            )
            tracks = (
                tracker.allocate(reps)
                if t >= warmup
                else np.full(reps.size, -1, dtype=np.int64)
            )
            offsets[t + 1] = offsets[t] + reps.size
            draws = (reps * ppr + lines, arrivals.destinations, arrivals.services, tracks)
            for column, values in zip(columns, draws, strict=True):
                column.append(values)
        ports, dests, services, tracks = (
            np.concatenate(column).astype(np.int64, copy=False) for column in columns
        )
        return offsets, ports, dests, services, tracks

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages injected but not yet delivered (buffers are infinite)."""
        return int(self.injected.sum() - self.loop.completed.sum())

    def __repr__(self) -> str:
        return (
            f"BatchedClockedEngine(t={self.now}, replicas={self.n_replicas}, "
            f"stages={self.topology.n_stages}, width={self.topology.width}, "
            f"in_flight={self.in_flight})"
        )


def _build_stacked_engine(configs: Sequence[NetworkConfig]) -> BatchedClockedEngine:
    """A fresh stacked engine for ``configs`` (validated, seeded, t=0).

    Factored out of :func:`run_stacked` so tests can hold the engine
    itself; the shape validation and the per-scenario seeding
    (one ``SeedSequence`` over the ordered seed list) live here.
    """
    if not configs:
        raise SimulationError("need at least one scenario config")
    first = configs[0]
    for other in configs[1:]:
        for name in STACK_SHAPE_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise SimulationError(
                    "scenario stacking needs identical array shapes: "
                    f"{name}={getattr(other, name)!r} != {getattr(first, name)!r}"
                )
    if first.buffer_capacity is not None:
        raise SimulationError(
            "replica batching supports infinite buffers only; run finite-"
            "buffer scenarios serially"
        )
    n_replicas = len(configs)
    entropy = [DEFAULT_SEED if c.seed is None else int(c.seed) for c in configs]
    traffic_rng, routing_rng = spawn_stacked_rngs(entropy)

    topology = first.build_topology()
    traffic = NetworkTrafficGenerator(
        width=topology.width,
        p=[c.p for c in configs],
        service=[c.service_model() for c in configs],
        rng=traffic_rng,
        bulk_size=[c.bulk_size for c in configs],
        q=[c.q for c in configs],
        dest_space=topology.destination_space,
        n_replicas=n_replicas,
    )
    return BatchedClockedEngine(
        topology,
        traffic,
        n_replicas,
        transfer=first.transfer,
        routing_rng=routing_rng,
        track_limit=first.track_limit,
    )


def run_stacked(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
) -> List[NetworkResult]:
    """Run ``len(configs)`` *scenarios* in one stacked engine.

    The scenario generalisation of :func:`run_batched`: each replica of
    the batch simulates its own :class:`NetworkConfig`, which may differ
    in arrival rate ``p``, bulk size, favourite bias ``q``, service
    model (``message_size`` / ``sizes`` / explicit ``service``), and
    seed -- anything that does not change the engine's array shapes.
    The shape-fixing fields (:data:`STACK_SHAPE_FIELDS`: ``k``,
    ``n_stages``, ``topology``, ``width``, ``transfer``,
    ``buffer_capacity``, ``track_limit``) must agree across the batch.

    Returns one :class:`NetworkResult` per config, in order, each
    carrying its own config -- the same schema serial runs produce, so
    downstream analysis and the result cache need no batch awareness.
    ``elapsed_seconds`` is the batch wall clock divided by ``R`` (the
    amortised per-replica cost).

    A stack whose rows are identical except for the seed consumes the
    RNG stream exactly like the homogeneous batched engine (see
    :mod:`repro.simulation.traffic`), so :func:`run_batched` is this
    function applied to ``[replace(config, seed=s) for s in seeds]``
    and the R=1 serial bit-identity anchor carries over unchanged.

    The loop that ran (``"numba"`` when numba imports, ``"numpy"``
    otherwise; results are bit-identical) is recorded on each
    :attr:`NetworkResult.backend <repro.simulation.network.NetworkResult.backend>`.

    Refuses finite buffers and ``warmup="auto"`` (see module notes).
    """
    configs = list(configs)
    engine = _build_stacked_engine(configs)
    if warmup == "auto":
        raise SimulationError(
            'warmup="auto" is a per-run pilot; give an explicit warm-up '
            "for batched replicas"
        )
    if warmup is None:
        warmup = max(500, n_cycles // 10)
    warmup = int(warmup)
    if warmup >= n_cycles:
        raise SimulationError(f"warmup {warmup} >= n_cycles {n_cycles}")
    started = perf_counter()
    engine.run(n_cycles, warmup=warmup)
    elapsed = perf_counter() - started
    return engine.loop.results(configs, n_cycles, warmup, engine.injected, elapsed)


def run_batched(
    config: NetworkConfig,
    seeds: Sequence[Optional[int]],
    n_cycles: int,
    warmup: Optional[int] = None,
) -> List[NetworkResult]:
    """Run ``len(seeds)`` replicas of ``config`` in one stacked engine.

    The homogeneous special case of :func:`run_stacked`: every replica
    simulates the same scenario under its own seed.  Returns one
    :class:`NetworkResult` per seed, in order, each carrying ``config``
    with its own seed.

    Refuses finite buffers and ``warmup="auto"`` (see module notes).
    """
    if config.buffer_capacity is not None:
        raise SimulationError(
            "replica batching supports infinite buffers only; run finite-"
            "buffer scenarios serially"
        )
    if not seeds:
        raise SimulationError("need at least one replica seed")
    return run_stacked(
        [replace(config, seed=seed) for seed in seeds],
        n_cycles,
        warmup=warmup,
    )
