"""Memory-bounded sharded execution of huge streamed batches.

Two layers live here:

* **Shard planning** -- :func:`estimate_replica_bytes` models the
  streamed engine's per-replica working set (the pre-drawn arrival
  arrays, tracker or streaming per-message scalars, the stage-major
  scan's block temporaries and end-of-run backlog)
  and :func:`plan_shard_size` turns a byte budget into a replica count.
  The shard size is an *execution* knob: it never enters a spec digest
  (:data:`repro.exec.spec.STREAM_MARKER` is composition-free), so the
  same cache entries serve every budget.
* **The direct driver** -- :func:`stream_totals` runs ``R`` replicas of
  one scenario in streaming summary mode (``track_limit=0``) without
  materialising specs, results, or cache entries: shards are dispatched
  to a process pool and their
  :class:`~repro.simulation.stats.StreamingTotals` merged in shard
  order, so peak memory is one shard's working set per worker while the
  merged moments are bit-identical to a monolithic run (shard-invariance
  of the streamed engine).  This is the R >= 1e5 path used by the scale
  benchmark and the figure overlays.

Spec-level sharded execution (cache-aware, per-spec results) is
``run_many(stream=True, shard_mem=...)`` in :mod:`repro.exec.runner`,
which plans its shards with the same functions.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import ExecutionError
from repro.simulation.network import NetworkConfig
from repro.simulation.stats import StreamingTotals
from repro.simulation.streamed import (
    DEFAULT_SKETCH_MARKERS,
    DEFAULT_TAIL_K,
    run_streamed,
)

__all__ = [
    "DEFAULT_SHARD_MEM",
    "ShardedTotals",
    "estimate_replica_bytes",
    "plan_shard_size",
    "stream_totals",
]

#: Default per-shard byte budget (256 MiB): small enough that a handful
#: of pool workers fit comfortably in commodity memory, large enough
#: that shard dispatch overhead is noise.
DEFAULT_SHARD_MEM = 256 * 1024 * 1024

#: int64 columns the assembled arrivals keep for the whole run: entry
#: port, destination, service, track, replica, measured replica
_HELD_COLUMNS = 6
#: int64 temporaries per message alive at the peak of a replica
#: block's stage pass (order, scan, reduce; measured at ~21)
_SCAN_COLUMNS = 24
#: the end-of-run backlog: 4 int64 fields per queued message plus 4
#: int64 of queue bookkeeping, per port, budgeted up to this deep
_BACKLOG_FIELDS = 4
_BACKLOG_DEPTH = 32


def estimate_replica_bytes(config: NetworkConfig, n_cycles: int) -> int:
    """Model of one replica's working set inside a streamed shard.

    Counts the dominant allocations: the ``(n_cycles, width)``
    injection-coin block, the assembled arrival columns, the tracker
    matrix (tracked mode) or the per-message total/done scalars
    (streaming mode), the stage-major scan's block temporaries, and the
    end-of-run backlog queues.  The scan works on blocks of whole
    replicas, so its temporaries scale with the block, at most one
    replica's messages beyond
    :data:`~repro.simulation.backends.scan.BLOCK_MESSAGES`; charging
    each replica its own messages' share bounds them for any shard size
    (and over-estimates large shards, which is harmless: smaller
    shards).  Pre-draw and assembly temporaries are freed before the
    scan starts and stay below its peak.
    """
    topology = config.build_topology()
    ppr = topology.n_stages * topology.width
    expected_msgs = max(
        1.0, n_cycles * topology.width * config.p * config.bulk_size
    )
    coin_bytes = n_cycles * topology.width * 8
    scan_bytes = (_HELD_COLUMNS + _SCAN_COLUMNS) * 8 * expected_msgs
    if config.track_limit > 0:
        per_message = min(config.track_limit, expected_msgs) * topology.n_stages * 4
    else:
        per_message = expected_msgs * (8 + 1)  # msg_total f64 + msg_done u8
    backlog_bytes = ppr * (_BACKLOG_FIELDS * _BACKLOG_DEPTH + 4) * 8
    return int(coin_bytes + scan_bytes + per_message + backlog_bytes)


def plan_shard_size(
    config: NetworkConfig, n_cycles: int, shard_mem: Optional[int]
) -> int:
    """Replicas per shard under a byte budget (always at least 1)."""
    if shard_mem is None:
        shard_mem = DEFAULT_SHARD_MEM
    if shard_mem < 1:
        raise ExecutionError(f"shard_mem must be >= 1 byte, got {shard_mem}")
    return max(1, shard_mem // estimate_replica_bytes(config, n_cycles))


@dataclass
class ShardedTotals:
    """Merged outcome of one sharded streaming run."""

    totals: StreamingTotals
    injected: int
    completed: int
    elapsed_seconds: float
    n_shards: int
    shard_size: int


def _run_totals_shard(
    config: NetworkConfig,
    seeds: List[int],
    n_cycles: int,
    warmup: Optional[int],
    n_markers: int,
    tail_k: int,
) -> tuple:
    """Worker-side shard executor (top-level, so it pickles)."""
    configs = [dataclasses.replace(config, seed=s) for s in seeds]
    batch = run_streamed(
        configs,
        n_cycles,
        warmup=warmup,
        n_markers=n_markers,
        tail_k=tail_k,
    )
    injected = sum(r.injected for r in batch.results)
    completed = sum(r.completed for r in batch.results)
    return batch.totals, injected, completed


def stream_totals(
    config: NetworkConfig,
    n_replications: int,
    n_cycles: int,
    *,
    warmup: Optional[int] = None,
    base_seed: int = 1000,
    shard_mem: Optional[int] = None,
    workers: int = 1,
    n_markers: int = DEFAULT_SKETCH_MARKERS,
    tail_k: int = DEFAULT_TAIL_K,
    progress: Optional[Callable[[dict], None]] = None,
) -> ShardedTotals:
    """Streaming totals of ``n_replications`` replicas of one scenario.

    Replica ``i`` runs ``config`` with seed ``base_seed + i`` in
    streaming summary mode; the batch is split into shards of
    :func:`plan_shard_size` replicas and the per-shard
    :class:`~repro.simulation.stats.StreamingTotals` merged in shard
    order.  Because the streamed engine is shard-invariant and the
    merge concatenates per-replica accumulators in replica order, the
    result's exact statistics (count, moments, tail) are **independent
    of both ``shard_mem`` and ``workers``** -- only the quantile sketch
    is a per-shard approximation (merged within its grid bound).

    Memory stays bounded at one shard's working set per concurrent
    worker; nothing scales with ``n_replications`` except the
    per-replica moment accumulators (five floats each).
    """
    if n_replications < 1:
        raise ExecutionError(
            f"n_replications must be >= 1, got {n_replications}"
        )
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    cfg = dataclasses.replace(config, track_limit=0)
    shard_size = plan_shard_size(cfg, n_cycles, shard_mem)
    seeds = [base_seed + i for i in range(n_replications)]
    shards = [
        seeds[lo : lo + shard_size] for lo in range(0, len(seeds), shard_size)
    ]

    started = perf_counter()
    parts: List[tuple] = [()] * len(shards)
    if workers == 1 or len(shards) == 1:
        for j, shard_seeds in enumerate(shards):
            parts[j] = _run_totals_shard(
                cfg, shard_seeds, n_cycles, warmup, n_markers, tail_k
            )
            if progress is not None:
                progress({"event": "shard", "index": j, "n_shards": len(shards),
                          "replicas": len(shard_seeds)})
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
            futures = {
                pool.submit(
                    _run_totals_shard,
                    cfg, shard_seeds, n_cycles, warmup, n_markers, tail_k,
                ): j
                for j, shard_seeds in enumerate(shards)
            }
            for fut, j in futures.items():
                parts[j] = fut.result()
                if progress is not None:
                    progress({"event": "shard", "index": j,
                              "n_shards": len(shards),
                              "replicas": len(shards[j])})

    merged = StreamingTotals.concat([p[0] for p in parts])
    return ShardedTotals(
        totals=merged,
        injected=sum(p[1] for p in parts),
        completed=sum(p[2] for p in parts),
        elapsed_seconds=perf_counter() - started,
        n_shards=len(shards),
        shard_size=shard_size,
    )
