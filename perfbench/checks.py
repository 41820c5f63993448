"""Correctness checks and the simulated-statistics fingerprint.

Every check returns the number of operations it found wrong, so the
caller can count them in ``failed`` (and hence ``fail_ratio``).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: two-sided miss probability of the Theorem-1 t-interval check.  The
#: benchmark runs a few hundred distinct (seed, load) checks across a
#: full set of runs, so 1e-4 keeps a chance false alarm unlikely while
#: still catching any bias of a few standard errors.
T_INTERVAL_ALPHA = 1e-4


def fingerprint(rows) -> str:
    """SHA-256 (first 16 hex digits) over per-result statistic arrays.

    ``rows`` is a sequence of tuples of arrays/scalars; each is rendered
    as float64 or int64 bytes in order, so equal statistics give an
    equal fingerprint bit for bit.
    """
    h = hashlib.sha256()
    for row in rows:
        for item in row:
            arr = np.asarray(item)
            dtype = np.int64 if arr.dtype.kind in "iub" else np.float64
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


def result_row(result) -> tuple:
    """The statistics a :class:`NetworkResult` contributes to a fingerprint."""
    counters = (result.injected, result.completed, result.dropped, result.max_occupancy)
    return (result.stage_means, result.stage_variances, result.stage_counts, counters)


def finite_stats(means, variances) -> bool:
    """Every stage mean and variance is a finite number."""
    return bool(np.all(np.isfinite(means)) and np.all(np.isfinite(variances)))


def conserves(injected, completed, dropped, max_occupancy, n_ports, in_flight=None) -> bool:
    """Messages are conserved: injected = completed + dropped + in flight.

    With the engine at hand ``in_flight`` is its live queue occupancy and
    the identity is checked exactly; from a result alone the in-flight
    remainder must be a possible queue content: between zero and every
    port holding its high-water mark.
    """
    rest = injected - completed - dropped
    if in_flight is not None:
        return rest == in_flight
    return 0 <= rest <= max_occupancy * n_ports


def held_misses(results, held: int) -> int:
    """All results wrong unless injected - completed - dropped, summed over
    ``results``, equals the messages their queues still hold."""
    rest = sum(r.injected - r.completed - r.dropped for r in results if r is not None)
    return 0 if rest == held else len(results)


def result_ok(result, in_flight=None) -> bool:
    """Finite statistics and conservation for one :class:`NetworkResult`."""
    config = result.config
    n_ports = config.n_stages * (config.width or config.k ** config.n_stages)
    return finite_stats(result.stage_means, result.stage_variances) and conserves(
        result.injected, result.completed, result.dropped,
        result.max_occupancy, n_ports, in_flight,
    )


@lru_cache(maxsize=None)
def theorem1_mean(k: int, p: float) -> float:
    """Exact stage-1 mean wait for uniform traffic and unit service."""
    from repro.arrivals import UniformTraffic
    from repro.core.first_stage import FirstStageQueue
    from repro.service import DeterministicService

    queue = FirstStageQueue(
        UniformTraffic(k=k, p=Fraction(p).limit_denominator(10_000)),
        DeterministicService(1),
    )
    return float(queue.waiting_mean())


def stage1_misses(results) -> int:
    """Results whose load's across-replica t-interval misses Theorem 1.

    Results are grouped by ``(k, p)``; each group needs two or more
    replicas.  A group whose interval misses the exact mean counts all
    its results as wrong.
    """
    from scipy import stats

    groups: dict = {}
    for r in results:
        groups.setdefault((r.config.k, r.config.p), []).append(float(r.stage_means[0]))
    wrong = 0
    for (k, p), means in groups.items():
        x = np.asarray(means)
        n = x.size
        if n < 2:
            wrong += n
            continue
        half = stats.t.ppf(1 - T_INTERVAL_ALPHA / 2, n - 1) * x.std(ddof=1) / math.sqrt(n)
        if not abs(x.mean() - theorem1_mean(k, p)) <= half:
            wrong += n
    return wrong
