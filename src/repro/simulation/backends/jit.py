"""The whole-run cycle-loop kernel, compiled by numba when it imports.

A cycle-by-cycle simulation of the stacked replicas: the *entire* run
-- every cycle's inject/serve/forward/tick -- is one nopython function
over preallocated arrays.  Without numba the replica engines use the
stage-major scan instead (:mod:`~repro.simulation.backends.scan`),
which needs no loop over cycles; the interpreted kernel is the scan's
cycle-stepping reference in the tests.

It consumes arrivals drawn before it starts: the built-in topologies
route by destination digits, so every draw happens at injection and
either replica design can hand its whole run's arrivals over at once
(see :class:`~repro.simulation.backends.StackedLoop`).  Same draws,
same per-cycle order, hence the same sample path as the scan.

Inside the kernel, each per-port FIFO is a linked list over one shared
node pool (node id = pre-drawn message index; a message occupies one
queue at a time, so ids never collide).  Each cycle pops every ready
head *before* any forward push -- the cycle semantics whose queue
depths the scan's high-water marks reproduce.  Waiting times are
integers, and float64 sums of integers are exact below 2**53, so the
kernel's sequential accumulation equals the scan's ``bincount`` sums
bit-for-bit (float32 tracker entries are likewise exact below 2**24).

The kernel body is an ordinary Python function; with numba installed it
is compiled with ``@njit(cache=True)``, and without numba the same
function still runs (slowly) -- the tests substitute it for
:func:`compiled_kernel`, so the algorithm is verified even where numba
is absent.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = ["compiled_kernel", "cycle_loop_kernel", "numba_available"]

try:
    from numba import njit  # type: ignore[import-not-found,import-untyped]
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None


def numba_available() -> bool:
    """Whether numba is importable in this environment."""
    return njit is not None


def cycle_loop_kernel(
    n_cycles: int,
    warmup: int,
    n_ports: int,
    ports_per_replica: int,
    n_stages: int,
    width: int,
    k: int,
    cut_through: bool,
    offsets: np.ndarray,
    ports: np.ndarray,
    dests: np.ndarray,
    services: np.ndarray,
    tracks: np.ndarray,
    perm_stack: np.ndarray,
    shifts: np.ndarray,
    busy: np.ndarray,
    bin_count: np.ndarray,
    bin_shift: np.ndarray,
    bin_total: np.ndarray,
    bin_total_sq: np.ndarray,
    tracker_waits: np.ndarray,
    completed: np.ndarray,
    q_high: np.ndarray,
    streaming: bool,
    msg_total: np.ndarray,
    msg_done: np.ndarray,
) -> int:
    """Simulate all cycles over pre-drawn arrivals; returns in-flight count.

    Mutates ``busy``, the stat bins (shifted sums, first value seen per
    bin becomes its shift -- see
    :class:`~repro.simulation.stats.StageAccumulator`), ``tracker_waits``,
    ``completed``, and ``q_high`` in place.  Pure integer/float
    arithmetic, nopython-compatible; the messages of cycle ``t`` are
    ``ports/dests/services/tracks[offsets[t]:offsets[t + 1]]``.

    With ``streaming`` set, ``tracks`` holds per-message ids into
    ``msg_total``/``msg_done`` instead of tracker rows: each measured
    message accumulates its total wait across stages in ``msg_total``
    and flips ``msg_done`` when it leaves the last stage, so summary
    statistics need no per-message stage matrix.
    """
    n_msgs = offsets[n_cycles]
    node_next = np.full(n_msgs, -1, dtype=np.int64)
    node_arrival = np.zeros(n_msgs, dtype=np.int64)
    q_head = np.full(n_ports, -1, dtype=np.int64)
    q_tail = np.full(n_ports, -1, dtype=np.int64)
    q_count = np.zeros(n_ports, dtype=np.int64)
    served_nodes = np.empty(n_ports, dtype=np.int64)
    served_ports = np.empty(n_ports, dtype=np.int64)

    for t in range(n_cycles):
        measuring = t >= warmup

        # -- inject: append this cycle's pre-drawn arrivals ------------
        for i in range(offsets[t], offsets[t + 1]):
            port = ports[i]
            node_arrival[i] = t
            if q_count[port] == 0:
                q_head[port] = i
            else:
                node_next[q_tail[port]] = i
            q_tail[port] = i
            q_count[port] += 1
            if q_count[port] > q_high[port]:
                q_high[port] = q_count[port]

        # -- serve: pop every ready head BEFORE any forward push -------
        # (all pops of a cycle precede its forward pushes; two passes
        # keep that order, and with it the occupancy high-water marks)
        n_served = 0
        for port in range(n_ports):
            if busy[port] != 0 or q_count[port] == 0:
                continue
            node = q_head[port]
            if node_arrival[node] > t:
                continue
            q_head[port] = node_next[node]
            q_count[port] -= 1
            if q_count[port] == 0:
                q_tail[port] = -1
            wait = float(t - node_arrival[node])
            rep = port // ports_per_replica
            local = port - rep * ports_per_replica
            stage = local // width
            if measuring:
                b = rep * n_stages + stage
                if bin_count[b] == 0:
                    bin_shift[b] = wait
                centered = wait - bin_shift[b]
                bin_count[b] += 1
                bin_total[b] += centered
                bin_total_sq[b] += centered * centered
                tid = tracks[node]
                if tid >= 0:
                    if streaming:
                        msg_total[tid] += wait
                    else:
                        tracker_waits[tid, stage] = wait
            busy[port] = services[node]
            served_nodes[n_served] = node
            served_ports[n_served] = port
            n_served += 1

        # -- forward: route every served message to its next stage -----
        for j in range(n_served):
            node = served_nodes[j]
            port = served_ports[j]
            rep = port // ports_per_replica
            local = port - rep * ports_per_replica
            stage = local // width
            if stage == n_stages - 1:
                completed[rep] += 1
                if streaming and tracks[node] >= 0:
                    msg_done[tracks[node]] = 1
                continue
            line = local - stage * width
            in_line = perm_stack[stage + 1, line]
            digit = (dests[node] // shifts[stage + 1]) % k
            next_line = (in_line // k) * k + digit
            next_port = rep * ports_per_replica + (stage + 1) * width + next_line
            if cut_through:
                node_arrival[node] = t + 1
            else:
                node_arrival[node] = t + services[node]
            node_next[node] = -1
            if q_count[next_port] == 0:
                q_head[next_port] = node
            else:
                node_next[q_tail[next_port]] = node
            q_tail[next_port] = node
            q_count[next_port] += 1
            if q_count[next_port] > q_high[next_port]:
                q_high[next_port] = q_count[next_port]

        # -- tick ------------------------------------------------------
        for port in range(n_ports):
            if busy[port] > 0:
                busy[port] -= 1

    in_flight = 0
    for port in range(n_ports):
        in_flight += q_count[port]
    return int(in_flight)


_compiled_loop: Optional[Callable] = (
    njit(cache=True)(cycle_loop_kernel) if njit is not None else None
)


def compiled_kernel() -> Optional[Callable]:
    """The ``@njit``-compiled cycle loop, or ``None`` without numba.

    The replica engines take the kernel path exactly when this returns
    a kernel; tests patch it to force either loop.
    """
    return _compiled_loop
