"""The runtime sanitizer: arming, invariant hooks, error coordinates.

Three layers of evidence:

* the hooks are *quiet* on healthy runs -- and change nothing: a
  sanitized run is bit-identical to an unsanitized one;
* each invariant check raises :class:`SanitizerError` with the
  cycle/stage/replica coordinates a debugger needs;
* a deliberately poisoned kernel (NaN injected into the waiting-time
  stream mid-run) is caught *at the cycle it happens* on the serial
  engine, and at the replica block and stage it happens on the stacked
  engine's scan; a whole-run kernel that loses a message is caught when
  it returns, and a scan that serves out of FIFO order or loses a
  queued message is caught with its replica and stage.
"""

import dataclasses
import inspect
import os

import numpy as np
import pytest

from repro.errors import SanitizerError
from repro.exec.context import use_execution
from repro.simulation.backends import scan
from repro.simulation.backends.jit import cycle_loop_kernel
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.sanitize import (
    SANITIZE_ENV,
    check_conservation,
    check_fifo_starts,
    check_merged_totals,
    check_queue_depths,
    check_stage_conservation,
    sanitizer_enabled,
)
from repro.simulation.stats import StageAccumulator, StreamingTotals
from repro.simulation.streamed import run_streamed

CFG = NetworkConfig(k=2, n_stages=3, p=0.7, seed=7)


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")


def poison_nan_at(monkeypatch, call_index):
    """Patch ``StageAccumulator.add`` to slip one NaN into the
    waiting-time stream on its ``call_index``-th non-empty call."""
    real_add = StageAccumulator.add
    state = {"calls": 0}

    def poisoned(self, stages, waits):
        if np.asarray(waits).size:
            state["calls"] += 1
            if state["calls"] == call_index:
                waits = np.asarray(waits, dtype=np.float64).copy()
                waits[0] = np.nan
        real_add(self, stages, waits)

    monkeypatch.setattr(StageAccumulator, "add", poisoned)


class TestArming:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitizer_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "ON", "yes"])
    def test_truthy_values_arm(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitizer_enabled()

    @pytest.mark.parametrize("value", ["0", "", "off", "no"])
    def test_falsy_values_do_not(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert not sanitizer_enabled()

    def test_execution_context_exports_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        with use_execution(sanitize=True):
            assert os.environ[SANITIZE_ENV] == "1"
            assert sanitizer_enabled()
        assert SANITIZE_ENV not in os.environ


class TestCleanRuns:
    def test_serial_run_is_quiet_and_bit_identical(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = NetworkSimulator(CFG).run(400, warmup=50)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        sanitized = NetworkSimulator(CFG).run(400, warmup=50)
        assert np.array_equal(plain.stage_counts, sanitized.stage_counts)
        assert np.array_equal(plain.stage_means, sanitized.stage_means)
        assert plain.injected == sanitized.injected
        assert plain.completed == sanitized.completed

    def test_stacked_run_is_quiet(self, armed, use_loop):
        use_loop(None)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2, 3)]
        results = run_stacked(cfgs, 300, warmup=30)
        assert len(results) == 3

    def test_streamed_run_is_quiet(self, armed):
        cfgs = [dataclasses.replace(CFG, seed=s, track_limit=0) for s in (1, 2)]
        batch = run_streamed(cfgs, 300, warmup=30)
        assert batch.totals is not None and batch.totals.count > 0


class TestNanInjection:
    def test_serial_kernel_nan_raises_with_coordinates(self, armed, monkeypatch):
        """THE acceptance case: a NaN slipped into the waiting-time
        stream raises at the offending cycle, with coordinates."""
        poison_nan_at(monkeypatch, 30)
        with pytest.raises(SanitizerError) as info:
            NetworkSimulator(CFG).run(2_000, warmup=0)
        err = info.value
        assert err.cycle is not None and err.cycle < 2_000
        assert err.stage is not None
        assert f"[cycle={err.cycle}, stage={err.stage}]" in str(err)
        assert "non-finite" in str(err)

    def test_stacked_kernel_nan_raises_with_replica(self, armed, monkeypatch, use_loop):
        use_loop(None)
        # the scan adds once per replica block and stage: this batch is
        # one block, so its three stages make three calls
        poison_nan_at(monkeypatch, 2)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError) as info:
            run_stacked(cfgs, 2_000, warmup=0)
        err = info.value
        assert err.cycle is not None
        assert err.stage is not None and 0 <= err.stage < CFG.n_stages
        assert err.replica is not None and 0 <= err.replica < 2

    def test_unsanitized_run_does_not_raise(self, monkeypatch):
        """Without arming, the poison sails through (and would surface
        as a silently wrong table entry -- the failure mode the
        sanitizer exists for)."""
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        poison_nan_at(monkeypatch, 30)
        result = NetworkSimulator(CFG).run(2_000, warmup=0)
        assert np.isnan(result.stage_means).any()


def lossy_kernel(*args):
    """The interpreted kernel, except one completed message goes missing."""
    in_flight = cycle_loop_kernel(*args)
    completed = inspect.signature(cycle_loop_kernel).bind(*args).arguments["completed"]
    completed[0] -= 1
    return in_flight


class TestKernelConservation:
    """The whole-run kernel's queues are gone when it returns, so its
    message count is checked against the completions it reported."""

    def test_clean_kernel_run_is_quiet(self, armed, use_loop):
        use_loop(cycle_loop_kernel)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        assert len(run_stacked(cfgs, 300, warmup=30)) == 2
        assert run_streamed(cfgs, 300, warmup=30).results[0].backend == "numba"

    def test_stacked_lost_completion_raises(self, armed, use_loop):
        use_loop(lossy_kernel)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="conservation") as info:
            run_stacked(cfgs, 300, warmup=30)
        assert info.value.cycle == 299

    def test_streamed_lost_completion_raises(self, armed, use_loop):
        use_loop(lossy_kernel)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="conservation"):
            run_streamed(cfgs, 300, warmup=30)

    def test_unsanitized_lost_completion_passes_silently(self, monkeypatch, use_loop):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        use_loop(cycle_loop_kernel)
        [clean] = run_stacked([CFG], 300, warmup=30)
        use_loop(lossy_kernel)
        [lossy] = run_stacked([CFG], 300, warmup=30)
        assert lossy.completed == clean.completed - 1


class TestScanChecks:
    """The scan's queues are arrays, so its run is checked against
    exact per-stage state: FIFO start order per block and stage, and
    arrived == served + queued per replica and stage at the end."""

    def test_clean_scan_runs_are_quiet(self, armed, use_loop, monkeypatch):
        use_loop(None)
        monkeypatch.setattr(scan, "BLOCK_MESSAGES", 300)  # several blocks
        cfgs = [dataclasses.replace(CFG, seed=s, message_size=2) for s in (1, 2, 3)]
        assert len(run_stacked(cfgs, 300, warmup=30)) == 3
        zero = [dataclasses.replace(c, track_limit=0) for c in cfgs]
        assert run_streamed(zero, 300, warmup=30).totals.count > 0

    def test_early_start_raises_at_its_cycle(self, armed, use_loop, monkeypatch):
        use_loop(None)
        real = scan._lindley

        def early(queue, ready, service):
            new, firsts, key, base = real(queue, ready, service)
            key[-1] -= 2  # the block's last hop starts before it may
            return new, firsts, key, base

        monkeypatch.setattr(scan, "_lindley", early)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="FIFO order") as info:
            run_stacked(cfgs, 300, warmup=30)
        err = info.value
        assert err.stage == 0 and err.replica == 1
        assert err.cycle is not None and 0 <= err.cycle < 300

    def test_lost_queued_message_raises_with_stage(self, armed, use_loop, monkeypatch):
        use_loop(None)
        real = scan._Scan.finish

        def lossy(self, injected):
            ports, *columns = (c.copy() for c in self.backlog[0])
            self.backlog[0] = (ports[1:], *(c[1:] for c in columns))
            return real(self, injected)

        monkeypatch.setattr(scan._Scan, "finish", lossy)
        cfgs = [dataclasses.replace(CFG, seed=s, p=0.9, message_size=2) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="stage conservation") as info:
            run_stacked(cfgs, 300, warmup=30)
        err = info.value
        assert err.cycle == 299
        assert err.replica is not None and err.stage is not None

    def test_unsanitized_scan_skips_the_checks(self, monkeypatch, use_loop):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        use_loop(None)
        real = scan._lindley

        def early(queue, ready, service):
            new, firsts, key, base = real(queue, ready, service)
            key[-1] -= 2
            return new, firsts, key, base

        monkeypatch.setattr(scan, "_lindley", early)
        assert len(run_stacked([CFG], 300, warmup=30)) == 1


class TestInvariantChecks:
    def test_stage_conservation_names_replica_and_stage(self):
        arrived = np.array([[5, 4], [6, 6]])
        served = np.array([[4, 4], [6, 5]])
        queued = np.array([[1, 0], [0, 0]])
        with pytest.raises(SanitizerError) as info:
            check_stage_conservation(arrived, served, queued, cycle=9)
        err = info.value
        assert (err.replica, err.stage, err.cycle) == (1, 1, 9)
        assert "6 hops arrived != 5 served + 0 queued" in str(err)
        check_stage_conservation(arrived, served, arrived - served, cycle=9)

    def test_fifo_starts_name_the_offending_hop(self):
        start = np.array([3, 5, 5, 2])
        ready = np.array([1, 2, 4, 2])
        new = np.array([True, False, False, True])
        replicas = np.array([0, 0, 0, 1])
        with pytest.raises(SanitizerError, match="FIFO order") as info:
            check_fifo_starts(start, ready, new, replicas=replicas, stage=2)
        assert (info.value.cycle, info.value.stage, info.value.replica) == (5, 2, 0)
        start[2] = 6
        check_fifo_starts(start, ready, new, replicas=replicas, stage=2)
        ready[3] = 3
        with pytest.raises(SanitizerError) as info:
            check_fifo_starts(start, ready, new, replicas=replicas, stage=2)
        assert (info.value.cycle, info.value.replica) == (2, 1)


    def test_conservation_mismatch_raises_with_cycle(self):
        with pytest.raises(SanitizerError) as info:
            check_conservation(10, 5, 2, 1, cycle=7)
        assert info.value.cycle == 7
        assert "[cycle=7]" in str(info.value)
        assert "injected=10" in str(info.value)

    def test_conservation_balance_is_quiet(self):
        check_conservation(10, 5, 4, 1, cycle=7)

    def test_negative_queue_depth_raises(self):
        counts = np.array([0, 3, -1, 2], dtype=np.int64)
        with pytest.raises(SanitizerError) as info:
            check_queue_depths(counts, cycle=12, ports_per_replica=2)
        assert "port 2" in str(info.value)
        assert info.value.replica == 1

    def test_non_negative_depths_are_quiet(self):
        check_queue_depths(np.array([0, 1, 2], dtype=np.int64), cycle=0)


class TestMergeConsistency:
    def _parts(self):
        rng = np.random.default_rng(0)
        totals = rng.integers(1, 50, size=200).astype(np.float64)
        replicas = rng.integers(0, 4, size=200)
        parts = [
            StreamingTotals.from_totals(
                totals[replicas == r], np.zeros((replicas == r).sum(), int), 1
            )
            for r in range(4)
        ]
        return parts

    def test_count_preserving_merge_is_quiet(self, armed):
        parts = self._parts()
        merged = StreamingTotals.concat(parts)
        assert merged.count == sum(p.count for p in parts)

    def test_lossy_merge_raises(self):
        parts = self._parts()
        merged = StreamingTotals.concat(parts)
        merged.counts[0] += 1  # simulate a merge that invented a message
        with pytest.raises(SanitizerError, match="lost messages"):
            check_merged_totals(merged, parts)

    def test_poisoned_replica_moment_raises(self, armed):
        parts = self._parts()
        parts[1].sums_shifted[0] = np.nan
        with pytest.raises(SanitizerError) as info:
            StreamingTotals.concat(parts)
        assert "non-finite per-replica" in str(info.value)
        assert info.value.replica == 1
