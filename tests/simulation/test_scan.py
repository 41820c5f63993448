"""The stage-major Lindley scan: differential fuzzing, blocking, guards.

The scan (:mod:`repro.simulation.backends.scan`) replaces a loop over
cycles with per-stage prefix scans, so its agreement with a cycle-by-
cycle simulation is the whole claim.  Hypothesis draws small random
configurations and requires **every** ``NetworkResult`` field and the
``StreamingTotals`` to match, bit for bit:

* the interpreted whole-run kernel
  (:func:`~repro.simulation.backends.jit.cycle_loop_kernel`), a
  linked-list FIFO stepped one cycle at a time, on both replica designs;
* the serial ``ClockedEngine`` at R=1;
* the scan itself under random shard cuts, and with the replica block
  and the lag scan of the depth computation forced small, so block
  boundaries and the binary-search fallback are crossed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.backends import StackedLoop, scan
from repro.simulation.backends.jit import cycle_loop_kernel
from repro.simulation.batched import _build_stacked_engine, run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.stats import StreamingTotals
from repro.simulation.streamed import run_streamed

#: result fields that legitimately differ between two runs of one spec
_LABELS = {"elapsed_seconds", "backend", "timings", "manifest_path", "tracked"}

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def assert_same(a, b, path="result"):
    """Deep bit-equality of arrays, dataclasses and plain objects."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif hasattr(a, "__dict__"):
        assert vars(a).keys() == vars(b).keys(), path
        for name in vars(a):
            assert_same(vars(a)[name], vars(b)[name], f"{path}.{name}")
    elif isinstance(a, float) and a != a:
        assert b != b, path
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def assert_results_same(a, b):
    """Every ``NetworkResult`` field but the execution labels."""
    for f in dataclasses.fields(a):
        if f.name not in _LABELS:
            assert_same(getattr(a, f.name), getattr(b, f.name), f.name)
    assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())


@st.composite
def scenarios(draw):
    """``(configs, n_cycles, warmup)``: a small random replica stack."""
    k = draw(st.sampled_from([2, 3, 4]))
    n_stages = draw(st.integers(1, 4 if k == 2 else 3 if k == 3 else 2))
    service = draw(
        st.sampled_from(
            [
                {},
                {"message_size": 2},
                {"message_size": 3},
                {"sizes": (1, 3), "probabilities": (0.5, 0.5)},
                {"sizes": (1, 2, 4), "probabilities": (0.6, 0.3, 0.1)},
            ]
        )
    )
    shape = dict(
        k=k,
        n_stages=n_stages,
        transfer=draw(st.sampled_from(["cut_through", "store_forward"])),
        track_limit=draw(st.sampled_from([0, 1, 7, 50])),
        **service,
    )
    n_replicas = draw(st.integers(1, 5))
    configs = [
        NetworkConfig(
            p=draw(st.floats(0.05, 0.95)),
            q=draw(st.sampled_from([0.0, 0.3])),
            # bulk arrivals are unit-service packets by definition
            bulk_size=draw(st.integers(1, 3)) if not service else 1,
            seed=draw(st.integers(0, 2**31)),
            **shape,
        )
        for _ in range(n_replicas)
    ]
    n_cycles = draw(st.integers(20, 120))
    warmup = draw(st.integers(0, n_cycles - 1))
    return configs, n_cycles, warmup


def streamed_both(use_loop, configs, n_cycles, warmup):
    use_loop(None)
    got = run_streamed(configs, n_cycles, warmup=warmup)
    use_loop(cycle_loop_kernel)
    want = run_streamed(configs, n_cycles, warmup=warmup)
    return got, want


class TestDifferential:
    @FUZZ
    @given(case=scenarios())
    def test_streamed_scan_matches_kernel(self, use_loop, case):
        configs, n_cycles, warmup = case
        got, want = streamed_both(use_loop, configs, n_cycles, warmup)
        assert {r.backend for r in got.results} == {"numpy"}
        for a, b in zip(got.results, want.results, strict=True):
            assert_results_same(a, b)
        assert_same(got.totals, want.totals, "totals")

    @FUZZ
    @given(case=scenarios())
    def test_stacked_scan_matches_kernel_and_serial(self, use_loop, case):
        configs, n_cycles, warmup = case
        configs = [dataclasses.replace(c, track_limit=max(c.track_limit, 1)) for c in configs]
        use_loop(None)
        got = run_stacked(configs, n_cycles, warmup=warmup)
        use_loop(cycle_loop_kernel)
        want = run_stacked(configs, n_cycles, warmup=warmup)
        for a, b in zip(got, want, strict=True):
            assert_results_same(a, b)
        serial = NetworkSimulator(configs[0]).run(n_cycles, warmup=warmup)
        [alone] = (
            got if len(configs) == 1 else run_stacked(configs[:1], n_cycles, warmup=warmup)
        )
        assert_results_same(serial, alone)

    @FUZZ
    @given(case=scenarios(), data=st.data())
    def test_shard_cuts_and_small_blocks_change_nothing(self, use_loop, case, data):
        configs, n_cycles, warmup = case
        use_loop(None)
        whole = run_streamed(configs, n_cycles, warmup=warmup)
        cuts = sorted(
            data.draw(st.sets(st.integers(1, len(configs) - 1)), label="cuts")
            if len(configs) > 1
            else set()
        )
        block = data.draw(st.integers(1, 64), label="block")
        lags = data.draw(st.integers(1, 3), label="lags")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan, "BLOCK_MESSAGES", block)
            mp.setattr(scan, "_LAG_SCAN", lags)
            bounds = [0, *cuts, len(configs)]
            shards = [
                run_streamed(configs[lo:hi], n_cycles, warmup=warmup)
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            ]
        results = [r for shard in shards for r in shard.results]
        for a, b in zip(results, whole.results, strict=True):
            assert_results_same(a, b)
        if whole.totals is not None:
            merged = StreamingTotals.concat([s.totals for s in shards])
            for name in ("counts", "sums_shifted", "sumsq_shifted", "mins", "maxs", "tail"):
                assert_same(getattr(merged, name), getattr(whole.totals, name), name)


class TestBlocking:
    def test_block_boundary_splits_the_batch(self, use_loop, monkeypatch):
        """A batch far above the block size runs as several blocks,
        identically to the kernel."""
        configs = [NetworkConfig(k=2, n_stages=3, p=0.6, seed=s, track_limit=0)
                   for s in range(6)]
        monkeypatch.setattr(scan, "BLOCK_MESSAGES", 500)
        calls = []
        real = scan._Scan.block

        def counting(self, r0, r1, *columns):
            calls.append((r0, r1))
            return real(self, r0, r1, *columns)

        monkeypatch.setattr(scan._Scan, "block", counting)
        got, want = streamed_both(use_loop, configs, 300, 30)
        assert len(calls) > 1
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)
        assert calls[0][0] == 0 and calls[-1][1] == len(configs)
        for a, b in zip(got.results, want.results, strict=True):
            assert_results_same(a, b)
        assert_same(got.totals, want.totals, "totals")

    def test_backlog_holds_what_was_not_delivered(self, use_loop):
        """The end-of-run backlog is real queue state: its occupancy is
        exactly injected - completed, port by port in FIFO order."""
        use_loop(None)
        configs = [NetworkConfig(k=2, n_stages=3, p=0.9, seed=s, message_size=2)
                   for s in (1, 2)]
        engine = _build_stacked_engine(configs)
        engine.run(200, warmup=20)
        loop = engine.loop
        assert loop.backlog is not None
        assert loop.backlog.total_occupancy() == engine.in_flight > 0
        assert np.all(np.diff(loop.backlog_ports) > 0)
        assert loop.backlog_ports.max() < loop.n_ports


class TestGuards:
    def _loop(self):
        topology = NetworkConfig(k=2, n_stages=2, p=0.5).build_topology()
        return StackedLoop(topology, 1, cut_through=True, track_limit=4)

    def test_service_below_one_cycle_refused(self, use_loop):
        use_loop(None)
        offsets = np.array([0, 2, 2], dtype=np.int64)
        arrivals = (offsets, np.array([0, 1]), np.array([0, 3]),
                    np.array([1, 0]), np.array([-1, -1]))
        with pytest.raises(SimulationError, match=">= 1 cycle"):
            self._loop().run(2, 0, arrivals)

    def test_zero_service_model_refused_at_assembly(self, monkeypatch):
        """A service model that samples a zero never reaches the scan."""
        config = NetworkConfig(k=2, n_stages=2, p=0.5, seed=1)
        model = config.service_model()
        monkeypatch.setattr(
            type(model), "sample",
            lambda self, rng, n: np.zeros(n, dtype=np.int64),
        )
        with pytest.raises(SimulationError, match=">= 1 cycle"):
            run_streamed([config], 50, warmup=0)

    def test_scan_key_overflow_refused(self, use_loop, monkeypatch):
        use_loop(None)
        monkeypatch.setattr(scan, "_KEY_LIMIT", 64)
        with pytest.raises(SimulationError, match="overflow"):
            run_streamed([NetworkConfig(k=2, n_stages=2, p=0.5, seed=1)], 100, warmup=0)
