"""Executor equivalence: the whole-run kernel vs the stage-major NumPy scan.

The determinism contract (``docs/backends.md``) says the two loops are
**bit-identical**, not statistically equivalent.  Two layers enforce it:

* **always-on** -- the kernel algorithm is an ordinary Python function
  (:func:`~repro.simulation.backends.jit.cycle_loop_kernel`); the
  ``use_loop`` fixture substitutes it for ``compiled_kernel()``, which
  validates the whole concatenate + linked-list-FIFO design in every
  environment, numba or not;
* **with numba** -- the same cases re-run through the ``@njit``-compiled
  loop, proving compilation changes nothing.

Every anchor the batched engine already has -- the seven config
variants, heterogeneous stacked rows, R=1 vs the serial engine -- is
re-asserted here per kernel.
"""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.simulation.backends import jit
from repro.simulation.batched import _build_stacked_engine, run_batched, run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator

from tests.simulation.test_batched import assert_results_identical

#: every kernel this suite drives: interpreted always, compiled when
#: numba is importable
KERNELS = [pytest.param(jit.cycle_loop_kernel, id="interpreted-kernel")]
if jit.numba_available():
    KERNELS.append(pytest.param(jit.compiled_kernel(), id="njit"))

ANCHOR_VARIANTS = [
    dict(k=2, n_stages=3, p=0.5, topology="omega"),
    dict(k=2, n_stages=6, p=0.7, topology="random", width=8),
    dict(k=2, n_stages=3, p=0.4, topology="butterfly", bulk_size=2),
    dict(k=2, n_stages=3, p=0.5, topology="baseline", q=0.3),
    dict(k=2, n_stages=3, p=0.3, message_size=3, transfer="store_forward"),
    dict(k=2, n_stages=3, p=0.4, sizes=(1, 3), probabilities=(0.5, 0.5)),
    dict(k=4, n_stages=2, p=0.6, topology="omega"),
]
ANCHOR_IDS = ["omega", "random-deep", "bulk", "favourite", "store-forward",
              "multisize", "k4"]


# ----------------------------------------------------------------------
# automatic selection
# ----------------------------------------------------------------------
class TestResolution:
    def test_auto_degrades_cleanly_without_numba(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0)
        expected = "numba" if jit.numba_available() else "numpy"
        assert result.backend == expected

    def test_explicit_numpy_always_works(self, use_loop):
        use_loop(None)
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0)
        assert result.backend == "numpy"

    def test_unknown_backend_name_raises(self):
        """The loop is chosen automatically: no backend can be named."""
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        with pytest.raises(TypeError, match="backend"):
            run_stacked([config], 800, warmup=0, backend="numpy")

    def test_backend_instance_passes_through(self, use_loop):
        """Whatever ``compiled_kernel()`` returns is the kernel that runs."""
        calls = []

        def counting_kernel(*args):
            calls.append(args[0])
            return jit.cycle_loop_kernel(*args)

        use_loop(counting_kernel)
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0)
        assert result.backend == "numba"
        assert calls == [800]

    def test_digit_free_topology_refused(self):
        """The replica engines draw everything at injection, so a
        topology routed by coin flips has no place in their loop."""
        from repro.simulation.backends import StackedLoop

        topology = NetworkConfig(k=2, n_stages=3, p=0.5).build_topology()
        topology.routing_shifts = lambda: None
        with pytest.raises(SimulationError, match="digit table"):
            StackedLoop(topology, 2, cut_through=True, track_limit=10)


# ----------------------------------------------------------------------
# bit-identity anchors, per available kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelEquivalence:
    @pytest.mark.parametrize("kwargs", ANCHOR_VARIANTS, ids=ANCHOR_IDS)
    def test_anchor_variants_bit_identical(self, use_loop, kernel, kwargs):
        config = NetworkConfig(seed=42, **kwargs)
        use_loop(None)
        [ref] = run_batched(config, [42], 1_500)
        use_loop(kernel)
        [jitted] = run_batched(config, [42], 1_500)
        assert_results_identical(ref, jitted)
        assert ref.backend == "numpy" and jitted.backend == "numba"

    def test_replica_stack_bit_identical(self, use_loop, kernel):
        config = NetworkConfig(k=2, n_stages=4, p=0.6, topology="random", width=16)
        seeds = [11, 12, 13, 14]
        use_loop(None)
        ref = run_batched(config, seeds, 2_000)
        use_loop(kernel)
        jitted = run_batched(config, seeds, 2_000)
        for a, b in zip(ref, jitted, strict=True):
            assert_results_identical(a, b)

    def test_heterogeneous_stack_bit_identical(self, use_loop, kernel):
        """Scenario-stacked rows differing in load/bulk/seed."""
        base = NetworkConfig(k=2, n_stages=3, p=0.2, topology="random", width=16)
        configs = [
            replace(base, p=p, bulk_size=b, seed=s)
            for (p, b, s) in [(0.2, 1, 9), (0.9, 1, 10), (0.4, 2, 11)]
        ]
        use_loop(None)
        ref = run_stacked(configs, 2_000)
        use_loop(kernel)
        jitted = run_stacked(configs, 2_000)
        for a, b in zip(ref, jitted, strict=True):
            assert_results_identical(a, b)
            assert a.config == b.config

    def test_r1_bit_identical_to_serial_engine(self, use_loop, kernel):
        """The chain closes: serial engine == NumPy scan == kernel."""
        config = NetworkConfig(k=2, n_stages=3, p=0.5, topology="omega", seed=42)
        serial = NetworkSimulator(config).run(n_cycles=1_500)
        use_loop(kernel)
        [jitted] = run_stacked([config], 1_500)
        assert_results_identical(serial, jitted)

    def test_warmup_discards_identically(self, use_loop, kernel):
        config = NetworkConfig(k=2, n_stages=3, p=0.7, seed=5)
        use_loop(None)
        [ref] = run_stacked([config], 1_200, warmup=400)
        use_loop(kernel)
        [jitted] = run_stacked([config], 1_200, warmup=400)
        assert_results_identical(ref, jitted)
        assert ref.warmup == jitted.warmup == 400

    def test_finalized_engine_refuses_further_use(self, use_loop, kernel):
        use_loop(kernel)
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        engine = _build_stacked_engine([config])
        engine.run(300)
        assert engine.now == 300
        assert engine.in_flight == int(engine.injected.sum()) - int(
            engine.loop.completed.sum()
        )
        assert engine.in_flight >= 0
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.run(100)


# ----------------------------------------------------------------------
# the loop that ran is an execution detail
# ----------------------------------------------------------------------
class TestBackendIsNotIdentity:
    def test_result_backend_label_only_differs(self, use_loop):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=3)
        use_loop(None)
        [a] = run_stacked([config], 800)
        use_loop(jit.cycle_loop_kernel)
        [b] = run_stacked([config], 800)
        assert a.backend != b.backend
        assert_results_identical(a, b)

    def test_timers_label_their_backend(self, use_loop):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=3)
        use_loop(jit.cycle_loop_kernel)
        engine = _build_stacked_engine([config])
        engine.enable_profiling()
        engine.run(300)
        timings = engine.timers.as_dict()
        assert timings["predraw"]["backend"] == "numba"
        assert timings["kernel"]["backend"] == "numba"

        use_loop(None)
        engine = _build_stacked_engine([config])
        engine.enable_profiling()
        engine.run(300)
        timings = engine.timers.as_dict()
        assert timings["predraw"]["backend"] == "numpy"
        # the scan times its phases once per replica block and stage
        for phase in ("order", "scan", "reduce"):
            assert timings[phase]["backend"] == "numpy"
            assert timings[phase]["calls"] == config.n_stages
        assert not {"inject", "serve", "tick"} & set(timings)
