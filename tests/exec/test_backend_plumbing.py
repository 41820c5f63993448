"""The cycle loop that runs is an execution detail, never an identity.

Which executor runs a replica run -- the NumPy scan or the whole-run
kernel (:mod:`repro.simulation.backends`) -- must be invisible to
everything content-addressed: spec digests, cache keys, vectorize
grouping, and cached payloads.  These tests pin that down through the
execution layer, switching loops with the ``use_loop`` fixture.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.exec.cache import ResultCache
from repro.exec.context import ExecutionContext, run_batch, use_execution
from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec, group_for_vectorize
from repro.simulation.backends.jit import cycle_loop_kernel
from repro.simulation.network import NetworkConfig


def make_specs(n=3, **kwargs):
    base = dict(k=2, n_stages=3, p=0.5, topology="random", width=16)
    base.update(kwargs)
    return [
        ExperimentSpec(
            config=NetworkConfig(seed=s, **base), n_cycles=800, warmup=0,
            label=f"s{s}",
        )
        for s in range(1, n + 1)
    ]


def assert_same(a, b):
    assert np.array_equal(a.stage_means, b.stage_means)
    assert np.array_equal(a.stage_variances, b.stage_variances)
    assert np.array_equal(a.stage_counts, b.stage_counts)
    assert a.injected == b.injected
    assert a.completed == b.completed
    assert a.max_occupancy == b.max_occupancy


class TestBackendAbsentFromIdentity:
    def test_identity_has_no_backend_key(self):
        [spec] = make_specs(1)
        identity = spec.identity()
        flat = str(identity)
        assert "backend" not in flat
        assert "numba" not in flat

    def test_digest_ignores_ambient_backend(self, use_loop):
        use_loop(None)
        digests_numpy = [s.digest for s in make_specs()]
        use_loop(cycle_loop_kernel)
        digests_kernel = [s.digest for s in make_specs()]
        assert digests_numpy == digests_kernel

    def test_grouping_ignores_backend(self, use_loop):
        """group_for_vectorize partitions by shape, never by loop."""
        use_loop(None)
        _, groups_a = group_for_vectorize(make_specs(4))
        use_loop(cycle_loop_kernel)
        _, groups_b = group_for_vectorize(make_specs(4))
        assert groups_a == groups_b


class TestRunManyBackend:
    def test_rejects_unknown_backend(self):
        """run_many has no loop knob: any backend argument is refused."""
        with pytest.raises(TypeError, match="backend"):
            run_many(make_specs(1), backend="numpy")

    def test_accepts_each_choice_serially(self, use_loop):
        """Serial (non-vectorized) runs always take the serial engine,
        whichever loop the replica engines would pick."""
        for kernel in (None, cycle_loop_kernel):
            use_loop(kernel)
            batch = run_many(make_specs(1))
            assert batch.n_failed == 0
            assert batch.results()[0].backend == "numpy"

    def test_vectorized_backend_numpy_matches_default(self, use_loop):
        specs = make_specs()
        a = run_many(specs, vectorize=True).results()
        use_loop(None)
        b = run_many(specs, vectorize=True).results()
        for ra, rb in zip(a, b, strict=True):
            assert_same(ra, rb)

    def test_vectorized_results_identical_across_backends(self, use_loop):
        """The whole exec path: NumPy-loop group run == kernel run."""
        kernel_runs = []

        def counting_kernel(*args):
            kernel_runs.append(args[0])
            return cycle_loop_kernel(*args)

        specs = make_specs()
        use_loop(None)
        via_numpy = run_many(specs, vectorize=True).results()
        use_loop(counting_kernel)
        via_kernel = run_many(specs, vectorize=True).results()
        assert kernel_runs == [specs[0].n_cycles]  # one stacked group
        for ra, rb in zip(via_numpy, via_kernel, strict=True):
            assert_same(ra, rb)


class TestExecutionContext:
    def test_default_backend_is_auto(self):
        """The context carries no loop field: the choice is automatic."""
        assert "backend" not in {f.name for f in fields(ExecutionContext)}

    def test_context_threads_backend_into_run_batch(self, monkeypatch):
        """run_batch forwards the context's knobs, and no loop knob."""
        import repro.exec.context as context_mod

        captured = {}
        original = context_mod.run_many

        def spy(specs, **kwargs):
            captured.update(kwargs)
            return original(specs, **kwargs)

        monkeypatch.setattr(context_mod, "run_many", spy)
        with use_execution(vectorize=True):
            run_batch(make_specs(1))
        assert "backend" not in captured
        assert captured["vectorize"] is True


class TestCacheAcrossBackends:
    def test_cache_hit_regardless_of_backend_setting(self, tmp_path, use_loop):
        """A result computed by one loop is served from cache when the
        other would run -- the key carries no loop."""
        cache = ResultCache(tmp_path)
        specs = make_specs()
        use_loop(None)
        first = run_many(specs, vectorize=True, cache=cache)
        assert first.n_simulated == len(specs)
        use_loop(cycle_loop_kernel)
        second = run_many(specs, vectorize=True, cache=cache)
        assert second.n_cached == len(specs)
        for ra, rb in zip(first.results(), second.results(), strict=True):
            assert np.array_equal(ra.stage_means, rb.stage_means)
            # rehydrated payloads carry no loop label: it defaults
            assert rb.backend == "numpy"
