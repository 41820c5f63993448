"""Fixtures shared across the test suite."""

import pytest

from repro.simulation.backends import jit


@pytest.fixture
def use_loop(monkeypatch):
    """Pin the cycle loop the replica engines take.

    ``use_loop(kernel)`` makes :func:`~repro.simulation.backends.jit.compiled_kernel`
    return ``kernel``: pass the interpreted
    :func:`~repro.simulation.backends.jit.cycle_loop_kernel` to test the
    kernel path without numba, or ``None`` to force the NumPy scan even
    where numba is installed.
    """

    def use(kernel):
        monkeypatch.setattr(jit, "compiled_kernel", lambda: kernel)

    return use
