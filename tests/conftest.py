"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro.geometry import shapes


@pytest.fixture(scope="session", autouse=True)
def lockwatch_sanitizer():
    """Opt-in runtime lock-order sanitizer (``REPRO_LOCKWATCH=1``).

    When enabled, every :class:`InferenceServer` constructed anywhere
    in the suite (a fleet's replicas included) gets its serving locks
    swapped for :class:`LockOrderWatchdog` proxies, so each threaded
    test doubles as a sanitizer run.  The fleet itself holds no lock:
    it runs only in virtual time, on one thread.  The session fails
    at teardown if any acquisition order contradicted the static
    CONC-502 lock-order graph (or inverted at runtime).
    """
    if os.environ.get("REPRO_LOCKWATCH") != "1":
        yield None
        return
    from repro.robustness.lockwatch import (
        LockOrderWatchdog,
        static_lock_order,
    )
    from repro.serving.server import InferenceServer

    watchdog = LockOrderWatchdog(static_edges=static_lock_order())
    orig_server_init = InferenceServer.__init__

    def server_init(self, *args, **kwargs):
        orig_server_init(self, *args, **kwargs)
        watchdog.instrument_server(self)

    InferenceServer.__init__ = server_init
    try:
        yield watchdog
    finally:
        InferenceServer.__init__ = orig_server_init
    # After restoring the constructor: fail the session loudly if
    # anything was observed out of order.
    watchdog.check()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_cloud(rng):
    """A 256-point irregular cloud (biased sphere)."""
    return shapes.sample_sphere(256, rng, density_bias=1.0)


@pytest.fixture
def medium_cloud(rng):
    """A 1024-point irregular cloud for neighbor-search tests."""
    return shapes.sample_torus(1024, rng, density_bias=0.8)


@pytest.fixture
def uniform_cloud(rng):
    """A uniform random cloud in the unit cube."""
    return rng.random((512, 3))
