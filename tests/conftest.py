"""Shared fixtures: small devices and a pre-trained engine.

The trained engine is session-scoped because VAE training, even tiny, is the
dominant cost; tests that mutate engine state build their own.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import E2NVM, KVStore
from repro.core.config import fast_test_config
from repro.nvm import MemoryController, NVMDevice


SEGMENT_SIZE = 64
N_SEGMENTS = 128


def make_device(seed: int = 7, segment_size: int = SEGMENT_SIZE,
                n_segments: int = N_SEGMENTS, **kwargs) -> NVMDevice:
    """A small random-content device for tests."""
    return NVMDevice(
        capacity_bytes=n_segments * segment_size,
        segment_size=segment_size,
        initial_fill="random",
        seed=seed,
        **kwargs,
    )


def assert_stats_equal(a, b) -> None:
    """Device stats of a batched body and its scalar twin: integer
    counters match exactly, float accumulators to 1e-12 (a batch adds
    ``n * cost`` where a loop adds ``cost`` n times)."""
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float):
            assert va == pytest.approx(vb, rel=1e-12), field.name
        else:
            assert va == vb, field.name


def make_engine(
    seed: int = 7,
    n_segments: int = N_SEGMENTS,
    segment_size: int = SEGMENT_SIZE,
    **config_overrides,
) -> E2NVM:
    """A freshly trained small engine over its own device."""
    device = make_device(
        seed=seed, segment_size=segment_size, n_segments=n_segments
    )
    controller = MemoryController(device)
    engine = E2NVM(controller, fast_test_config(**config_overrides))
    engine.train()
    return engine


@pytest.fixture
def device() -> NVMDevice:
    return make_device()


@pytest.fixture
def controller(device) -> MemoryController:
    return MemoryController(device)


@pytest.fixture(scope="session")
def trained_engine() -> E2NVM:
    """Read-mostly trained engine; do NOT mutate its pool in tests."""
    return make_engine()


@pytest.fixture
def fresh_engine() -> E2NVM:
    """A trained engine safe to mutate."""
    return make_engine(seed=11)


@pytest.fixture
def kvstore(fresh_engine) -> KVStore:
    return KVStore(fresh_engine)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
