"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import check, obs
from repro.machine.config import MachineConfig
from repro.qsmlib import RunConfig
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def obs_state():
    """Observability switched on for one test, off afterwards."""
    state = obs.enable()
    try:
        yield state
    finally:
        obs.disable()


@pytest.fixture(autouse=True)
def _obs_stays_off():
    """Guard: no test may leak globally-enabled observability."""
    yield
    if obs.enabled():
        obs.disable()
        pytest.fail("a test left repro.obs enabled; use the obs_state fixture")


@pytest.fixture
def sanitizer():
    """The phase-conflict sanitizer armed (error mode) for one test."""
    san = check.arm("error")
    try:
        yield san
    finally:
        check.disarm()


@pytest.fixture
def sanitizer_warn():
    """The phase-conflict sanitizer armed in warn (report-only) mode."""
    san = check.arm("warn")
    try:
        yield san
    finally:
        check.disarm()


@pytest.fixture(autouse=True)
def _sanitizer_stays_off():
    """Guard: no test may leak a globally-armed sanitizer."""
    yield
    if check.armed():
        check.disarm()
        pytest.fail("a test left repro.check armed; use the sanitizer fixture")


@pytest.fixture(autouse=True)
def _store_stays_off():
    """Guard: no test may leak a globally-installed result store."""
    yield
    from repro import store

    store.clear_listener()
    if store.active_store() is not None:
        store.clear_store()
        pytest.fail("a test left repro.store installed; call store.clear_store()")


@pytest.fixture(autouse=True)
def _memo_starts_empty():
    """Guard: no test replays sweep points another test computed."""
    from repro.experiments import executor

    executor.clear_memo()
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> RunConfig:
    """A 4-processor machine with semantics checking on (fast tests)."""
    return RunConfig(machine=MachineConfig(p=4), seed=7, check_semantics=True)


@pytest.fixture
def p16_config() -> RunConfig:
    """The paper's default 16-processor machine."""
    return RunConfig(machine=MachineConfig(p=16), seed=7, check_semantics=False)
