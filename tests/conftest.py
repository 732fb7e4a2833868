"""Suite-wide fixtures (the per-test wall-clock guard) and helpers.

A discrete-event simulator's favourite failure mode is the silent
infinite loop (an event that reschedules itself forever, a driver
process that never finishes).  Without a guard, one such bug turns the
suite into a hang instead of a failure.  pytest-timeout is not part of
the baked-in toolchain, so the guard is a SIGALRM alarm armed around
every test — same effect, no dependency.

Knobs (environment variables):

* ``REPRO_TEST_TIMEOUT`` — seconds per test (default 120; ``0``
  disables the guard entirely; a non-integer is a usage error).
* Tests marked ``slow`` get 5x the budget: they run whole Hypothesis
  crash sweeps and full-scale experiments by design.

Helpers for test modules: :data:`FOLD_LEVELS` and :func:`fold`, which
builds components at one fold level (``from tests.conftest import
fold``).
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Iterator, Optional

import pytest

#: The fold levels every identity suite compares: the unfolded
#: reference timeline, then the default whole-request fold.
FOLD_LEVELS = ("none", "whole")


@contextmanager
def fold(level: Optional[str]) -> Iterator[None]:
    """Build components at fold ``level`` (``"none"``/``"whole"``).

    Sets ``PMNET_FOLD`` for the block and restores it after; components
    read it at construction, so build inside the block and run after.
    ``None`` leaves the environment's level in force.
    """
    previous = os.environ.get("PMNET_FOLD")
    try:
        if level is not None:
            os.environ["PMNET_FOLD"] = level
        yield
    finally:
        if previous is None:
            os.environ.pop("PMNET_FOLD", None)
        else:
            os.environ["PMNET_FOLD"] = previous

_DEFAULT_TIMEOUT_S = 120
_SLOW_MULTIPLIER = 5


def _base_budget() -> int:
    """``REPRO_TEST_TIMEOUT`` in seconds; a non-integer is a usage error."""
    raw = os.environ.get("REPRO_TEST_TIMEOUT", str(_DEFAULT_TIMEOUT_S))
    try:
        return int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"REPRO_TEST_TIMEOUT must be an integer number of seconds, "
            f"got {raw!r}") from None


def pytest_configure(config: pytest.Config) -> None:
    _base_budget()  # a bad knob stops pytest before any test runs


def _budget_for(item: pytest.Item) -> int:
    budget = _base_budget()
    if budget <= 0:
        return 0
    if item.get_closest_marker("slow") is not None:
        budget *= _SLOW_MULTIPLIER
    return budget


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep the CLI's on-disk result cache out of the repo during tests.

    ``pmnet-repro run`` caches sweep points under ``.pmnet-cache`` in
    the working directory by default; a test invoking ``main()`` must
    not leave that behind (or, worse, serve stale hits across tests).
    """
    monkeypatch.setenv("PMNET_CACHE_DIR", str(tmp_path / "pmnet-cache"))


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """Fail (don't hang) any test that exceeds its wall-clock budget."""
    budget = _budget_for(request.node)
    if budget <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded {budget}s wall-clock budget "
                    "(likely a simulation that never drains); "
                    "set REPRO_TEST_TIMEOUT to adjust", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
