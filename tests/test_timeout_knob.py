"""The per-test wall-clock guard's knob fails loudly on a bad value."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_non_integer_timeout_is_a_usage_error(value):
    env = {**os.environ, "REPRO_TEST_TIMEOUT": value,
           "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_errors.py"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == pytest.ExitCode.USAGE_ERROR
    assert f"REPRO_TEST_TIMEOUT must be an integer number of seconds, " \
           f"got {value!r}" in run.stderr
