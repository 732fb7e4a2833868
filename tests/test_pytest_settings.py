"""The suite's pytest settings let a failing property test report.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.
Hypothesis reports a failure through ``hypothesis.extra._patching``,
whose import chain (libcst) raises one from ``mypy_extensions``; unless
that one warning is ignored, a falsifying example ends in an
``INTERNALERROR`` instead of being printed.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_FAILING_PROPERTY = textwrap.dedent("""\
    from hypothesis import given, strategies as st


    @given(st.integers(min_value=0))
    def test_always_fails(x):
        assert x < 0
    """)


def test_failing_property_prints_its_falsifying_example(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == pytest.ExitCode.TESTS_FAILED, output
    assert "Falsifying example" in output
