"""Smoke tests: every example script must run cleanly.

Every example runs inline (each takes about a second) with
``DeprecationWarning`` raised as an error, so an example left on a
removed API fails here.
"""

import importlib.util
import pathlib
import sys
import warnings

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_example_set(self):
        assert set(ALL_EXAMPLES) >= {
            "quickstart", "twitter_clone", "tpcc_critical_sections",
            "replicated_store", "failure_recovery", "read_caching",
            "custom_workload"}

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_defines_main(self, name):
        module = _load(name)
        assert callable(getattr(module, "main", None)), name

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_fast_example_runs(self, name, capsys):
        module = _load(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            module.main()
        out = capsys.readouterr().out
        assert out.strip(), f"{name} printed nothing"
        assert "Traceback" not in out
