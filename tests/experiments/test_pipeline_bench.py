"""Exact event counts of the pipeline benchmark's stress run.

``bench-pipeline`` and ``benchmarks/test_pipeline_events.py`` report the
events/request of the Fig 16 stress shape at both fold levels.  Event
counts are deterministic, so the counts themselves are pinned here: any
change to what a level folds — or to the timeline it folds — moves them.
"""

from __future__ import annotations

import pytest

from repro.experiments.pipeline_bench import _run_mode

#: ``executed_events`` of the 32-client x 20-request seed-0 run.
EXACT_EVENTS = {"none": 30453, "whole": 16808}


@pytest.mark.parametrize("fold, events", sorted(EXACT_EVENTS.items()))
def test_executed_events_are_exact(fold, events):
    assert _run_mode(fold, 32, 20, seed=0)["executed_events"] == events
