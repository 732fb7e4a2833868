"""The oracle for the one optimisation left on the request path.

``PMNetClient._complete`` cancels a completed request's retransmission
timer instead of letting it fire as a no-op, keeping only the
latest-expiring one armed so the end-of-run clock stays put.  The
reference timeline leaves every timer armed
(:func:`tests.conftest.leave_completed_timers_armed`, a test-local
patch).  On the benchmark's four workload shapes and on two chaos corpus
lines, both timelines must give the same sample digest, latency samples
and ``final_now``; only the executed-event count may differ.
"""

from __future__ import annotations

import pytest

from repro.failure import chaos

from tests.conftest import leave_completed_timers_armed
from tests.experiments.test_pipeline_bench import (BENCH_SHAPES,
                                                   FABRIC_CHAIN,
                                                   FABRIC_CHAIN_LOAD,
                                                   _run_bench_shape)

#: The benchmark's shapes: ``(spec, client hosts, btree handler,
#: failover, closed loop)``.
SHAPES = {**BENCH_SHAPES,
          "fabric-chain": (FABRIC_CHAIN, None, False, False,
                           FABRIC_CHAIN_LOAD)}

#: Executed events with every timer left armed (sim seed 3): each
#: completed request's timer runs as one no-op event.
ARMED_EVENTS = {"rack-update": 9605, "rack-read-cache": 6556,
                "fabric-chain": 20_001, "fabric-failover": 116_392}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_armed_timers_change_no_bench_shape_result(name, monkeypatch):
    default = _run_bench_shape(*SHAPES[name])
    leave_completed_timers_armed(monkeypatch)
    armed = _run_bench_shape(*SHAPES[name])
    assert armed.pop("executed_events") == ARMED_EVENTS[name]
    assert default.pop("executed_events") < ARMED_EVENTS[name]
    # Completed count, sample digest, samples and end-of-run clock.
    assert armed == default


def _replay(family: str, seed: int) -> dict:
    """One corpus line's verdict, trace and end-of-run clock."""
    result = chaos.run_plan(chaos.generate_plan(seed, family))
    return dict(ok=result.ok, violations=result.violations,
                trace_digest=result.trace_digest, spans=result.spans,
                completions=result.completions,
                acknowledged=result.acknowledged,
                final_now=result.final_now,
                executed_events=result.executed_events)


@pytest.mark.parametrize("family, seed", [("rack", 4), ("fabric", 1)],
                         ids=["rack-4", "fabric-1"])
def test_armed_timers_change_no_chaos_replay(family, seed, monkeypatch):
    # ``rack 4`` opens lossy, duplicating windows and ``fabric 1`` adds
    # server and device outages, so timers fire for real beside the
    # cancelled ones.
    default = _replay(family, seed)
    leave_completed_timers_armed(monkeypatch)
    armed = _replay(family, seed)
    assert default["ok"], default["violations"]
    assert default.pop("executed_events") < armed.pop("executed_events")
    assert armed == default
