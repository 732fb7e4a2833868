"""Differential property tests: the tiered scheduler against a heap oracle.

The tiered queue earns its speed only if it is *observably identical*
to the plain ``(time, seq)`` heap in ``heap_oracle.py``: same callbacks,
same order, same timestamps, same counters, under any interleaving of
``schedule`` / ``schedule_at`` / ``call_soon`` / ``cancel`` /
``schedule_deferred`` (including tuple re-sequencing chains) issued from
inside running callbacks.  Hypothesis generates random scheduling
programs; an interpreter executes each program on both and the traces
must match exactly.

The far/near boundary is the riskiest code, so delays are drawn both
well inside the calendar horizon and straddling it, and the run asserts
that the lane, the calendar and the far tier each served pops.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.event import DEFAULT_KERNEL_HORIZON_NS

from tests.sim.heap_oracle import HeapOracle

#: Delays that land in the now lane or the calendar, and delays that
#: straddle the calendar horizon (calendar on one side, far tier on the
#: other, depending on the drain instant they are pushed from).
_NEAR = st.integers(min_value=0, max_value=40)
_STRADDLE = st.integers(min_value=DEFAULT_KERNEL_HORIZON_NS - 40,
                        max_value=DEFAULT_KERNEL_HORIZON_NS + 40)
DELAYS = st.one_of(_NEAR, _NEAR, _STRADDLE)

#: ``until`` strides of the segmented drive: short ones stop inside
#: busy instants, long ones cross the horizon-sized gaps in a few calls.
STRIDES = (17, 600)


# ---------------------------------------------------------------------------
# Program representation: node i carries a list of actions it performs
# when its callback runs.  Handles are kept per node id so ``cancel``
# can target any previously scheduled node, including already-executed
# or never-scheduled ones (both must be harmless no-ops / misses).
# ---------------------------------------------------------------------------

def _actions(num_nodes: int):
    target = st.integers(min_value=0, max_value=num_nodes - 1)
    chain = st.lists(DELAYS.filter(bool), min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.just("schedule"), DELAYS, target),
        st.tuples(st.just("schedule_at"), DELAYS, target),
        st.tuples(st.just("call_soon"), target),
        st.tuples(st.just("deferred"), DELAYS, chain, target),
        st.tuples(st.just("cancel"), target),
    )


def _programs():
    def build(num_nodes):
        node = st.lists(_actions(num_nodes), max_size=4)
        roots = st.lists(
            st.tuples(DELAYS,
                      st.integers(min_value=0, max_value=num_nodes - 1)),
            min_size=1, max_size=6)
        return st.tuples(st.lists(node, min_size=num_nodes,
                                  max_size=num_nodes), roots)

    return st.integers(min_value=2, max_value=10).flatmap(build)


def _interpret(program, sim, drive: str):
    """Run ``program`` on ``sim`` (a simulator or the oracle); return
    its observables."""
    nodes, roots = program
    trace = []
    handles = {}
    fired = [0]

    def fire(node_id: int) -> None:
        fired[0] += 1
        if fired[0] > 400:      # re-arming cycles: bound the program
            return
        trace.append((sim.now, node_id))
        for action in nodes[node_id]:
            kind = action[0]
            if kind == "schedule":
                handles[action[2]] = sim.schedule(action[1], fire, action[2])
            elif kind == "schedule_at":
                handles[action[2]] = sim.schedule_at(
                    sim.now + action[1], fire, action[2])
            elif kind == "call_soon":
                handles[action[1]] = sim.call_soon(fire, action[1])
            elif kind == "deferred":
                chain = action[2]
                defer = chain[0] if len(chain) == 1 else tuple(chain)
                handles[action[3]] = sim.schedule_deferred(
                    action[1], defer, fire, action[3])
            else:  # cancel
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for delay, node_id in roots:
        handles[node_id] = sim.schedule(delay, fire, node_id)

    if drive == "run":
        sim.run()
    elif drive == "segments":
        bound = 0
        strides = itertools.cycle(STRIDES)
        while sim.pending_events():
            bound += next(strides)
            sim.run(until=bound)
    elif drive == "budget":
        while sim.pending_events():
            sim.run(max_events=3)
    else:  # step
        while sim.step():
            pass
    return {
        "trace": tuple(trace),
        "now": sim.now,
        "executed": sim.executed_events,
        "pending": sim.pending_events(),
    }


class TestSchedulerEquivalence:
    def test_tiered_matches_heap_oracle(self):
        pops = Counter()

        @given(program=_programs(),
               drive=st.sampled_from(("run", "segments", "budget", "step")))
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(program, drive):
            sim = Simulator(seed=0)
            result = _interpret(program, sim, drive)
            expected = _interpret(program, HeapOracle(), drive)
            assert result == expected, f"diverged from the oracle ({drive})"
            pops.update({tier: sim.kernel_stats()[tier]
                         for tier in ("lane_pops", "near_pops", "far_pops")})

        check()
        assert all(pops[tier] > 0
                   for tier in ("lane_pops", "near_pops", "far_pops")), pops

    @given(program=_programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_driving_mode_is_invisible(self, program):
        # run / until-segments / budget loops / step must drain the
        # queue identically — the loop liberties documented on the
        # kernel must stay unobservable.
        results = {drive: _interpret(program, Simulator(seed=0), drive)
                   for drive in ("run", "segments", "budget", "step")}
        baseline = results["run"]
        assert all(result == baseline for result in results.values())
