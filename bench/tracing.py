"""The traced run: per-layer self CPU time, measured from outside.

The simulator is driven with the public ``Simulator.step()`` and a
:class:`Recorder` attached through ``Simulator.attach_profiler``, whose
contract is "anything with ``record(callback)``".  CPU time is charged
by telescoping process-CPU readings, so the buckets sum to the measured
CPU of the run by construction:

* inside ``step()`` before ``record`` — the scheduler pop — is ``sim``;
* from ``record`` to the return of ``step()`` is the layer of the
  callback's owner (a coroutine process is charged to the module that
  defines its generator);
* a nested call into another layer's entry point (``layers.py``) is
  charged to the callee until it returns, and so is the barrier callback
  a whole-folded wire chain runs inline (``layers.BARRIERS``);
* the loop between steps is the ``trace`` bucket.

Known bias: each switch of bucket reads the process clock (about half a
microsecond), and the part of that read after its sample lands in the
bucket being entered.  The wrappers themselves run partly in the caller's
bucket and partly in the callee's.

Installing patches classes for the whole process, so a traced run gets
a process of its own (``worker.py``).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict

from repro.sim.process import Process

import layers

_clock = time.process_time


class Recorder:
    """Telescoping per-layer CPU accounting (the profiler contract)."""

    def __init__(self) -> None:
        self._layer_by_type: Dict[type, str] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything charged so far (call when the run starts)."""
        #: bucket -> CPU seconds.
        self.cpu: Dict[str, float] = {}
        #: layer -> dispatched callbacks it owns.
        self.events: Dict[str, int] = {}
        self.current = layers.TRACE
        self._mark = _clock()

    def enter(self, bucket: str) -> str:
        """Charge the time since the last switch to the current bucket,
        make ``bucket`` current, and return the bucket it replaced."""
        now = _clock()
        previous = self.current
        self.cpu[previous] = self.cpu.get(previous, 0.0) + (now - self._mark)
        self._mark = now
        self.current = bucket
        return previous

    def record(self, callback: Callable) -> None:
        """Called by ``Simulator.step`` just before ``callback`` runs."""
        layer = self.layer_of(callback)
        self.events[layer] = self.events.get(layer, 0) + 1
        self.enter(layer)

    def layer_of(self, callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is None:
            return layers.layer_of_module(
                getattr(callback, "__module__", None)
                or type(callback).__module__)
        kind = type(owner)
        if kind is Process:
            # A coroutine process: charge the code it resumes.
            frame = owner._generator.gi_frame
            if frame is not None:
                return layers.layer_of_module(frame.f_globals["__name__"])
        layer = self._layer_by_type.get(kind)
        if layer is None:
            layer = self._layer_by_type[kind] = \
                layers.layer_of_module(kind.__module__)
        return layer

    def charged(self, function: Callable, layer: str) -> Callable:
        """``function`` with its running time charged to ``layer``."""
        @functools.wraps(function)
        def call(*args, **kwargs):
            if self.current == layer:
                return function(*args, **kwargs)
            previous = self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.enter(previous)
        return call


def install(recorder: Recorder) -> None:
    """Wrap every entry point in ``layers.py`` (before the build)."""
    for target, layer in layers.entry_points():
        owner, attribute, function = layers.resolve(target)
        setattr(owner, attribute, recorder.charged(function, layer))
    for target in layers.BARRIERS:
        owner, attribute, function = layers.resolve(target)
        setattr(owner, attribute, _barrier(function, recorder))


def _barrier(deliver: Callable, recorder: Recorder) -> Callable:
    @functools.wraps(deliver)
    def call(self, callback, args):
        return deliver(self, recorder.charged(
            callback, recorder.layer_of(callback)), args)
    return call


def drive(sim, recorder: Recorder) -> None:
    """Step ``sim`` until its queue drains, charging the pops to ``sim``.

    The scheduling entry points are per-instance closures, so they are
    wrapped here, after the build.
    """
    for name in layers.SIM_ENTRY_POINTS:
        setattr(sim, name, recorder.charged(getattr(sim, name), "sim"))
    sim.attach_profiler(recorder)
    step = sim.step
    enter = recorder.enter
    try:
        while True:
            enter("sim")
            more = step()
            enter(layers.TRACE)
            if not more:
                return
    finally:
        sim.detach_profiler()
