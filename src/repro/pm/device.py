"""Persistent-memory device timing model.

A :class:`PMDevice` serializes accesses through one media port (the
paper's FPGA DMA engine): each access costs the device's fixed latency
plus size/bandwidth, and accesses queue behind each other.  Durability is
explicit: a write's data is persistent only when its completion fires.
On a crash, in-flight accesses are discarded — exactly the volatile
window the paper's log queues create (Sec V-A).

The submit path runs once per logged packet, so it is allocation-lean:
completions are dispatched through one bound method carrying its state
as scheduled-call arguments (no closure per access), and crash discard
is an epoch bump rather than a token list scan.

**One executed event per access** is a deliberate contract: the DMA
chain (queue hand-off, media transfer, fixed latency) is deterministic
once the access is submitted, so the initiation pacing and the
completion wait are summed arithmetically into a single ``_complete``
event at ``start + latency + transfer`` — there is no intermediate
"transfer done" hop (``tests/pm/test_device.py`` guards this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.errors import CrashedDeviceError
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import PMProfile
    from repro.sim.kernel import Simulator


class PMDevice:
    """One PM media port with latency/bandwidth and crash semantics."""

    def __init__(self, sim: "Simulator", name: str,
                 profile: "PMProfile") -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        self._busy_until = 0
        self._inflight = 0
        #: Bumped on every crash; completions from an older epoch were
        #: in flight when the power failed and are silently discarded.
        self._epoch = 0
        self.crashed = False
        self.writes_completed = Counter(f"{name}.writes")
        self.reads_completed = Counter(f"{name}.reads")
        self.bytes_written = Counter(f"{name}.bytes_written")

    # ------------------------------------------------------------------
    def _media_time(self, nbytes: int) -> int:
        return round(nbytes / self.profile.bandwidth_bytes_per_s * 1e9)

    def _submit(self, latency_ns: int, is_write: bool, nbytes: int,
                on_complete: Callable[..., None],
                args: Tuple[Any, ...]) -> int:
        """Pipelined access model: the DMA engine initiates accesses at
        the media bandwidth (back-to-back accesses are spaced by their
        transfer time), while each access's *completion* additionally
        waits the fixed media latency.  A lone access costs
        latency + transfer; a stream is bandwidth-bound."""
        if self.crashed:
            raise CrashedDeviceError(f"PM device {self.name} has crashed")
        now = self.sim.now
        start = max(now, self._busy_until)
        media = self._media_time(nbytes)
        self._busy_until = start + media
        finish = start + latency_ns + media
        self._inflight += 1
        # Relative ``schedule``: nothing cancels a PM access, so it needs
        # no ``schedule_at`` handle.
        self.sim.schedule(finish - now, self._complete, self._epoch,
                          is_write, nbytes, on_complete, args)
        return finish

    def _complete(self, epoch: int, is_write: bool, nbytes: int,
                  on_complete: Callable[..., None],
                  args: Tuple[Any, ...]) -> None:
        if epoch != self._epoch:
            return  # discarded by a crash
        self._inflight -= 1
        if is_write:
            self.writes_completed.value += 1
            self.bytes_written.value += nbytes
        else:
            self.reads_completed.value += 1
        on_complete(*args)

    def submit_write(self, nbytes: int, on_persisted: Callable[..., None],
                     *args: Any) -> int:
        """Start persisting ``nbytes``; returns the completion time.

        ``on_persisted(*args)`` fires when the data is durable.  If the
        device crashes first, the callback never fires (the write is lost).
        """
        return self._submit(self.profile.write_latency_ns, True, nbytes,
                            on_persisted, args)

    def submit_read(self, nbytes: int, on_complete: Callable[..., None],
                    *args: Any) -> int:
        """Start reading ``nbytes``; returns the completion time."""
        return self._submit(self.profile.read_latency_ns, False, nbytes,
                            on_complete, args)

    # ------------------------------------------------------------------
    @property
    def pending_accesses(self) -> int:
        return self._inflight

    def busy_for(self) -> int:
        """Nanoseconds until the media port goes idle (0 if idle now)."""
        return max(0, self._busy_until - self.sim.now)

    def crash(self) -> Tuple[int, int]:
        """Power-fail the device: drop in-flight accesses.

        Returns ``(discarded_accesses, completed_writes)`` for assertions.
        """
        discarded = self._inflight
        self._inflight = 0
        self._epoch += 1
        self.crashed = True
        return discarded, int(self.writes_completed)

    def recover(self) -> None:
        """Bring the device back (durable data handling is the log's job)."""
        self.crashed = False
        self._busy_until = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "ok"
        return f"<PMDevice {self.name} {state} inflight={self.pending_accesses}>"
