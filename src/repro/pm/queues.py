"""Log queues: the SRAM buffers between the MAT pipeline and the PM.

The PM is slower than line rate, so PMNet buffers PM accesses in small
read/write queues (Sec V-A sizes them at 4 KB by the bandwidth-delay
product of the PM latency).  A queue entry occupies SRAM from the
moment the pipeline hands it over until its PM access *completes* —
which is exactly why Eq 2 sizes the queue as ``PM latency x line rate``:
that is the number of bytes in flight when the DMA engine streams at
full bandwidth.

The pipeline *never blocks*: if the queue cannot take a packet, the
packet is forwarded without logging — the paper's line-rate guarantee —
and the rejection count is what the log-queue-sizing ablation measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.pm.device import PMDevice
    from repro.sim.kernel import Simulator


class LogQueue:
    """A byte-budgeted staging buffer for one direction of PM access.

    Accesses are submitted to the device immediately (the device's DMA
    engine paces initiation at media bandwidth); their bytes stay
    charged against the SRAM budget until the access completes.
    """

    def __init__(self, sim: "Simulator", name: str, capacity_bytes: int,
                 device: "PMDevice", is_write: bool) -> None:
        if capacity_bytes <= 0:
            raise ValueError("log queue capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.device = device
        self.is_write = is_write
        self._occupied_bytes = 0
        self._epoch = 0
        #: Bound once: the submit direction never changes, so the
        #: per-enqueue attribute walk is not worth repeating.
        self._submit = device.submit_write if is_write else device.submit_read
        self.accepted = Counter(f"{name}.accepted")
        self.rejected = Counter(f"{name}.rejected")
        self.high_water_bytes = 0
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This queue's typed instruments (explicit registration).

        ``high_water_bytes`` stays a plain int (it is compared and
        assigned numerically on the enqueue path) and is therefore not an
        instrument; the experiment summary reads it directly.
        """
        return (self.accepted, self.rejected)

    # ------------------------------------------------------------------
    def try_enqueue(self, nbytes: int, on_complete: Callable[..., None],
                    *args: Any) -> bool:
        """Offer an access; returns False (rejected) when SRAM is short.

        ``on_complete(*args)`` fires when the PM access finishes.  The
        completion plumbing runs through one bound method with its state
        passed as arguments — per-packet path, so no closure per access.
        """
        if nbytes <= 0:
            raise ValueError("access size must be positive")
        if self.device.crashed:
            self.rejected.increment()
            return False
        if self._occupied_bytes + nbytes > self.capacity_bytes:
            self.rejected.increment()
            return False
        self._occupied_bytes += nbytes
        if self._occupied_bytes > self.high_water_bytes:
            self.high_water_bytes = self._occupied_bytes
        self.accepted.value += 1
        self._submit(nbytes, self._finished, nbytes, self._epoch,
                     on_complete, args)
        return True

    def _finished(self, nbytes: int, epoch: int,
                  on_complete: Callable[..., None],
                  args: Tuple[Any, ...]) -> None:
        if epoch == self._epoch:
            self._occupied_bytes -= nbytes
        on_complete(*args)

    # ------------------------------------------------------------------
    @property
    def occupancy_bytes(self) -> int:
        return self._occupied_bytes

    def crash(self) -> int:
        """Discard everything buffered (it was volatile SRAM).

        Returns the number of bytes lost.  The device's own crash drops
        the in-flight accesses, so their completions never fire; bumping
        the epoch keeps any straggler from double-freeing.
        """
        lost = self._occupied_bytes
        self._occupied_bytes = 0
        self._epoch += 1
        return lost

    def recover(self) -> None:
        self._occupied_bytes = 0
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "write" if self.is_write else "read"
        return (f"<LogQueue {self.name} {kind} "
                f"{self._occupied_bytes}/{self.capacity_bytes}B>")
