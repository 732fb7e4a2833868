"""The in-network request log: hash-indexed entries in device PM.

The log is the heart of PMNet (Sec IV-B): an array of fixed-size entries
indexed by the request's ``HashVal``.  An entry becomes *durable* only
when its PM write completes; a crash discards non-durable entries (they
were still in the volatile log queue / media pipe).  Collisions and a
full log are not errors — the MAT pipeline simply bypasses logging for
that packet (Sec IV-B1), which the counters here make observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.registry import register_with_sim
from repro.protocol.packet import PMNetPacket
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import LogConfig
    from repro.pm.device import PMDevice
    from repro.pm.queues import LogQueue
    from repro.sim.kernel import Simulator


@dataclass
class LogEntry:
    """One logged request packet and its persistence state."""

    packet: PMNetPacket
    inserted_at_ns: int
    insert_order: int
    durable: bool = False


class LogRegion:
    """Hash-indexed request log with explicit durability."""

    def __init__(self, sim: "Simulator", name: str, config: "LogConfig",
                 device: "PMDevice", write_queue: "LogQueue",
                 read_queue: "LogQueue") -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.device = device
        self.write_queue = write_queue
        self.read_queue = read_queue
        self._entries: Dict[int, LogEntry] = {}
        self._insert_counter = 0
        self.logged = Counter(f"{name}.logged")
        self.invalidated = Counter(f"{name}.invalidated")
        self.bypassed_full = Counter(f"{name}.bypassed_full")
        self.bypassed_collision = Counter(f"{name}.bypassed_collision")
        self.bypassed_queue_busy = Counter(f"{name}.bypassed_queue_busy")
        self.lost_in_crash = Counter(f"{name}.lost_in_crash")
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This log region's typed instruments (explicit registration)."""
        return (self.logged, self.invalidated, self.bypassed_full,
                self.bypassed_collision, self.bypassed_queue_busy,
                self.lost_in_crash)

    # ------------------------------------------------------------------
    # Logging path (MAT PM-access stage)
    # ------------------------------------------------------------------
    def try_log(self, packet: PMNetPacket,
                on_persisted: Callable[[LogEntry], None]) -> bool:
        """Attempt to log a packet.

        Returns ``True`` if the packet was accepted (the callback fires
        when it becomes durable), ``False`` if the pipeline must bypass:
        log full, HashVal collision, or write queue busy (Sec IV-B1).
        """
        hash_val = packet.hash_val
        if hash_val in self._entries:
            self.bypassed_collision.increment()
            return False
        if len(self._entries) >= self.config.num_entries:
            self.bypassed_full.increment()
            return False
        entry = LogEntry(packet=packet, inserted_at_ns=self.sim.now,
                         insert_order=self._insert_counter)
        nbytes = min(packet.wire_bytes, self.config.entry_bytes)
        if not self.write_queue.try_enqueue(nbytes, self._persisted,
                                            hash_val, entry, on_persisted):
            self.bypassed_queue_busy.increment()
            return False
        self._insert_counter += 1
        self._entries[hash_val] = entry
        return True

    def _persisted(self, hash_val: int, entry: LogEntry,
                   on_persisted: Callable[[LogEntry], None]) -> None:
        # The crash path removes the entry; only mark it durable if it
        # is still the one we inserted.
        current = self._entries.get(hash_val)
        if current is entry:
            entry.durable = True
            self.logged.value += 1
            on_persisted(entry)

    def invalidate(self, hash_val: int) -> bool:
        """Remove the entry for a committed request (server-ACK path)."""
        entry = self._entries.pop(hash_val, None)
        if entry is None:
            return False
        self.invalidated.value += 1
        return True

    def lookup(self, hash_val: int) -> Optional[LogEntry]:
        return self._entries.get(hash_val)

    # ------------------------------------------------------------------
    # Recovery path
    # ------------------------------------------------------------------
    def durable_entries_in_order(self) -> List[LogEntry]:
        """Durable entries in original insertion order (redo order)."""
        durable = [e for e in self._entries.values() if e.durable]
        durable.sort(key=lambda entry: entry.insert_order)
        return durable

    def read_entry(self, entry: LogEntry, on_complete: Callable[..., None],
                   *args: object) -> None:
        """Charge the PM read of one entry during recovery resend.

        ``on_complete(*args)`` fires when the read finishes.
        """
        nbytes = min(entry.packet.wire_bytes, self.config.entry_bytes)
        if not self.read_queue.try_enqueue(nbytes, on_complete, *args):
            # Recovery is not latency critical: retry when the queue has
            # drained a bit rather than dropping the read.
            self.sim.schedule(self.device.profile.read_latency_ns,
                              self.read_entry, entry, on_complete, *args)

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def crash(self) -> int:
        """Power failure: drop entries that never became durable.

        Durable entries survive (they are in PM).  Returns the number of
        lost (non-durable) entries.
        """
        volatile = [h for h, e in self._entries.items() if not e.durable]
        for hash_val in volatile:
            del self._entries[hash_val]
        self.lost_in_crash.increment(len(volatile))
        self.write_queue.crash()
        self.read_queue.crash()
        return len(volatile)

    def wipe(self) -> int:
        """Erase everything, durable entries included.

        This models *replacing* a permanently failed device with a blank
        unit (Sec IV-E2): the data on the dead board is gone; only other
        replicas can recover it.  Returns the number of erased entries.
        """
        erased = len(self._entries)
        self._entries.clear()
        return erased

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def durable_count(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.durable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogRegion {self.name} {self.occupancy}"
                f"/{self.config.num_entries} entries>")
