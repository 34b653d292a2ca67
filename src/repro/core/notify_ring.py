"""The cloning notification ring.

xencloned submits a shared ring to the hypervisor; the first stage
pushes one entry per child and raises ``VIRQ_CLONED``. A full ring acts
as backpressure on the first stage (paper §5: "The notification acts
also as backpressure, slowing down the first stage of the cloning
process when the notification ring is full").
"""

from __future__ import annotations

from repro.errors import InvalidArgumentError, ReproError

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class CloneNotification:
    """One ring entry: "the minimum required information for xencloned
    to proceed with the second stage" (paper §5.1)."""

    parent_domid: int
    child_domid: int
    parent_start_info_mfn: int
    child_start_info_mfn: int


class RingFullError(ReproError):
    """The ring is full: backpressure on the first stage."""


class CloneNotificationRing:
    """Fixed-capacity single-producer ring."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise InvalidArgumentError(
                f"non-positive ring capacity: {capacity}")
        self.capacity = capacity
        self._entries: deque[CloneNotification] = deque()
        self.pushes = 0
        self.backpressure_events = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, entry: CloneNotification) -> None:
        """Append an entry; raises RingFullError when at capacity."""
        if self.full:
            self.backpressure_events += 1
            raise RingFullError(
                f"clone notification ring full ({self.capacity} entries)")
        self._entries.append(entry)
        self.pushes += 1
        self.high_watermark = max(self.high_watermark, len(self._entries))

    def pop(self) -> CloneNotification | None:
        """Dequeue the oldest entry, or None when drained."""
        if not self._entries:
            return None
        return self._entries.popleft()

    def drain(self) -> list[CloneNotification]:
        """Empty the ring, returning everything in FIFO order."""
        entries = list(self._entries)
        self._entries.clear()
        return entries

    def discard(self, predicate) -> int:
        """Drop queued entries matching ``predicate`` (used when a batch
        unwinds children whose notifications were never consumed);
        returns the number of entries removed."""
        kept = [entry for entry in self._entries if not predicate(entry)]
        removed = len(self._entries) - len(kept)
        if removed:
            self._entries = deque(kept)
        return removed
