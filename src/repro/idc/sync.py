"""IDC synchronization: semaphore and barrier for clone families.

Further §5.3-style mechanisms over shared memory + event channels. The
counter lives in a one-page IDC shared area; waiters park on the
family event channel and are woken in FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import InvalidArgumentError
from repro.idc.channel import IdcChannel
from repro.idc.shm import IdcSharedArea
from repro.xen.domain import Domain
from repro.xen.hypervisor import Hypervisor

Continuation = Callable[[], None]


class IdcSemaphore:
    """Counting semaphore shared across a clone family.

    The simulation has no blocking threads, so ``wait`` takes a
    continuation invoked when the semaphore is acquired (immediately if
    the count allows, or when a ``post`` releases it).
    """

    def __init__(self, hypervisor: Hypervisor, owner: Domain,
                 initial: int = 1) -> None:
        if initial < 0:
            raise InvalidArgumentError(f"negative initial count: {initial}")
        self.hypervisor = hypervisor
        self.area = IdcSharedArea(hypervisor, owner, 1, label="semaphore")
        self.channel = IdcChannel(hypervisor, owner)
        self.count = initial
        self._waiters: deque[tuple[int, Continuation]] = deque()

    def wait(self, domain: Domain, continuation: Continuation) -> bool:
        """P(): returns True if acquired immediately."""
        if self.count > 0:
            self.count -= 1
            self.area.write(domain, 8)
            continuation()
            return True
        self._waiters.append((domain.domid, continuation))
        return False

    def post(self, domain: Domain) -> None:
        """V(): wake the oldest waiter, if any."""
        self.area.write(domain, 8)
        if self._waiters:
            _, continuation = self._waiters.popleft()
            self.channel.notify(domain)
            continuation()
        else:
            self.count += 1

    @property
    def waiters(self) -> int:
        return len(self._waiters)


class IdcBarrier:
    """A single-use barrier: releases everyone once ``parties`` arrive."""

    def __init__(self, hypervisor: Hypervisor, owner: Domain,
                 parties: int) -> None:
        if parties < 1:
            raise InvalidArgumentError(
                f"barrier needs at least one party: {parties}")
        self.hypervisor = hypervisor
        self.area = IdcSharedArea(hypervisor, owner, 1, label="barrier")
        self.channel = IdcChannel(hypervisor, owner)
        self.parties = parties
        self.arrived = 0
        self.released = False
        self._continuations: list[Continuation] = []

    def arrive(self, domain: Domain,
               continuation: Continuation | None = None) -> bool:
        """Arrive at the barrier; returns True once it releases."""
        if self.released:
            raise RuntimeError("barrier already released (single-use)")
        self.arrived += 1
        self.area.write(domain, 8)
        if continuation is not None:
            self._continuations.append(continuation)
        if self.arrived >= self.parties:
            self.released = True
            self.channel.notify(domain)
            for waiting in self._continuations:
                waiting()
            self._continuations.clear()
            return True
        return False
