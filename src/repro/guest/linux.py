"""Linux baselines: process fork() and the Alpine guest VM.

Fig 6 and Fig 8 compare Nephele's cloning against Linux process
forking. The fork cost model follows ON-DEMAND-FORK's measurements
(paper §2, §6.2): fork duration is dominated by copying page-table
entries for the resident set; the *first* fork additionally write-
protects every writable page, which is why it is consistently slower
than the second.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import InvalidArgumentError
from repro.sim import CostModel, VirtualClock
from repro.sim.units import MIB, pages_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.unikernel import UnikernelVM


class LinuxProcess:
    """A process inside a Linux kernel (host or guest VM)."""

    _pids = itertools.count(100)

    def __init__(self, clock: VirtualClock, costs: CostModel,
                 name: str = "proc", resident_bytes: int = 2 * MIB) -> None:
        self.pid = next(LinuxProcess._pids)
        self.name = name
        self.clock = clock
        self.costs = costs
        self.resident_pages = pages_of(resident_bytes)
        #: Pages made writable again (dirtied) since the last fork; the
        #: next fork must re-write-protect exactly these.
        self.dirty_pages = self.resident_pages
        self.forked_before = False
        self.children: list[LinuxProcess] = []

    def grow(self, nbytes: int) -> int:
        """Allocate + touch resident memory; returns pages added."""
        npages = pages_of(nbytes)
        self.resident_pages += npages
        self.dirty_pages += npages
        self.clock.charge(self.costs.guest_touch_page * npages)
        return npages

    def touch(self, nbytes: int) -> int:
        """Dirty existing resident memory (post-fork writes COW-fault)."""
        npages = min(pages_of(nbytes), self.resident_pages)
        newly_dirty = min(npages, self.resident_pages - self.dirty_pages)
        if self.forked_before and newly_dirty:
            # Write-protected pages fault and get copied.
            self.clock.charge(self.costs.cow_fault * newly_dirty)
        self.dirty_pages += newly_dirty
        return newly_dirty

    def fork(self) -> tuple["LinuxProcess", float]:
        """fork(); returns (child, duration_ms).

        Cost: fixed syscall cost, one PTE copy per resident page, and
        one write-protect per currently-writable (dirty) page. On the
        first fork every page is writable, so it is the slow one.
        """
        start = self.clock.now
        self.clock.charge(self.costs.fork_base)
        self.clock.charge(self.costs.fork_pte_copy * self.resident_pages)
        self.clock.charge(self.costs.fork_cow_mark * self.dirty_pages)
        duration = self.clock.now - start

        child = LinuxProcess(self.clock, self.costs, f"{self.name}-child", 0)
        child.resident_pages = self.resident_pages
        child.dirty_pages = 0
        child.forked_before = False
        self.children.append(child)
        self.dirty_pages = 0
        self.forked_before = True
        return child, duration


class LinuxVM:
    """An Alpine Linux guest VM hosting baseline processes (Fig 8)."""

    def __init__(self, vm: "UnikernelVM") -> None:
        if vm.image.flavor != "linux":
            raise InvalidArgumentError(
                f"LinuxVM needs a linux image, got {vm.image.flavor}")
        self.vm = vm
        self.processes: list[LinuxProcess] = []

    @property
    def clock(self) -> VirtualClock:
        return self.vm.platform.clock

    @property
    def costs(self) -> CostModel:
        return self.vm.platform.costs

    def spawn(self, name: str, resident_bytes: int = 2 * MIB) -> LinuxProcess:
        """Start a process inside the VM."""
        process = LinuxProcess(self.clock, self.costs, name, resident_bytes)
        self.processes.append(process)
        return process

    def p9_mount(self, index: int = 0):
        """The 9pfs share mounted inside the VM."""
        mounts = self.vm.domain.frontends.get("9pfs", [])
        if not mounts:
            raise RuntimeError("Alpine VM has no 9pfs mount configured")
        return mounts[index]
