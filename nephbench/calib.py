"""Calibrated host time.

Every host-time figure the benchmark reports is process CPU time,
rescaled to a fixed reference speed: a pure-Python reference loop runs
before set-up, between consecutive ops and after the last op, and each
measured interval is multiplied by ``ref_loop_s / measured_loop_s``,
where ``measured_loop_s`` is the mean of the two loops that bracket it.
Drift in the host's speed (frequency, cache and memory-bandwidth
pressure from neighbours) hits the loop and the op alike and cancels
out of the ratio; CPU time rather than wall time keeps descheduling by
other tenants out of both.
"""

from __future__ import annotations

import gc
import json
import os
import time

#: Process CPU time: the only clock the benchmark's host figures use.
host_clock = time.process_time

#: Objects the reference loop chases through (~2 MiB working set).
REF_OBJECTS = 20_000
#: Pointer-chasing steps of the reference loop.
REF_STEPS = 80_000
#: Chase stride; coprime with REF_OBJECTS.
_STRIDE = 7919

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class _Cell:
    __slots__ = ("value", "key", "next")

    def __init__(self, value: int, key: str) -> None:
        self.value = value
        self.key = key
        self.next = None


def reference_loop() -> int:
    """The fixed pure-Python workload every interval is scaled against.

    It does what the simulator does, in miniature: allocates slotted
    objects, builds a string-keyed dict, and chases attribute pointers
    through a working set of a few MiB. A compute-only integer loop
    tracked the program worse: in the few runs measured under contention
    from other tenants, the program's CPU time rose up to 9% more than an
    integer loop's, and at most ~3% more than this loop's.
    """
    cells = [_Cell(i, f"c{i}") for i in range(REF_OBJECTS)]
    for i, cell in enumerate(cells):
        cell.next = cells[(i * _STRIDE + 13) % REF_OBJECTS]
    by_key = {cell.key: cell for cell in cells}
    cell = cells[0]
    acc = 0
    for step in range(REF_STEPS):
        cell = cell.next
        acc += cell.value
        if step & 7 == 0:
            acc += by_key[cell.key].value
    return acc


def time_loop() -> float:
    """CPU seconds one reference loop takes right now.

    The collector is off while it runs: a full collection would scan the
    world's heap, making the loop slower as the world grows and hiding
    the program's own growth.
    """
    gc.disable()
    try:
        t0 = host_clock()
        reference_loop()
        return host_clock() - t0
    finally:
        gc.enable()


def load_reference() -> dict:
    """The pinned reference constants (loop speed, op costs, digests)."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rescale(raw_s: float, loop_before_s: float, loop_after_s: float,
            ref_loop_s: float) -> float:
    """``raw_s`` in reference seconds, given the loops bracketing it."""
    measured = (loop_before_s + loop_after_s) / 2.0
    if measured <= 0.0:
        raise ValueError(f"non-positive reference loop time: {measured}")
    return raw_s * ref_loop_s / measured


class Bracketed:
    """A sequence of intervals, each bracketed by reference loops.

    ``loops[i]`` and ``loops[i + 1]`` bracket ``raw[i]``; consecutive
    intervals share the loop between them.
    """

    def __init__(self, ref_loop_s: float) -> None:
        self.ref_loop_s = ref_loop_s
        self.loops: list[float] = [time_loop()]
        self.raw: list[float] = []

    def record(self, raw_s: float) -> float:
        """Close an interval of ``raw_s`` CPU seconds; returns its
        calibrated length (runs the loop that closes the bracket)."""
        self.raw.append(raw_s)
        self.loops.append(time_loop())
        return self.calibrated(len(self.raw) - 1)

    def factor(self, index: int) -> float:
        """Reference seconds per raw second for interval ``index``."""
        return rescale(1.0, self.loops[index], self.loops[index + 1],
                       self.ref_loop_s)

    def calibrated(self, index: int) -> float:
        return self.raw[index] * self.factor(index)

    def audit(self) -> dict:
        """Raw intervals and loop times, so the rescaling can be redone."""
        return {"ref_loop_s": self.ref_loop_s,
                "raw_s": [round(x, 9) for x in self.raw],
                "loop_s": [round(x, 9) for x in self.loops]}
