"""The arm runner the ablation experiments share.

An ablation (:mod:`~repro.experiments.fleet_migration`,
:mod:`~repro.experiments.frontdoor_overload`) is a few traffic arms
plus one storm unit, each a self-contained function of its task that
returns a plain dict with its ``"arm"`` name and ``"violations"``.
:func:`run_arms` runs every unit serially, runs them again through a
fork pool, requires the two result sets to be byte-identical, and files
the serial results into an :class:`ArmsResult`.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs.canonical import Sealed, first_difference


@dataclass(kw_only=True)
class ArmsResult(Sealed):
    """An ablation's arms table plus its storm unit and determinism check."""

    seed: int
    hosts: int
    requests: int
    arrival_rps: float
    arms: dict[str, dict[str, Any]] = field(default_factory=dict)
    storm: dict[str, Any] = field(default_factory=dict)
    #: True when the pool-executed run matched the serial run exactly.
    parallel_identical: bool = True
    violations: list[str] = field(default_factory=list)
    fingerprint: str = ""

    def verdict(self) -> str:
        """The serial-vs-pool line and any violations, for a printout."""
        lines = ["\nserial == parallel: "
                 + ("yes" if self.parallel_identical else "NO")]
        if self.violations:
            lines.append(f"\nVIOLATIONS ({len(self.violations)}):")
            lines.extend(f"\n  - {violation}"
                         for violation in self.violations)
        return "".join(lines)


def divergence(serial: Sequence[dict[str, Any]],
               pooled: Sequence[dict[str, Any]]) -> str | None:
    """The violation naming the first unit whose pooled result differs
    from its serial one, and the first JSON path where; None if equal."""
    for ours, theirs in zip(serial, pooled):
        where = first_difference(ours, theirs)
        if where is not None:
            return (f"parallel run diverged from serial run: unit "
                    f"{ours['arm']}: {where}")
    return None


def run_arms(result: ArmsResult, run_unit: Callable[[Any], dict[str, Any]],
             tasks: Sequence[Any]) -> None:
    """Run every unit serially and through a fork pool; file the serial
    units under ``result.arms`` (the ``"storm"`` unit under
    ``result.storm``) and collect their violations."""
    serial = [run_unit(task) for task in tasks]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        pooled = pool.map(run_unit, tasks)
    diverged = divergence(serial, pooled)
    result.parallel_identical = diverged is None
    if diverged is not None:
        result.violations.append(diverged)
    for unit in serial:
        name = unit.pop("arm")
        if name == "storm":
            result.storm = unit
        else:
            result.arms[name] = unit
        result.violations.extend(unit["violations"])
