"""``python -m repro.storm <tier>``: every seeded chaos storm, one runner.

Each tier runs one existing storm function at a fixed seed. The runner
repeats it ``--runs`` times, prints the tier's summary (or, with
``--json``, the first run's report) and exits with

- 0 when the audits are clean, every run reproduces the first run's
  fingerprint and the tier's vacuity checks hold;
- 1 on an audit violation, on fingerprint drift (printed with the
  first JSON path at which the two reports differ) or on a storm that
  never exercised what it exists to test;
- 2 on a bad argument or a :class:`~repro.errors.ReproError` raised by
  the run, printed as one ``error:`` line.

Tiers (:data:`TIERS`):

=============  ==========================================================
``chaos``      :func:`repro.faults.chaos.run_chaos`: fault storm, Xen
``kvm-chaos``  :func:`repro.faults.chaos.run_kvm_chaos`: same plans, KVM
``fleet``      :func:`repro.fleet.chaos.run_fleet_chaos`: host kills
``migration``  :func:`repro.fleet.migration.run_migration_chaos`: drains
``frontdoor``  the request-cloning dispatch sweep over clone factors
``overload``   :func:`repro.frontdoor.resilience.run_overload_storm`
=============  ==========================================================

Examples::

    python -m repro.storm chaos --seed 0xC10E --faults 100 --runs 2
    python -m repro.storm fleet --hosts 4 --kills 2 --json
    python -m repro.storm chaos --list-sites
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.traffic import SHAPES, as_shape
from repro.errors import ReproError
from repro.faults.chaos import run_chaos, run_kvm_chaos
from repro.faults.plan import FaultPlan
from repro.faults.sites import site_table
from repro.fleet.chaos import audit_fleet, run_fleet_chaos
from repro.fleet.migration import run_migration_chaos
from repro.fleet.placement import POLICIES
from repro.frontdoor.resilience import format_storm_report, run_overload_storm
from repro.frontdoor.session import FleetSession
from repro.obs import first_difference


def _integer(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _clone_factors(text: str) -> list[int]:
    return [_at_least(1)(part) for part in text.split(",") if part]


def _utilization(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


#: Every option a tier can take: name -> argparse keywords. A tier
#: names the options it takes, with their defaults, in ``Tier.options``.
OPTIONS: dict[str, dict[str, Any]] = {
    "faults": {"type": _at_least(0), "help": "fault budget"},
    "plan": {"metavar": "FILE",
             "help": "run this JSON fault plan instead of the generated one"},
    "hosts": {"type": _at_least(1), "help": "member hosts"},
    "kills": {"type": _at_least(0), "help": "hosts to kill mid-storm"},
    "policy": {"choices": sorted(POLICIES), "help": "placement policy"},
    "parents": {"type": _at_least(1), "help": "parent guests"},
    "batch": {"type": _at_least(1), "help": "clones per batch"},
    "rounds": {"type": _at_least(1), "help": "workload rounds"},
    "replicas": {"type": _at_least(1), "help": "clone replicas"},
    "requests": {"type": _at_least(1), "help": "requests per run"},
    "clone_factors": {"type": _clone_factors,
                      "help": "comma-separated clone factors"},
    "workload": {"choices": sorted(SHAPES), "help": "request shape"},
    "utilization": {"type": _utilization,
                    "help": "useful-work operating point"},
}


def _no_checks(args: argparse.Namespace, report: Any) -> list[str]:
    """A tier whose audits are its only checks."""
    return []


@dataclass(frozen=True)
class Tier:
    """One storm behind the runner.

    ``run`` takes the parsed arguments and returns a report with
    ``fingerprint``, ``violations`` and ``to_dict()``; ``checks``
    returns the reasons a clean run was still vacuous; ``listing`` is
    an optional ``(flag, lines)`` pair that prints a registry and exits.
    """

    help: str
    options: dict[str, Any]
    run: Callable[[argparse.Namespace], Any]
    summary: Callable[[Any], str]
    checks: Callable[[argparse.Namespace, Any], list[str]] = _no_checks
    listing: tuple[str, Callable[[], list[str]]] | None = None


def _storm(runner: Callable[..., Any]) -> Callable[[argparse.Namespace], Any]:
    """``Tier.run`` calling ``runner(seed=..., <option>=...)`` with the
    parsed value of each of the tier's options; ``--plan`` is loaded."""
    def run(args: argparse.Namespace) -> Any:
        kwargs = {name: getattr(args, name)
                  for name in TIERS[args.tier].options}
        if "plan" in kwargs:
            kwargs["plan"] = _load_plan(kwargs["plan"])
        return runner(seed=args.seed, **kwargs)
    return run


def _load_plan(path: str | None) -> FaultPlan | None:
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot load plan {path}: {error}") from None


# ----------------------------------------------------------------------
# chaos / kvm-chaos
# ----------------------------------------------------------------------
def chaos_summary(report: Any) -> str:
    """Summary of a :class:`~repro.faults.chaos.ChaosReport`."""
    stats = report.fault_stats.get("stats", {})
    lines = [
        f"chaos run: seed {report.seed:#x}, plan {report.plan}",
        f"  clones: {report.clones_succeeded}/{report.clones_attempted} "
        f"succeeded, {report.clone_errors} aborted operations",
        f"  transactions committed: {report.txn_attempts}",
        f"  faults: {stats.get('injected', 0)} injected, "
        f"{stats.get('recovered', 0)} recovered, "
        f"{stats.get('aborted', 0)} aborted",
        f"  virtual time: {report.clock_ms:.3f} ms",
        f"  fingerprint: {report.fingerprint}",
    ]
    lines += _violation_lines(report.violations, "leak audit: clean")
    return "\n".join(lines)


_CHAOS_OPTIONS = {"faults": 100, "plan": None, "parents": 2, "batch": 3,
                  "rounds": None}


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def fleet_summary(report: Any) -> str:
    """Summary of a :class:`~repro.fleet.chaos.FleetChaosReport`."""
    lines = [
        f"fleet chaos seed={report.seed:#x} hosts={report.hosts} "
        f"policy={report.policy} plan={report.plan}",
        f"  clones: requested={report.clones_requested} "
        f"placed={report.clones_placed} failed={report.clones_failed}",
        f"  hosts killed: {report.hosts_killed}  "
        f"replacements: {report.replacements}",
        f"  virtual clock: {report.clock_ms:.3f} ms",
        f"  fingerprint: {report.fingerprint}",
    ]
    lines += _violation_lines(report.violations,
                              "leak audit: clean (fleet-wide)")
    return "\n".join(lines)


def _fleet_checks(args: argparse.Namespace, report: Any) -> list[str]:
    failures = []
    if report.hosts_killed < args.kills:
        failures.append(f"storm killed {report.hosts_killed} hosts, "
                        f"expected {args.kills}")
    # A total-loss storm (kills == hosts) leaves no survivor to
    # re-place onto, so the expectation only applies below it.
    if 0 < args.kills < args.hosts and report.replacements < 1:
        failures.append("no successful re-placement despite host kills")
    return failures


# ----------------------------------------------------------------------
# migration
# ----------------------------------------------------------------------
def migration_summary(report: Any) -> str:
    """Summary of a :class:`~repro.fleet.migration.MigrationChaosReport`."""
    lines = [
        f"migration storm seed={report.seed:#x} hosts={report.hosts} "
        f"faults fired={report.faults_fired}",
        f"  planned {report.migrations_planned}, done "
        f"{report.migrations_done}, failed {report.migrations_failed}",
        f"  pages streamed {report.pages_streamed}, aborted "
        f"{report.pages_aborted}, mid-stream audits "
        f"{report.midstream_audits}",
        f"  fingerprint: {report.fingerprint}",
    ]
    lines += _violation_lines(report.violations,
                              "conservation audit: clean")
    return "\n".join(lines)


def _migration_checks(args: argparse.Namespace, report: Any) -> list[str]:
    if report.migrations_planned == 0:
        return ["storm planned no migrations"]
    return []


# ----------------------------------------------------------------------
# frontdoor: the dispatch sweep
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """One dispatch sweep: a result dict per clone factor."""

    seed: int
    hosts: int
    replicas: int
    workload: str
    results: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        """The per-factor fingerprints joined with ``+``."""
        return "+".join(result["fingerprint"] for result in self.results)

    def to_dict(self) -> dict[str, Any]:
        """The ``--json`` report (the joined fingerprint is not in it)."""
        return {"results": self.results, "violations": self.violations}


def _frontdoor(args: argparse.Namespace) -> SweepReport:
    shape = as_shape(args.workload)
    arrival_rps = args.utilization * args.replicas * shape.capacity_rps
    report = SweepReport(seed=args.seed, hosts=args.hosts,
                         replicas=args.replicas, workload=shape.name)
    for d in args.clone_factors:
        with FleetSession(hosts=args.hosts, seed=args.seed) as session:
            session.create_family("smoke", ip="10.42.0.1")
            if args.replicas > 1:
                session.clone("smoke", count=args.replicas - 1)
            dispatch = session.dispatch(
                "smoke", shape.name, requests=args.requests,
                arrival_rps=arrival_rps, clone_factor=d,
                label=f"smoke-d{d}")
            report.violations += [f"d={d}: {v}" for v in audit_fleet(
                session.fleet, session.frontdoor)]
            resolved = (dispatch.completed + dispatch.failed
                        + dispatch.timed_out)
            if dispatch.requests != resolved:
                report.violations.append(
                    f"d={d}: {dispatch.requests} requests but "
                    f"{dispatch.completed}+{dispatch.failed}"
                    f"+{dispatch.timed_out} resolved")
            session.close(check=False)
        report.results.append(dispatch.to_dict())
    return report


def sweep_summary(report: SweepReport) -> str:
    """Summary of a :class:`SweepReport`: one latency line per factor."""
    lines = [f"frontdoor smoke seed={report.seed:#x} hosts={report.hosts} "
             f"replicas={report.replicas} workload={report.workload}"]
    for result in report.results:
        lines.append(
            f"  d={result['clone_factor']}: "
            f"{result['completed']}/{result['requests']} completed, "
            f"p50={result['latency_p50_ms']:.3f} ms "
            f"p99={result['latency_p99_ms']:.3f} ms "
            f"waste={result['waste_fraction']:.3f}")
        lines.append(f"    fingerprint: {result['fingerprint']}")
    lines += _violation_lines(report.violations,
                              "conservation audit: clean (zero leaks)")
    return "\n".join(lines)


def _violation_lines(violations: list[str], clean: str) -> list[str]:
    if not violations:
        return [f"  {clean}"]
    return ([f"  VIOLATIONS ({len(violations)}):"]
            + [f"    - {violation}" for violation in violations])


TIERS: dict[str, Tier] = {
    "chaos": Tier(
        help="randomized fault storm against the Xen clone path",
        options=_CHAOS_OPTIONS, run=_storm(run_chaos),
        summary=chaos_summary, listing=("--list-sites", site_table)),
    "kvm-chaos": Tier(
        help="the same fault storm against the KVM port",
        options=_CHAOS_OPTIONS, run=_storm(run_kvm_chaos),
        summary=chaos_summary, listing=("--list-sites", site_table)),
    "fleet": Tier(
        help="multi-host storm: host kills, failover, re-placement",
        options={"hosts": 4, "kills": 2, "policy": "round-robin",
                 "parents": 2, "batch": 3, "rounds": 8, "plan": None},
        run=_storm(run_fleet_chaos), summary=fleet_summary,
        checks=_fleet_checks,
        listing=("--list-policies", lambda: sorted(POLICIES))),
    "migration": Tier(
        help="drains and rebalances under a migration fault storm",
        options={"hosts": 4, "faults": 100, "rounds": 10},
        run=_storm(run_migration_chaos), summary=migration_summary,
        checks=_migration_checks),
    "frontdoor": Tier(
        help="request-cloning dispatch sweep over clone factors",
        options={"hosts": 2, "replicas": 6, "requests": 5000,
                 "clone_factors": "1,2", "workload": "faas",
                 "utilization": 0.15},
        run=_frontdoor, summary=sweep_summary),
    "overload": Tier(
        help="past-the-knee dispatch under frontdoor.* faults, "
             "protected policy",
        options={"hosts": 2, "replicas": 6, "requests": 5000,
                 "faults": 30},
        run=_storm(run_overload_storm), summary=format_storm_report),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.storm`` argument parser: one subcommand per tier."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.storm",
        description="Run a deterministic chaos storm, audit it and check "
                    "that same-seed runs fingerprint identically.")
    tiers = parser.add_subparsers(dest="tier", required=True,
                                  metavar="TIER")
    for name, tier in TIERS.items():
        sub = tiers.add_parser(name, help=tier.help, description=tier.help)
        sub.add_argument("--seed", type=_integer, default=0xC10E,
                         help="deterministic seed (default: 0xC10E)")
        sub.add_argument("--runs", type=_at_least(1), default=1,
                         help="repeat the storm and require identical "
                              "fingerprints (default: 1)")
        for option, default in tier.options.items():
            spec = dict(OPTIONS[option])
            if default is not None:
                spec["help"] += " (default: %(default)s)"
            sub.add_argument("--" + option.replace("_", "-"),
                             default=default, **spec)
        sub.add_argument("--json", action="store_true",
                         help="print the first run's report as JSON")
        if tier.listing is not None:
            sub.add_argument(tier.listing[0], action="store_true",
                             dest="listing", help="print the registry "
                                                  "and exit")
    return parser


def _drift(first: Any, other: Any) -> str:
    """The drift failure line: both hashes and where the reports part."""
    where = (first_difference(first.to_dict(), other.to_dict(),
                              ignore=frozenset({"fingerprint"}))
             or "no reported field differs")
    return (f"fingerprint drift: {first.fingerprint} != "
            f"{other.fingerprint}; first difference: {where}")


def main(argv: list[str] | None = None) -> int:
    """Run one tier; returns the exit status (0 ok, 1 failed, 2 bad input)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # --help, or a usage error already printed
        return int(stop.code or 0)
    tier = TIERS[args.tier]
    if getattr(args, "listing", False):
        print("\n".join(tier.listing[1]()))
        return 0
    try:
        reports = [tier.run(args) for _ in range(args.runs)]
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    report = reports[0]
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True)
          if args.json else tier.summary(report))
    failures = tier.checks(args, report)
    if report.violations:
        failures.insert(0, f"{len(report.violations)} audit violations")
    drifted = [r for r in reports[1:] if r.fingerprint != report.fingerprint]
    if drifted:
        failures.append(_drift(report, drifted[0]))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures and len(reports) > 1 and not args.json:
        print(f"  determinism: {len(reports)} runs, identical fingerprints")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
