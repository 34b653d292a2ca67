"""Benchmark command: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 nephbench/run.py --workload host_churn --seed 0xC10E \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and the tracing overhead. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. See
``nephbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run artefacts (digest cache, exported spans), ignored by git.
STATE_DIR = os.path.join(ROOT, ".nephbench")

DEFAULT_SEED = 0xC10E
#: Set-ups per e2e run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Ops at the default seed whose digests are pinned in reference.json.
PIN_OPS = 12
#: Ops of a traced run whose full span lists are exported.
KEEP_SPAN_OPS = 2
#: Ops beyond the reported tail percentile.
TAIL_OPS = 10


def op_count(name: str, seconds: float, ref: dict, period: int) -> int:
    """Ops that take ``seconds`` at the reference speed: a fixed count
    per (workload, seconds), so every run of a seed does the same work."""
    n = math.ceil(seconds / ref["ref_op_s"][name])
    n = period * math.ceil(n / period)
    # The traced run needs one untraced and one traced block.
    return max(n, 4 * period)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    :data:`TAIL_OPS` values beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_OPS:
        return 100.0, ordered[-1]
    return (100.0 * (1 - TAIL_OPS / len(ordered)),
            ordered[len(ordered) - TAIL_OPS - 1])


def sim_percentile(outcomes: list, q: float, per_op: bool,
                   period: int) -> float:
    """The run's ``q`` quantile of virtual unit latency.

    Pooled over every unit of the run, or, with ``per_op``, taken per op
    and summarised as the mean over op-mix slots (op index modulo
    ``period``) of the median over that slot's ops. Near the PS knee a
    few ops carry queue excursions that dominate any pooled tail, so a
    pooled p99 there is a lottery across seeds; the typical op's p99 is
    not.
    """
    if not per_op:
        return nearest_rank(sorted(x for o in outcomes for x in o.latencies),
                            q)
    slots: list[list[float]] = [[] for _ in range(period)]
    for index, outcome in enumerate(outcomes):
        slots[index % period].append(
            nearest_rank(sorted(outcome.latencies), q))
    return sum(statistics.median(s) for s in slots if s) / period


class DigestBook:
    """Per-op digests: pinned ones for the default seed, and a cache in
    the checkout so every later run of any seed must repeat them."""

    def __init__(self, name: str, seed: int, pinned: list[dict]) -> None:
        self.path = os.path.join(STATE_DIR, "digests",
                                 f"{name}-{seed:#x}.json")
        self.pinned = pinned if seed == DEFAULT_SEED else []
        self.cached: list[dict] = []
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                self.cached = json.load(fh)
        self.seen: list[dict] = []
        self.mismatches: list[str] = []

    def check(self, index: int, digest: dict) -> str | None:
        """Record op ``index``'s digest; the first divergent field, if any."""
        self.seen.append(digest)
        for source, book in (("pinned", self.pinned), ("earlier run", self.cached)):
            if index < len(book):
                for key in sorted(set(book[index]) | set(digest)):
                    if book[index].get(key) != digest.get(key):
                        problem = (f"op {index} field {key!r}: "
                                   f"{digest.get(key)} != {source} "
                                   f"{book[index].get(key)}")
                        self.mismatches.append(problem)
                        return problem
        return None

    def save(self) -> None:
        if self.mismatches or len(self.seen) <= len(self.cached):
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.seen, fh)
        os.replace(tmp, self.path)


class Run:
    """Shared op loop of the untraced and traced runs."""

    def __init__(self, name: str, seed: int, ref: dict,
                 digests: "DigestBook | None") -> None:
        from workloads import WORKLOADS

        self.cls = WORKLOADS[name]
        self.seed = seed
        self.ref_loop_s = ref["ref_loop_s"]
        self.digests = digests
        self.outcomes = []
        self.ok_ops = 0
        self.problems: list[str] = []
        #: Ops attempted: every checked op, plus one that raised.
        self.attempted = 0

    def setup(self, repeats: int) -> tuple[object, list[float], list[dict]]:
        """Build the world ``repeats`` times; keep the last one."""
        setups, audit = [], []
        world = None
        for r in range(repeats):
            if world is not None:
                world.close()
            before = calib.time_loop()
            t0 = calib.host_clock()
            world = self.cls(self.seed)
            world.setup()
            raw = calib.host_clock() - t0
            after = calib.time_loop()
            setups.append(calib.rescale(raw, before, after, self.ref_loop_s))
            audit.append({"raw_s": raw, "loop_s": [before, after]})
        return world, setups, audit

    def abort(self, index: int, exc: Exception) -> None:
        """An op raised: that is a failed op and the end of the run."""
        traceback.print_exception(exc, file=sys.stderr)
        self.problems.append(f"op {index}: raised {type(exc).__name__}: {exc}")
        self.attempted += 1

    def check(self, world, index: int, raw) -> object:
        self.attempted += 1
        outcome = world.check_op(index, raw)
        if self.digests is not None:
            problem = self.digests.check(index, outcome.digest)
            if problem is not None:
                outcome.problems.append(f"digest mismatch: {problem}")
        if outcome.problems:
            self.problems.append(f"op {index}: {outcome.problems[0]}")
        else:
            self.ok_ops += 1
        self.outcomes.append(outcome)
        return outcome


def run_e2e(name: str, seed: int, n_ops: int, ref: dict,
            digests: "DigestBook | None") -> dict:
    """The untraced run: every end-to-end metric."""
    run = Run(name, seed, ref, digests)
    world, setups, setup_audit = run.setup(SETUP_REPEATS)
    clock = calib.host_clock
    bracket = calib.Bracketed(run.ref_loop_s)
    try:
        for i in range(n_ops):
            t0 = clock()
            try:
                raw = world.run_op(i)
                bracket.record(clock() - t0)
                run.check(world, i, raw)
            except Exception as exc:  # a crashing op is a result to report
                run.abort(i, exc)
                break
        run.problems.extend(world.final_check())
    finally:
        world.close()
    op_s = [bracket.calibrated(i) for i in range(len(run.outcomes))] or [0.0]
    units = sum(o.units_attempted for o in run.outcomes)
    units_ok = sum(o.units_ok for o in run.outcomes)
    per_op, period = world.per_op_percentiles, world.period
    pct, tail_s = tail(op_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "host_units_per_s": (units / sum(op_s) if units else 0.0, "1/s"),
        "host_op_p50_ms": (statistics.median(op_s) * 1000.0, "ms"),
        "host_op_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "ok_ratio": (run.ok_ops / run.attempted, "ratio"),
        "sim_p50_ms": (sim_percentile(run.outcomes, 0.50, per_op, period),
                       "ms"),
        "sim_p99_ms": (sim_percentile(run.outcomes, 0.99, per_op, period),
                       "ms"),
        "sim_goodput": (units_ok / units if units else 0.0, "ratio"),
    }
    notes = [f"ops {len(op_s)}, units {units}, tail = p{pct:.2f} "
             f"({TAIL_OPS} of {len(op_s)} ops beyond it)",
             "calibration " + json.dumps({"setup": setup_audit,
                                          "ops": bracket.audit()})]
    return {"metrics": metrics, "notes": notes, "run": run}


def run_traced(name: str, seed: int, n_ops: int, ref: dict,
               digests: "DigestBook | None") -> dict:
    """The traced run: per-layer metrics plus the tracing overhead.

    Ops alternate in blocks of two op-mix periods between untraced and
    traced, so both halves see the same op mix and the same growth of
    the world; the overhead is the difference of their calibrated means.
    Two periods rather than one keep a phenomenon that recurs every
    other op (Xenstore log rotation on host_churn) from landing in one
    half only.
    """
    import tracing

    run = Run(name, seed, ref, digests)
    world, _setups, _audit = run.setup(1)
    clocks = world.clocks()
    recorder = tracing.SpanRecorder(lambda: sum(c.now for c in clocks),
                                    keep_ops=KEEP_SPAN_OPS)
    rollup = tracing.LayerRollup()
    clock = calib.host_clock
    bracket = calib.Bracketed(run.ref_loop_s)
    untraced_ms: list[float] = []
    block = 2 * world.period
    try:
        for i in range(n_ops):
            traced = (i // block) % 2 == 1
            if traced:
                if not recorder.installed:
                    recorder.install()
                before = world.counters()
                recorder.begin_op(i)
            elif recorder.installed:
                recorder.uninstall()
            t0 = clock()
            try:
                raw = world.run_op(i)
                raw_s = clock() - t0
                recorder.end_op()
                bracket.record(raw_s)
                outcome = run.check(world, i, raw)
            except Exception as exc:  # a crashing op is a result to report
                recorder.end_op()
                run.abort(i, exc)
                break
            if traced:
                if recorder.op_covered_s > raw_s:
                    run.problems.append(
                        f"op {i}: spans cover {recorder.op_covered_s} s "
                        f"of a {raw_s} s op")
                after = world.counters()
                delta = {k: after[k] - before[k] for k in after}
                for key, value in outcome.extra.items():
                    delta[key] = delta.get(key, 0.0) + value
                rollup.add_op(recorder, raw_s, bracket.factor(i), delta)
            else:
                untraced_ms.append(bracket.calibrated(i) * 1000.0)
    finally:
        recorder.uninstall()
    run.problems.extend(world.final_check())
    world.close()
    untraced_mean = (sum(untraced_ms) / len(untraced_ms)
                     if untraced_ms else 0.0)
    metrics = rollup.metrics(untraced_mean)
    self_sum = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    residual = (metrics["trace.op_ms"][0] - self_sum
                - metrics["trace.unattributed_ms"][0])
    os.makedirs(STATE_DIR, exist_ok=True)
    spans_path = os.path.join(STATE_DIR, f"spans-{name}-{seed:#x}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "spans": recorder.export()}, fh)
    notes = [f"traced ops {rollup.ops}, untraced ops {len(untraced_ms)}",
             f"overhead: traced {metrics['trace.op_ms'][0]:.3f} ms/op vs "
             f"untraced {untraced_mean:.3f} ms/op",
             f"layer self {self_sum:.3f} + unattributed "
             f"{metrics['trace.unattributed_ms'][0]:.3f} = op "
             f"{metrics['trace.op_ms'][0]:.3f} ms (residual {residual:.2e})",
             f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    return {"metrics": metrics, "notes": notes, "run": run}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("host_churn", "frontdoor_steady",
                                 "fleet_burst"))
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="rewrite the workload's pinned default-seed "
                             "digests in reference.json instead of measuring")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"nephbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"nephbench: imported repro from {repro.__file__}")


def repin(name: str, ref: dict) -> int:
    run = run_e2e(name, DEFAULT_SEED, PIN_OPS, ref, None)["run"]
    if run.problems:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    ref.setdefault("digests", {})[name] = [o.digest for o in run.outcomes]
    with open(calib.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {PIN_OPS} op digests of {name}")
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    ref = calib.load_reference()
    if args.repin:
        return repin(args.workload, ref)
    period = WORKLOADS[args.workload].period
    n_ops = op_count(args.workload, args.seconds, ref, period)
    digests = DigestBook(args.workload, args.seed,
                         ref.get("digests", {}).get(args.workload, []))
    runner = run_traced if args.trace else run_e2e
    out = runner(args.workload, args.seed, n_ops, ref, digests)
    run = out["run"]
    digests.save()
    for note in out["notes"]:
        print(note)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.attempted - run.ok_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
