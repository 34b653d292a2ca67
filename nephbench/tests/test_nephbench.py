"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest nephbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calib  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_rescale_scales_by_reference_over_measured_loop():
    # The host ran the loop at half the reference speed: halve the op.
    assert calib.rescale(0.2, 0.02, 0.02, 0.01) == pytest.approx(0.1)
    # The bracket is the mean of the loops before and after.
    assert calib.rescale(0.3, 0.01, 0.03, 0.02) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        calib.rescale(1.0, 0.0, 0.0, 0.01)


def test_bracketed_intervals_share_loops(monkeypatch):
    loops = iter([0.010, 0.020, 0.040])
    monkeypatch.setattr(calib, "time_loop", lambda: next(loops))
    bracket = calib.Bracketed(ref_loop_s=0.015)
    assert bracket.record(0.3) == pytest.approx(0.3 * 0.015 / 0.015)
    assert bracket.record(0.3) == pytest.approx(0.3 * 0.015 / 0.030)
    audit = bracket.audit()
    assert audit["loop_s"] == [0.01, 0.02, 0.04]
    assert audit["raw_s"] == [0.3, 0.3]


# ----------------------------------------------------------------------
# span recorder: self time on a synthetic span tree
# ----------------------------------------------------------------------
class _Ticker:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    host = _Ticker()
    virt = _Ticker()
    monkeypatch.setattr(tracing, "host_clock", host)
    recorder = tracing.SpanRecorder(virt, keep_ops=1)

    def work(host_s, virt_ms):
        host.now += host_s
        virt.now += virt_ms

    leaf = recorder._wrap("xenstore.write_node", lambda: work(1.0, 10.0))

    def middle_body():
        work(2.0, 5.0)
        leaf()
        leaf()
        work(0.5, 0.0)

    middle = recorder._wrap("toolstack.create", middle_body)

    def root_body():
        work(3.0, 1.0)
        middle()

    root = recorder._wrap("fleet.create_family", root_body)
    root()  # outside an op: not recorded
    assert recorder.op_agg == {}
    recorder.begin_op(0)
    root()
    recorder.end_op()
    root()
    agg = recorder.op_agg
    assert agg["xenstore.write_node"] == [2, pytest.approx(2.0),
                                          pytest.approx(20.0)]
    assert agg["toolstack.create"] == [1, pytest.approx(2.5),
                                       pytest.approx(5.0)]
    assert agg["fleet.create_family"] == [1, pytest.approx(3.0),
                                          pytest.approx(1.0)]
    assert recorder.op_covered_s == pytest.approx(7.5)
    spans = recorder.export()
    assert [s["name"] for s in spans] == [
        "xenstore.write_node", "xenstore.write_node", "toolstack.create",
        "fleet.create_family"]
    by_sid = {s["sid"]: s for s in spans}
    assert by_sid[spans[0]["parent"]]["name"] == "toolstack.create"
    assert spans[-1]["parent"] == 0
    assert {s["op"] for s in spans} == {0}

    # Layer self times plus unattributed time add up to the op time.
    rollup = tracing.LayerRollup()
    rollup.add_op(recorder, raw_s=8.0, factor=2.0, counter_delta={})
    metrics = rollup.metrics(untraced_op_ms=10_000.0)
    self_sum = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    assert self_sum == pytest.approx(15_000.0)
    assert metrics["trace.unattributed_ms"][0] == pytest.approx(1_000.0)
    assert metrics["trace.op_ms"][0] == pytest.approx(16_000.0)
    assert metrics["trace.overhead_ms"][0] == pytest.approx(6_000.0)


def test_recorder_installs_and_restores_every_target():
    import importlib

    originals = []
    for _name, module, cls_name, attr in tracing.TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        originals.append((cls, attr, cls.__dict__.get(attr)))
    recorder = tracing.SpanRecorder(lambda: 0.0)
    recorder.install()
    try:
        for cls, attr, original in originals:
            assert cls.__dict__.get(attr) is not original
    finally:
        recorder.uninstall()
    for cls, attr, original in originals:
        assert cls.__dict__.get(attr) is original


# ----------------------------------------------------------------------
# tiny-scale runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    ref = calib.load_reference()
    period = WORKLOADS[name].period
    n_ops = 4 * period
    digests = bench.DigestBook(name, bench.DEFAULT_SEED,
                               ref["digests"][name])
    out = bench.run_e2e(name, bench.DEFAULT_SEED, n_ops, ref, digests)
    assert out["run"].problems == []
    assert out["metrics"]["ok_ratio"][0] == 1.0
    assert digests.mismatches == []


def test_crashing_op_is_reported_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    cls = WORKLOADS["host_churn"]
    original = cls.run_op

    def run_op(self, index, warmup=False):
        if index == 1 and not warmup:
            raise RuntimeError("injected")
        return original(self, index, warmup)

    monkeypatch.setattr(cls, "run_op", run_op)
    out = bench.run_e2e("host_churn", 3, 4, calib.load_reference(), None)
    run = out["run"]
    assert run.attempted == 2 and run.ok_ops == 1
    assert run.problems == ["op 1: raised RuntimeError: injected"]
    assert out["metrics"]["ok_ratio"][0] == 0.5


def test_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    ref = calib.load_reference()
    out = bench.run_traced("host_churn", 7, 4, ref, None)
    metrics = out["metrics"]
    assert out["run"].problems == []
    assert metrics["xenstore.calls"][0] > 0
    assert metrics["core.children"][0] == 128
    self_sum = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    assert self_sum + metrics["trace.unattributed_ms"][0] == pytest.approx(
        metrics["trace.op_ms"][0])
    names = {m["name"] for m in load_benchmark()["per_layer"]}
    assert set(metrics) == names


def test_digest_book_reports_first_divergent_field(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    book = bench.DigestBook("host_churn", 5, [])
    assert book.check(0, {"a": "1", "b": "2"}) is None
    book.save()
    again = bench.DigestBook("host_churn", 5, [])
    assert again.check(0, {"a": "1", "b": "3"}) == (
        "op 0 field 'b': 3 != earlier run 2")


# ----------------------------------------------------------------------
# the printed metric names are exactly the ones BENCHMARK.json declares
# ----------------------------------------------------------------------
def _last_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    spec = load_benchmark()
    e2e = _last_json(["--workload", "host_churn", "--seed", "3",
                      "--seconds", "0.1", "--trace", "0"])
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] is True
    assert set(e2e["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert e2e["metrics"][m["name"]]["unit"] == m["unit"]
    traced = _last_json(["--workload", "frontdoor_steady", "--seed", "3",
                         "--seconds", "0.1", "--trace", "1"])
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_program_source(tmp_path):
    bench_copy = tmp_path / "nephbench"
    bench_copy.mkdir()
    for name in ("run.py", "calib.py", "workloads.py", "tracing.py",
                 "reference.json"):
        (bench_copy / name).write_bytes(
            open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench_copy / "run.py"),
                           "--workload", "host_churn", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
