"""``python -m repro.storm``: the one storm runner and its fingerprint.

Pins the fingerprint of every CI smoke invocation, the typed-error
boundary (bad counts and library errors exit 2 with one ``error`` line,
never a traceback), drift reporting, and the :mod:`repro.obs.canonical`
helpers the runner and every storm share.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import storm
from repro.errors import ReproError
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.fleet.migration import migration_storm_plan
from repro.obs import fingerprint, first_difference, jsonify

# ----------------------------------------------------------------------
# the CI smoke invocations, pinned across commits
# ----------------------------------------------------------------------

#: Each CI smoke step's arguments (without ``--runs``) and the
#: fingerprint its report carries at the pinned seed.
CI_PINS = {
    "chaos": (
        ["chaos", "--seed", "0xC10E", "--faults", "100"],
        "2446100026171076055cb99f471ed00ebb70663d45032ab9f240aee1c3814bde"),
    "kvm-chaos": (
        ["kvm-chaos", "--seed", "0xC10E", "--faults", "100"],
        "2ecbcea2bda3fd8321edf26c97603b28297ed3e799807b303202a6710a90254f"),
    "fleet": (
        ["fleet", "--seed", "0xC10E", "--hosts", "4", "--kills", "2"],
        "e33267584e8aceccb315846ade8072ce3e570aefd1bfaed94f644cb1d5caaefe"),
    "migration": (
        ["migration", "--seed", "0xC10E"],
        "29e2f33b7b084d99c39e1d828b5cc08b3a2395f6068c627fba3a656bce30b6d5"),
    "frontdoor": (
        ["frontdoor", "--seed", "0xC10E", "--requests", "5000",
         "--clone-factors", "1,2"],
        "c255540dec2c342e767e0167af0f633017751866bfb065b7b6cde115f772ed77+"
        "ccefff314e628a83fa3f9d2c02b93bce9c9bdfc0574b30ccc8c63db9d3e4d2fd"),
    "overload": (
        ["overload", "--seed", "0xC10E"],
        "e57d809fab3ee4fc4b99fc74eeefefd404195cfa6cc5b871b1c6a88fda4036d9"),
}


@pytest.mark.parametrize("tier", sorted(CI_PINS))
def test_ci_invocation_fingerprint_is_pinned(tier, capsys):
    argv, expected = CI_PINS[tier]
    assert storm.main([*argv, "--runs", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    if tier == "frontdoor":
        got = "+".join(result["fingerprint"] for result in report["results"])
    else:
        got = report["fingerprint"]
    assert got == expected


def test_every_tier_has_a_ci_pin():
    assert set(CI_PINS) == set(storm.TIERS)


#: Small arguments for every tier whose report carries its own digest
#: (the frontdoor sweep's is the ``+``-join of its per-factor digests).
SEALED_TIERS = {
    "chaos": ["--faults", "8"],
    "kvm-chaos": ["--faults", "8"],
    "fleet": ["--rounds", "2"],
    "migration": ["--faults", "4", "--rounds", "2"],
    "overload": ["--requests", "300"],
}


@pytest.mark.parametrize("tier", sorted(SEALED_TIERS))
def test_report_fingerprint_seals_its_json(tier):
    args = storm.build_parser().parse_args([tier, *SEALED_TIERS[tier]])
    report = storm.TIERS[tier].run(args)
    payload = report.to_dict()
    assert report.fingerprint == payload.pop("fingerprint") \
        == fingerprint(payload)
    assert set(SEALED_TIERS) == set(storm.TIERS) - {"frontdoor"}


# ----------------------------------------------------------------------
# the typed-error boundary
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["chaos", "--faults", "-3"], "--faults: must be >= 0, got -3"),
    (["chaos", "--runs", "0"], "--runs: must be >= 1, got 0"),
    (["kvm-chaos", "--batch", "zero"], "--batch: not an integer: 'zero'"),
    (["fleet", "--hosts", "0"], "--hosts: must be >= 1, got 0"),
    (["fleet", "--kills", "5"], "error: cannot kill 5 of only 4 hosts"),
    (["frontdoor", "--replicas", "1"],
     "error: family 'smoke' has 1 ready replicas, need clone_factor=2"),
    (["frontdoor", "--utilization", "nan"],
     "--utilization: must be a finite number > 0"),
    (["frontdoor", "--clone-factors", "1,0"],
     "--clone-factors: must be >= 1, got 0"),
    (["migration", "--faults", "-1"], "--faults: must be >= 0, got -1"),
    (["migration", "--faults", "1"], "error: 'faults' budget 1 is below"),
    (["overload", "--requests", "0"], "--requests: must be >= 1, got 0"),
    (["chaos", "--plan", "/nonexistent/plan.json"],
     "error: cannot load plan"),
])
def test_bad_input_exits_2_with_one_error_line(argv, message, capsys):
    assert storm.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert message in err.splitlines()[-1]


def test_library_rejects_budgets_the_cli_now_refuses():
    with pytest.raises(FaultPlanError, match="negative 'faults' budget"):
        FaultPlan.randomized(7, faults=-3)
    assert FaultPlan.randomized(7, faults=0).empty
    with pytest.raises(FaultPlanError, match="'faults' budget 1"):
        migration_storm_plan(7, faults=1, hosts=4)
    # A budget equal to the kill tail is all kills, no stream faults.
    plan = migration_storm_plan(7, faults=2, hosts=4)
    assert [spec.site for spec in plan.specs] == [
        "migration.source", "migration.target"]


# ----------------------------------------------------------------------
# drift: the runner says where
# ----------------------------------------------------------------------

def test_drift_prints_both_hashes_and_the_first_difference(
        monkeypatch, capsys):
    latencies = iter([[3.1, 3.2], [3.1, 3.3]])

    def fake_run(args):
        lats = next(latencies)
        report = storm.SweepReport(seed=args.seed, hosts=args.hosts,
                                   replicas=args.replicas, workload="faas")
        report.results.append({"fingerprint": fingerprint(lats),
                               "latencies": lats})
        return report

    monkeypatch.setitem(storm.TIERS, "frontdoor", dataclasses.replace(
        storm.TIERS["frontdoor"], run=fake_run))
    assert storm.main(["frontdoor", "--runs", "2", "--json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: fingerprint drift: ")
    assert fingerprint([3.1, 3.2]) in err and fingerprint([3.1, 3.3]) in err
    assert "first difference: results[0].latencies[1]: 3.2 != 3.3" in err


# ----------------------------------------------------------------------
# repro.obs.canonical
# ----------------------------------------------------------------------

def test_fingerprint_is_sha256_of_canonical_json():
    payload = {"b": [1, 2.5, None], "a": {"y": True, "x": "s"}}
    text = json.dumps(payload, sort_keys=True)
    assert fingerprint(payload) == hashlib.sha256(text.encode()).hexdigest()
    assert fingerprint({"a": {"x": "s", "y": True}, "b": [1, 2.5, None]}) \
        == fingerprint(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fingerprint_rejects_non_finite_floats(bad):
    with pytest.raises(ReproError, match="cannot fingerprint"):
        fingerprint({"latencies": [1.0, bad]})


def test_jsonify_flattens_dataclasses():
    @dataclasses.dataclass
    class Point:
        x: int
        tags: tuple

    assert jsonify({1: Point(2, ("a", 3.5)), "o": object}) == {
        "1": {"x": 2, "tags": ["a", 3.5]}, "o": repr(object)}


@pytest.mark.parametrize("a, b, expected", [
    ({"x": 1}, {"x": 1}, None),
    ({"results": [{"latencies": [3.1, 3.2]}, {"latencies": [3.2, 3.2]}]},
     {"results": [{"latencies": [3.1, 3.2]}, {"latencies": [3.2, 3.3]}]},
     "results[1].latencies[1]: 3.2 != 3.3"),
    ({"b": 1, "a": 1}, {"b": 2, "a": 2}, "a: 1 != 2"),
    ({"x": 1}, {"x": 1.0}, "x: 1 != 1.0"),
    ({"x": 1}, {"x": True}, "x: 1 != true"),
    ({"x": [1, 2]}, {"x": [1, 2, 3]}, "x: length 2 != 3"),
    ({"x": 1}, {"x": 1, "y": "new"}, 'y: (missing) != "new"'),
    ([1], {"x": 1}, '<root>: [1] != {"x": 1}'),
])
def test_first_difference(a, b, expected):
    assert first_difference(a, b) == expected


def test_first_difference_ignores_digests_and_truncates():
    a = {"fingerprint": "aa", "v": "x" * 100}
    b = {"fingerprint": "bb", "v": "y" * 100}
    assert first_difference(a, b) == "fingerprint: \"aa\" != \"bb\""
    where = first_difference(a, b, ignore=frozenset({"fingerprint"}))
    left, right = where.split(" != ")
    assert left.startswith('v: "xxx') and left.endswith("x...")
    assert len(right) == 60 and right.endswith("y...")
    assert first_difference({"fingerprint": "aa"}, {"fingerprint": "bb"},
                            ignore=frozenset({"fingerprint"})) is None
