"""``python -m repro.storm fleet``: exit codes and output contract."""

from __future__ import annotations

import json

from repro import storm


def main(argv: list[str]) -> int:
    return storm.main(["fleet", *argv])


def test_list_policies(capsys):
    assert main(["--list-policies"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "round-robin" in out and "least-loaded" in out


def test_smoke_contract_passes(capsys):
    # The exact invocation the storm-smoke CI job pins, at
    # reduced run count.
    assert main(["--seed", "0xC10E", "--hosts", "4", "--kills", "2",
                 "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "leak audit: clean (fleet-wide)" in out
    assert "hosts killed: 2" in out


def test_json_report_shape(capsys):
    assert main(["--kills", "1", "--rounds", "8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert report["hosts_killed"] == 1
    assert report["clones_requested"] == (report["clones_placed"]
                                          + report["clones_failed"])
    assert report["fingerprint"]


def test_plan_file_roundtrip(tmp_path, capsys):
    from repro.fleet import kill_plan

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(kill_plan(7, hosts=4, kills=2).to_json(),
                         encoding="utf-8")
    assert main(["--seed", "7", "--plan", str(plan_file)]) == 0
    assert "plan=fleet-kill-0x7-2" in capsys.readouterr().out


def test_exit_nonzero_when_kills_cannot_replace(capsys):
    # kills=0 with a plan that kills nobody is fine; asking for kills
    # the storm never delivers must fail the contract.
    assert main(["--kills", "2", "--rounds", "1"]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err
