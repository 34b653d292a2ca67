"""Tests: ``python -m repro.storm frontdoor`` and the fleet storm's
total-loss case."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import storm


def main(argv: list[str]) -> int:
    return storm.main(["frontdoor", *argv])


# ----------------------------------------------------------------------
# the module CLI (the storm-smoke CI contract)
# ----------------------------------------------------------------------

def test_smoke_contract_passes(capsys):
    # The exact invocation the storm-smoke CI job pins, at reduced
    # request count: two runs must agree byte-for-byte and leak nothing.
    assert main(["--seed", "0xC10E", "--requests", "600",
                 "--clone-factors", "1,2", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "conservation audit: clean (zero leaks)" in out
    assert out.count("fingerprint:") == 2  # one per clone factor


def test_json_report_shape(capsys):
    assert main(["--requests", "400", "--clone-factors", "2",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    (result,) = report["results"]
    assert result["clone_factor"] == 2
    assert result["requests"] == 400
    assert result["completed"] + result["failed"] \
        + result["timed_out"] == 400
    assert result["fingerprint"]


def test_workload_choices_cover_the_request_shapes(capsys):
    assert main(["--requests", "200", "--clone-factors", "1",
                 "--workload", "nginx"]) == 0
    assert "workload=nginx" in capsys.readouterr().out


# ----------------------------------------------------------------------
# regression: a fleet storm must fingerprint even on total loss
# ----------------------------------------------------------------------

def test_module_cli_total_loss_exits_zero(capsys):
    assert storm.main(["fleet", "--hosts", "2", "--kills", "2",
                       "--runs", "2"]) == 0
    # Killing every host used to raise before the report existed; a
    # total-loss storm must still run to completion and print the
    # sha256 fingerprint of its (all-failures) outcome.
    out = capsys.readouterr().out
    assert "hosts killed: 2" in out
    fingerprint = out.split("fingerprint: ")[1].split()[0]
    assert len(fingerprint) == 64


def test_shell_storm_total_loss_still_fingerprints():
    # The same total-loss storm typed at a command shell: the module
    # entry point must run it to completion and print the fingerprint.
    src = Path(repro.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.storm", "fleet", "--hosts", "2",
         "--kills", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "hosts killed: 2" in proc.stdout
    fingerprint = proc.stdout.split("fingerprint: ")[1].split()[0]
    assert len(fingerprint) == 64
    int(fingerprint, 16)


def test_kill_plan_still_rejects_more_kills_than_hosts():
    from repro.errors import ReproError
    from repro.fleet import kill_plan

    with pytest.raises(ReproError):
        kill_plan(7, hosts=2, kills=3)
    # The boundary case is legal now.
    plan = kill_plan(7, hosts=2, kills=2)
    assert plan is not None
