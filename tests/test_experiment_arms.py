"""Tests: the shared ablation arm runner, the drain-vs-kill ablation's
pinned quick run, and the typed argument errors of the storm and
ablation entry points."""

import pytest

from repro.errors import ReproError
from repro.experiments import fleet_migration, frontdoor_overload, frontdoor_p99
from repro.experiments.arms import divergence
from repro.faults.chaos import run_chaos, run_kvm_chaos
from repro.frontdoor.resilience import run_overload_storm

#: ``fleet_migration.run_quick()``'s sha256: all three traffic arms, the
#: migration storm unit and the serial-vs-pool comparison.
FLEET_MIGRATION_QUICK = (
    "5ef74037f1e59da4d07ede5e0d76dab03d3b3f87f057b4074ef442ae5bbbb476")


def test_fleet_migration_quick_run_is_pinned():
    result = fleet_migration.run_quick()
    assert result.fingerprint == FLEET_MIGRATION_QUICK
    assert result.parallel_identical
    assert result.violations == []
    assert set(result.arms) == {"baseline", "drain", "kill"}
    assert "serial == parallel: yes" in fleet_migration.format_result(result)


def test_divergence_names_the_first_differing_unit_and_path():
    serial = [{"arm": "baseline", "p99_ms": 4.0},
              {"arm": "kill", "waves": [{"p99_ms": 9.5}]}]
    pooled = [{"arm": "baseline", "p99_ms": 4.0},
              {"arm": "kill", "waves": [{"p99_ms": 9.75}]}]
    assert divergence(serial, serial) is None
    assert divergence(serial, pooled) == (
        "parallel run diverged from serial run: unit kill: "
        "waves[0].p99_ms: 9.5 != 9.75")


@pytest.mark.parametrize("run, name", [
    (lambda: run_overload_storm(waves=0), "'waves'"),
    (lambda: frontdoor_overload.run(waves=0), "'waves'"),
    (lambda: fleet_migration.run(arrival_rps=0.0), "'arrival_rps'"),
    (lambda: fleet_migration.run(heartbeat_every_ms=0.0),
     "'heartbeat_every_ms'"),
    (lambda: run_chaos(parents=0), "'parents'"),
    (lambda: run_chaos(batch=0), "'batch'"),
    (lambda: run_chaos(rounds=0), "'rounds'"),
    (lambda: run_kvm_chaos(parents=0), "'parents'"),
    (lambda: run_kvm_chaos(batch=0), "'batch'"),
    (lambda: frontdoor_p99.run(clone_factors=()), "'clone_factors'"),
    (lambda: frontdoor_p99.run(clone_factors=(2, 0)), "'clone_factors'"),
    (lambda: run_overload_storm(requests=0), "'requests'"),
    (lambda: run_overload_storm(requests=2, waves=3), "'requests'"),
    (lambda: fleet_migration.run(kill_tick=0), "'kill_tick'"),
], ids=["overload-storm-waves", "overload-ablation-waves",
        "migration-arrival-rps", "migration-heartbeat",
        "chaos-parents", "chaos-batch", "chaos-rounds", "kvm-chaos-parents",
        "kvm-chaos-batch", "p99-no-factors", "p99-zero-factor",
        "overload-storm-no-requests", "overload-storm-requests-below-waves",
        "migration-kill-tick"])
def test_degenerate_arguments_raise_a_typed_error(run, name):
    with pytest.raises(ReproError, match=name):
        run()
