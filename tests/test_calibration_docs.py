"""docs/CALIBRATION.md must match the cost table it documents.

Same contract as tests/test_faults_docs.py for docs/FAULTS.md: the
anchor tables name constants with their calibrated values, and this
test diffs every claim against ``repro/sim/costs.py`` so the document
cannot silently rot when a constant is renamed or recalibrated.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.devices.vif import RX_BUFFER_PAGES
from repro.sim.costs import CostModel
from tests.conftest import assert_no_gaps, mentions

REPO = Path(__file__).resolve().parent.parent
CALIBRATION_MD = REPO / "docs" / "CALIBRATION.md"

#: Named sizes documented alongside CostModel fields.
EXTRA_CONSTANTS = {"RX_BUFFER_PAGES": RX_BUFFER_PAGES}

#: Unit suffix -> factor into the model's native unit (ms for times,
#: raw counts/bytes otherwise). Longest-match first.
UNITS = [
    ("ns/page", 1e-6),
    ("ns", 1e-6),
    ("us", 1e-3),
    ("ms", 1.0),
    ("KiB", 1024),
    ("pages", 1),
]

_CLAIM = re.compile(
    r"`([A-Za-z0-9_]+)` = ([0-9][0-9.e+-]*)\s*(ns/page|ns|us|ms|KiB|pages)?")


def _table_cells() -> list[str]:
    """First cell of every constants-table row in the document."""
    text = CALIBRATION_MD.read_text(encoding="utf-8")
    cells = []
    for line in text.splitlines():
        if line.startswith("| `"):
            cells.append(line.split("|")[1].strip())
    return cells


def _claims() -> list[tuple[str, float]]:
    """Every ``name = value unit`` claim, converted to model units."""
    claims = []
    for cell in _table_cells():
        for name, value, unit in _CLAIM.findall(cell):
            factor = dict(UNITS).get(unit, 1) if unit else 1
            claims.append((name, float(value) * factor))
    return claims


def test_tables_are_parsed():
    assert len(_table_cells()) >= 15
    assert len(_claims()) >= 15


def test_every_documented_constant_exists():
    model = CostModel()
    assert_no_gaps(
        (name for cell in _table_cells()
         for name in re.findall(r"`([A-Za-z0-9_]+)`", cell)),
        lambda name: hasattr(model, name) or name in EXTRA_CONSTANTS,
        "docs/CALIBRATION.md documents unknown constants")


def test_every_documented_value_matches_the_cost_table():
    model = CostModel()
    for name, documented in _claims():
        actual = EXTRA_CONSTANTS.get(name, getattr(model, name, None))
        assert actual is not None, name
        assert actual == pytest.approx(documented, rel=1e-6), (
            f"docs/CALIBRATION.md claims {name} = {documented}, "
            f"repro/sim/costs.py has {actual}")


def test_every_fleet_constant_is_documented():
    text = CALIBRATION_MD.read_text(encoding="utf-8")
    fleet_fields = [f.name for f in dataclasses.fields(CostModel) if
                    f.name.startswith("fleet_")]
    assert fleet_fields, "CostModel lost its fleet_* constants"
    assert_no_gaps(fleet_fields, mentions(text),
                   "fleet constants missing from docs/CALIBRATION.md")


def test_fleet_constants_derive_from_the_lan_rtt_anchor():
    """The fleet_* table is anchored, not hand-tuned: every time
    constant is the documented multiple of the published 0.5 ms
    intra-datacenter RTT (Dean & Barroso, CACM 2013), exactly as
    docs/CALIBRATION.md derives them."""
    from repro.sim.costs import FLEET_LAN_RTT

    assert FLEET_LAN_RTT == pytest.approx(0.5)  # ms; the published anchor
    model = CostModel()
    derivations = {
        "fleet_heartbeat_poll": FLEET_LAN_RTT / 10,
        "fleet_forward_rpc": 4 * FLEET_LAN_RTT,
        "fleet_replace_backoff": 10 * FLEET_LAN_RTT,
        "fleet_detect_fixed": 2 * FLEET_LAN_RTT,
        "fleet_fence_per_domain": 4 * (FLEET_LAN_RTT / 10),
        "fleet_degraded_penalty": 2 * FLEET_LAN_RTT,
    }
    fleet_fields = {f.name for f in dataclasses.fields(CostModel)
                    if f.name.startswith("fleet_")}
    assert derivations.keys() == fleet_fields, (
        "a fleet_* constant was added without a documented derivation")
    for name, derived in derivations.items():
        assert getattr(model, name) == pytest.approx(derived), (
            f"{name} no longer matches its docs/CALIBRATION.md "
            f"derivation ({derived} ms)")


def test_frontdoor_constants_derive_from_the_lan_rtt_anchor():
    """The frontdoor_* resilience constants are anchored the same way
    as the fleet control plane: every one is the documented multiple
    of `FLEET_LAN_RTT`, exactly as docs/CALIBRATION.md (and
    docs/RESILIENCE.md) derive them."""
    from repro.sim.costs import FLEET_LAN_RTT

    model = CostModel()
    derivations = {
        "frontdoor_retry_backoff_base": 4 * FLEET_LAN_RTT,
        "frontdoor_breaker_cooldown": 20 * FLEET_LAN_RTT,
    }
    frontdoor_fields = {f.name for f in dataclasses.fields(CostModel)
                        if f.name.startswith("frontdoor_")}
    assert derivations.keys() == frontdoor_fields, (
        "a frontdoor_* constant was added without a documented "
        "derivation")
    for name, derived in derivations.items():
        assert getattr(model, name) == pytest.approx(derived), (
            f"{name} no longer matches its docs/CALIBRATION.md "
            f"derivation ({derived} ms)")
    assert_no_gaps(derivations, mentions(CALIBRATION_MD.read_text("utf-8")),
                   "frontdoor constants missing from docs/CALIBRATION.md")


def test_migration_constants_derive_from_the_wire_anchor():
    """The migration_* table is anchored the same way: every constant
    is the documented function of the 10 GbE wire-page anchor, the LAN
    RTT and the paper's §7.2 dirty rate, exactly as docs/CALIBRATION.md
    (and docs/MIGRATION.md) derive them."""
    from repro.sim.costs import FLEET_LAN_RTT, MIGRATION_WIRE_PAGE

    # 4096 B at 10 Gbps line rate, in virtual ms.
    assert MIGRATION_WIRE_PAGE == pytest.approx(4096 * 8 / 10e9 * 1e3)
    model = CostModel()
    derivations = {
        "migration_page_stream": MIGRATION_WIRE_PAGE,
        "migration_round_fixed": 2 * FLEET_LAN_RTT,
        "migration_cutover_fixed": 4 * FLEET_LAN_RTT,
        "migration_postcopy_fault": FLEET_LAN_RTT + MIGRATION_WIRE_PAGE,
        "migration_remap_shared_page": MIGRATION_WIRE_PAGE / 16,
        "migration_dirty_rate_pages_per_ms": 3.0,
    }
    migration_fields = {f.name for f in dataclasses.fields(CostModel)
                        if f.name.startswith("migration_")}
    assert derivations.keys() == migration_fields, (
        "a migration_* constant was added without a documented "
        "derivation")
    for name, derived in derivations.items():
        assert getattr(model, name) == pytest.approx(derived), (
            f"{name} no longer matches its docs/CALIBRATION.md "
            f"derivation ({derived})")
    assert_no_gaps(derivations, mentions(CALIBRATION_MD.read_text("utf-8")),
                   "migration constants missing from docs/CALIBRATION.md")


def test_dirty_rate_survives_cost_scaling():
    """``CostModel.scaled`` must scale migration *times* but leave the
    dirty rate alone — it is a guest property, not a testbed speed
    (docs/CALIBRATION.md states this explicitly)."""
    slow = CostModel().scaled(2.0)
    fast = CostModel()
    assert slow.migration_page_stream == pytest.approx(
        2.0 * fast.migration_page_stream)
    assert slow.migration_dirty_rate_pages_per_ms == pytest.approx(
        fast.migration_dirty_rate_pages_per_ms)


def test_fleet_anchor_sources_are_cited():
    text = CALIBRATION_MD.read_text(encoding="utf-8")
    assert "FLEET_LAN_RTT" in text
    assert "Tail at Scale" in text
    assert "SWIM" in text
