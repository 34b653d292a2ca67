"""docs/MIGRATION.md must match the registries it documents.

Same doc-vs-registry contract as tests/test_faults_docs.py and
tests/test_calibration_docs.py, in both directions: every migration
fault site, every ``migration_*`` cost constant and both planner
bounds must be documented, and the document may not name a site or
constant the code does not have — so it cannot silently rot when the
migration tier changes.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro.fleet.migration as migration_mod
from repro.faults.sites import SITES, migration_sites
from repro.sim.costs import CostModel
from tests.conftest import assert_no_gaps, mentions

REPO = Path(__file__).resolve().parent.parent
MIGRATION_MD = REPO / "docs" / "MIGRATION.md"

_SECTION = re.compile(r"^### `([a-z0-9_.]+)`", re.MULTILINE)
_COST_NAME = re.compile(r"`(migration_[a-z_]+)`")
_BOUND = re.compile(r"`(MIGRATION_[A-Z_]+)`(?: = (\d+))?")
_TABLE_ROW = re.compile(
    r"^\| `(migration_[a-z_]+)` \| ([0-9][0-9.e+-]*)\s*(us|ms)? \|",
    re.MULTILINE)

#: Unit suffix -> factor into the cost model's native ms.
UNITS = {"us": 1e-3, "ms": 1.0, None: 1.0, "": 1.0}


def _text() -> str:
    return MIGRATION_MD.read_text(encoding="utf-8")


def _site_sections() -> dict[str, str]:
    """Site section name -> its body text."""
    text = _text()
    matches = list(_SECTION.finditer(text))
    sections = {}
    for i, match in enumerate(matches):
        end = (matches[i + 1].start() if i + 1 < len(matches)
               else len(text))
        sections[match.group(1)] = text[match.start():end]
    return sections


def test_every_migration_site_is_documented():
    assert_no_gaps(migration_sites(), _site_sections().__contains__,
                   "fault sites missing from docs/MIGRATION.md")


def test_every_documented_site_exists():
    assert_no_gaps(_site_sections(), SITES.__contains__,
                   "docs/MIGRATION.md documents unknown sites")


def test_each_site_section_states_window_and_outcome():
    for name, body in _site_sections().items():
        assert "Window:" in body, f"{name}: no failure window stated"
        assert "Outcome:" in body, f"{name}: no outcome stated"


def test_every_migration_cost_constant_is_documented():
    text = _text()
    fields = [f.name for f in dataclasses.fields(CostModel)
              if f.name.startswith("migration_")]
    assert fields, "CostModel lost its migration_* constants"
    assert_no_gaps(fields, mentions(text),
                   "cost constants missing from docs/MIGRATION.md")


def test_every_documented_cost_constant_exists():
    model = CostModel()
    assert_no_gaps(_COST_NAME.findall(_text()),
                   lambda name: hasattr(model, name),
                   "docs/MIGRATION.md documents unknown constants")


def test_documented_cost_values_match_the_cost_table():
    model = CostModel()
    rows = _TABLE_ROW.findall(_text())
    assert len(rows) >= 6, "the cost table went missing"
    for name, value, unit in rows:
        documented = float(value) * UNITS[unit or None]
        actual = getattr(model, name)
        assert actual == pytest.approx(documented, rel=1e-6), (
            f"docs/MIGRATION.md claims {name} = {documented} ms, "
            f"repro/sim/costs.py has {actual}")


def test_planner_bounds_are_documented_with_their_values():
    text = _text()
    documented = {}
    for name, value in _BOUND.findall(text):
        assert hasattr(migration_mod, name), (
            f"docs/MIGRATION.md documents unknown bound {name!r}")
        if value:
            documented[name] = int(value)
    for name in ("MIGRATION_ROUND_LIMIT",
                 "MIGRATION_CUTOVER_THRESHOLD_PAGES"):
        assert name in documented, (
            f"planner bound {name} missing from docs/MIGRATION.md")
        assert documented[name] == getattr(migration_mod, name), (
            f"docs/MIGRATION.md claims {name} = {documented[name]}, "
            f"repro/fleet/migration.py has "
            f"{getattr(migration_mod, name)}")


def test_convergence_condition_matches_the_constants():
    """The documented convergence claim (dirty rate x wire cost < 1,
    fixed point below the cutover threshold) must actually hold for
    the calibrated constants, or the cost-model narrative is stale."""
    model = CostModel()
    product = (model.migration_dirty_rate_pages_per_ms
               * model.migration_page_stream)
    assert product < 1, "pre-copy no longer converges as documented"
    fixed_point = (model.migration_dirty_rate_pages_per_ms
                   * model.migration_round_fixed) / (1 - product)
    assert fixed_point < migration_mod.MIGRATION_CUTOVER_THRESHOLD_PAGES
    assert "r * migration_page_stream < 1" in _text()
