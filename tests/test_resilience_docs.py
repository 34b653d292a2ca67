"""docs/RESILIENCE.md must match the policy registry it documents.

Same doc-vs-registry contract as tests/test_faults_docs.py and
tests/test_migration_docs.py, in both directions: every
``ResiliencePolicy`` knob must appear in the policy table with its
real default, every ``frontdoor.*`` fault site and ``frontdoor_*``
cost constant must be named, and the document may not claim a knob or
constant the code does not have — so it cannot silently rot when the
resilience tier changes.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.faults.sites import frontdoor_sites
from repro.frontdoor.resilience import ResiliencePolicy
from repro.sim.costs import CostModel
from tests.conftest import assert_no_gaps, mentions

REPO = Path(__file__).resolve().parent.parent
RESILIENCE_MD = REPO / "docs" / "RESILIENCE.md"

_KNOB_ROW = re.compile(r"^\| `([a-z_]+)` = ([^|]+?) \|", re.MULTILINE)
_COST_NAME = re.compile(r"`(frontdoor_[a-z_]+)`")

#: ``frontdoor_*`` names in the document that are experiments, not
#: cost constants.
NOT_CONSTANTS = {"frontdoor_overload", "frontdoor_p99"}


def _text() -> str:
    return RESILIENCE_MD.read_text(encoding="utf-8")


def _documented_knobs() -> dict[str, object]:
    """Policy-table knob name -> documented default (Python literal)."""
    return {name: ast.literal_eval(value.strip())
            for name, value in _KNOB_ROW.findall(_text())}


def test_every_policy_knob_is_documented():
    assert_no_gaps((f.name for f in dataclasses.fields(ResiliencePolicy)),
                   _documented_knobs().__contains__,
                   "policy knobs missing from docs/RESILIENCE.md")


def test_every_documented_knob_exists():
    fields = {f.name for f in dataclasses.fields(ResiliencePolicy)}
    assert_no_gaps(_documented_knobs(), fields.__contains__,
                   "docs/RESILIENCE.md documents unknown knobs")


def test_documented_defaults_match_the_dataclass():
    policy = ResiliencePolicy()
    for name, documented in _documented_knobs().items():
        actual = getattr(policy, name)
        if isinstance(actual, float):
            assert actual == pytest.approx(documented), (
                f"docs/RESILIENCE.md claims {name} = {documented}, "
                f"ResiliencePolicy defaults to {actual}")
        else:
            assert actual == documented, (
                f"docs/RESILIENCE.md claims {name} = {documented!r}, "
                f"ResiliencePolicy defaults to {actual!r}")


def test_every_frontdoor_cost_constant_is_documented():
    text = _text()
    fields = [f.name for f in dataclasses.fields(CostModel)
              if f.name.startswith("frontdoor_")]
    assert fields, "CostModel lost its frontdoor_* constants"
    assert_no_gaps(fields, mentions(text),
                   "cost constants missing from docs/RESILIENCE.md")


def test_every_documented_cost_constant_exists():
    model = CostModel()
    assert_no_gaps(_COST_NAME.findall(_text()),
                   lambda name: name in NOT_CONSTANTS or hasattr(model, name),
                   "docs/RESILIENCE.md documents unknown constants")


def test_every_frontdoor_fault_site_is_named():
    text = _text()
    sites = frontdoor_sites()
    assert sites, "the frontdoor.* fault sites went missing"
    assert_no_gaps(sites, mentions(text),
                   "fault sites missing from docs/RESILIENCE.md")


def test_conservation_laws_are_stated():
    text = _text()
    assert "offered == admitted + shed" in text
    assert "admitted == completed + timed_out + failed" in text
    assert "retry_budget_fraction * first_tries" in text


def test_readme_links_resilience_model():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/RESILIENCE.md" in readme
