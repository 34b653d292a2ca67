"""docs/FAULTS.md must document exactly the registered fault sites."""

from __future__ import annotations

import re
from pathlib import Path

from repro.faults.sites import SITES
from tests.conftest import assert_no_gaps

REPO = Path(__file__).resolve().parent.parent
FAULTS_MD = REPO / "docs" / "FAULTS.md"


def documented_sites() -> set[str]:
    text = FAULTS_MD.read_text(encoding="utf-8")
    return set(re.findall(r"^### `([a-z0-9_.]+)`", text, flags=re.M))


def test_every_registered_site_is_documented():
    assert_no_gaps(SITES, documented_sites().__contains__,
                   "sites missing from docs/FAULTS.md")


def test_every_documented_site_is_registered():
    assert_no_gaps(documented_sites(), SITES.__contains__,
                   "docs/FAULTS.md documents unknown sites")


def test_docs_mention_real_xen_analogue_per_site():
    text = FAULTS_MD.read_text(encoding="utf-8")
    sections = re.split(r"^### ", text, flags=re.M)[1:]
    for section in sections:
        name = section.split("`")[1]
        assert "Real-Xen analogue" in section, f"{name}: no analogue"
        assert "Recovery" in section, f"{name}: no recovery semantics"


def test_readme_links_failure_model():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/FAULTS.md" in readme
