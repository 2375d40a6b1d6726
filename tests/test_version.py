"""The release number agrees everywhere it is stated."""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_version_matches_pyproject_and_newest_changelog_entry():
    pyproject = re.search(
        r'^version = "([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M
    ).group(1)
    # CHANGELOG.md lists releases oldest first.
    releases = re.findall(
        r"^## (\d+\.\d+\.\d+)", (ROOT / "CHANGELOG.md").read_text(), re.M
    )
    assert repro.__version__ == pyproject == releases[-1]
