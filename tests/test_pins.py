"""CI and pyproject.toml agree on what Tier-1 runs with. The test extra pins
the versions CI installs, since derandomized hypothesis draws depend on
hypothesis's version, so `pip install .[test]` must get the versions CI
installs; and CI runs the oldest Python that pyproject.toml admits."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = re.compile(r"([A-Za-z0-9_.-]+)==([^\s\"',\]]+)")


def _project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def _ci():
    return (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_ci_and_the_test_extra_pin_the_same_versions():
    installs = [line for line in _ci().splitlines() if "pip install" in line]
    extra = _project()["optional-dependencies"]["test"]
    assert len(installs) == 1, "one pip install line in CI"
    assert extra and all(PIN.fullmatch(e) for e in extra), f"unpinned test extra: {extra}"
    assert dict(PIN.findall(installs[0])) == dict(PIN.fullmatch(e).groups() for e in extra)


def test_ci_runs_the_python_floor():
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", _project()["requires-python"])
    versions = re.findall(r"python-version:\s*[\"']?([\d.]+)", _ci())
    assert floor and versions == [floor.group(1)], (_project()["requires-python"], versions)
