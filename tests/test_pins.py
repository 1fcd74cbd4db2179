"""CI and pyproject.toml's test extra pin the same test dependencies:
derandomized hypothesis draws depend on hypothesis's version, so
`pip install .[test]` must get the versions CI installs. Both files are
read by regex, since tomllib needs Python 3.11 and the project supports
3.10."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = re.compile(r"([A-Za-z0-9_.-]+)==([^\s\"',\]]+)")


def test_ci_and_the_test_extra_pin_the_same_versions():
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    installs = [line for line in ci.splitlines() if "pip install" in line]
    extra = re.search(r"^test\s*=\s*\[([^\]]*)\]", (ROOT / "pyproject.toml").read_text(), re.M)
    assert len(installs) == 1 and extra, "one pip install line in CI and one test extra"
    entries = re.findall(r"\"([^\"]*)\"", extra.group(1))
    assert entries and all(PIN.fullmatch(e) for e in entries), f"unpinned test extra: {entries}"
    assert dict(PIN.findall(installs[0])) == dict(PIN.findall(extra.group(1)))
