import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# pytest puts src/ on this process's path (pyproject.toml); the CLI tests'
# subprocesses find dynreg there through PYTHONPATH.
_src = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_src, os.environ.get("PYTHONPATH")]))

# Hypothesis caches source constants under .hypothesis/ in the working
# directory even with database=None; keep that cache in a directory removed
# when the test session ends.
_hypothesis_storage = tempfile.TemporaryDirectory(prefix="dynreg-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _hypothesis_storage.name)

from dynreg.gallery import gallery


@pytest.fixture(scope="session")
def gal():
    return gallery()
