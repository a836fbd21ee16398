"""The suite's pytest configuration reports a failing property as a test
failure: its warning filters turn the package's deprecations into errors,
but not the third-party deprecation that hypothesis's failure explanation
raises on import, which would otherwise abort the whole run."""

import shutil
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_passes():
    assert True
'''


def test_failing_property_shows_its_falsifying_example(tmp_path):
    shutil.copy(CONFIG, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", "pyproject.toml", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
