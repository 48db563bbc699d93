"""The suite's own pytest settings (`[tool.pytest.ini_options]`)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # reporting a falsifying example must not raise a warning that
    # `filterwarnings = ["error"]` turns into an INTERNALERROR, which would
    # stop the tests after it from running; the run happens in tmp_path, so
    # it leaves no cache or Hypothesis database in the checkout
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [*argv, "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
        timeout=300, check=False,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
