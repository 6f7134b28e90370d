"""The suite's own settings: under the repository's ``pyproject.toml`` a
failing property test is reported like any other, and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report may import libcst, whose import warns; the
    # settings turn warnings into errors, and one raised inside the report
    # would abort the whole run with INTERNALERROR
    (tmp_path / "test_planted.py").write_text(PLANTED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert done.returncode == 1, out
