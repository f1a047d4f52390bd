"""The suite's own warning settings (pyproject.toml): a failing property test
reports its counterexample, and a DeprecationWarning or a UserWarning still
fails a test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 5


def test_a_deprecated_call():
    warnings.warn("`row_stack` alias is deprecated. Use `np.vstack` directly.", DeprecationWarning)


def test_a_user_warning():
    warnings.warn('loadtxt: input contained no data: "<stream>"', UserWarning)
'''


def test_a_failing_property_test_reports_its_counterexample(tmp_path):
    """Run under the suite's settings, in tmp_path so hypothesis's example
    database lands there and not in the checkout."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
        + ["-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_a_property_that_fails(" in out and "x=5," in out
    assert "FAILED test_failing.py::test_a_deprecated_call - DeprecationWarning" in out
    assert "FAILED test_failing.py::test_a_user_warning - UserWarning" in out
    assert "3 failed" in out
