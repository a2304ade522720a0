"""The suite runs with pyproject.toml's ``filterwarnings``, which turns these
warnings into errors: a numpy deprecation fails a test before the release
that acts on it can change a bit, and a floating-point warning numpy
reports outside an ``np.errstate(... = "raise")`` fails the test it
happens in.  The one exception is libcst's import-time warning about
mypy_extensions, which hypothesis triggers while it reports a failing
example."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest


@pytest.mark.parametrize(
    "category", [DeprecationWarning, PendingDeprecationWarning, FutureWarning, RuntimeWarning]
)
def test_warning_is_raised_as_an_error(category):
    with pytest.raises(category):
        warnings.warn("a warning the suite turns into an error", category)


def test_numpy_division_by_zero_is_an_error():
    with np.errstate(divide="warn"), pytest.raises(RuntimeWarning, match="divide by zero"):
        np.divide(np.ones(1), np.zeros(1))


# A failing property test and then a passing test, for a pytest session of
# their own.
FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis may import libcst to print an @example patch; if that
    # import's DeprecationWarning were an error, pytest would stop with
    # INTERNALERROR and never run the second test
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout
