"""The suite runs with pyproject.toml's ``filterwarnings``, which turns these
warnings into errors: a numpy deprecation fails a test before the release
that acts on it can change a bit, and a floating-point warning numpy
reports outside an ``np.errstate(... = "raise")`` fails the test it
happens in."""

import warnings

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
