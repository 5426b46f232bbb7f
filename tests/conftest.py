"""Fixtures shared across the suite, plus the acceptance-line reporter."""

from __future__ import annotations

import os
import tempfile

import pytest

from partialreg import Dataset


def pytest_configure(config):
    # Hypothesis caches constants it reads from local modules in its storage
    # directory, even with ``database=None``: ``.hypothesis/`` under the
    # working directory unless this says otherwise.  Keep the tree clean.
    os.environ.setdefault(
        "HYPOTHESIS_STORAGE_DIRECTORY",
        os.path.join(tempfile.gettempdir(), "partialreg-hypothesis"))


# Canonical small dataset used by the frozen-value tests: integer entries,
# correlated predictors, exact rational oracle results throughout.
D1_X1 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
D1_X2 = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]
D1_X3 = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
D1_Y = [2.0, 4.0, 5.0, 7.0, 8.0, 11.0]


@pytest.fixture()
def d1() -> Dataset:
    return Dataset({"X1": D1_X1, "X2": D1_X2, "Y": D1_Y})


@pytest.fixture()
def d1_extended() -> Dataset:
    return Dataset({"X1": D1_X1, "X2": D1_X2, "X3": D1_X3, "Y": D1_Y})


# Paradox fixtures: datasets where naive simple-slope reading misleads.
# In `amplified_slope_data` controlling for X2 amplifies the X1 slope
# (b1 > a1); in `sign_flip_data` X2 looks helpful alone (a2 > 0) but gets
# a negative multiple-regression slope (b2 < 0).
@pytest.fixture()
def amplified_slope_data() -> Dataset:
    return Dataset({
        "X1": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "X2": [1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0, 8.0],
        "Y": [2.0, 1.0, 6.0, 3.0, 9.0, 5.0, 12.0, 9.0],
    })


@pytest.fixture()
def sign_flip_data() -> Dataset:
    return Dataset({
        "X1": [2.0, 4.0, 5.0, 7.0, 9.0, 11.0, 12.0, 14.0],
        "X2": [1.0, 2.0, 3.0, 3.0, 5.0, 5.0, 6.0, 7.0],
        "Y": [5.0, 8.0, 9.0, 13.0, 15.0, 19.0, 20.0, 23.0],
    })


# ---------------------------------------------------------------------------
# acceptance reporting: one printed line per criterion at session end

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture()
def acceptance():
    """Record one pass/fail line for an acceptance criterion, then assert it.

    Usage: ``acceptance(3, "description", ok, detail="...")``.
    """

    def record(number: int, description: str, passed: bool,
               detail: str = "") -> None:
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        _ACCEPTANCE_LINES.append(
            (number, f"criterion {number:2d} {verdict}: "
                     f"{description}{suffix}"))
        assert passed, f"acceptance criterion {number}: {description}{suffix}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
