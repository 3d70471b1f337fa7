"""Shared pytest wiring: the acceptance gate reports one line per criterion,
and `grid_scans` records every scan of a volume for its positives.

Lines are collected as the criteria run and re-emitted in the terminal
summary, so they are visible even under captured output.
"""

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def grid_scans(monkeypatch):
    """The shapes of the volumes scanned for their positives while the test
    runs: every 3-D array `np.flatnonzero` is called on, in order."""
    scans = []
    flatnonzero = np.flatnonzero

    def recorded(a):
        if np.ndim(a) == 3:
            scans.append(np.shape(a))
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", recorded)
    return scans
