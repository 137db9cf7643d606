import numpy as np
import pytest

from l1risk import experiments
from l1risk.risk import Dataset

# one PASS/FAIL line per acceptance criterion, echoed after the test results
# (capture would otherwise swallow the lines of passing tests)
VERDICTS = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)

# 4x3 sign-pattern design with (1/n) X'X = I: per-column least squares is
# exact (ols = (3, 2, 1)) and every penalized/constrained optimum has a
# closed form, which makes this the hand-checkable instance used throughout.
H_COLUMNS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])
H_TARGET = np.array([3.0, 2.0, 1.0])


@pytest.fixture
def openblas_at_two_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to two for
    the test; skips without a bundled OpenBLAS."""
    api = experiments._openblas()
    if api is None:
        pytest.skip("numpy does not use a bundled OpenBLAS")
    get, set_ = api
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


@pytest.fixture
def hadamard() -> Dataset:
    """y = 3*col1 + 2*col2 + 1*col3 exactly."""
    return Dataset(H_COLUMNS, H_COLUMNS @ H_TARGET)
