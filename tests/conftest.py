import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collects one pass/fail line per acceptance criterion.

    The lines are echoed in a terminal section after capture ends, so
    they stay visible in plain ``pytest`` runs and teed logs.
    """

    def add(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
