import sys

import pytest


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """A directory for the generated CSV files of one test module."""
    return tmp_path_factory.mktemp("csv")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the acceptance pass/fail lines even when stdout is captured
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
