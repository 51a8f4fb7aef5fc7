"""Shared test plumbing: the acceptance scorecard and child interpreters.

Acceptance tests register one line per criterion; the terminal-summary hook
prints them after the run, so the scorecard shows regardless of pytest's
output capturing.
"""

import os
from pathlib import Path

ACCEPTANCE_LINES: list[str] = []


def child_env() -> dict:
    """Environment for a fresh interpreter that imports the fracheat under
    test, also when pytest's pythonpath setting (not the environment) put it
    on sys.path."""
    import fracheat

    src = str(Path(fracheat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
