"""Shared fixtures plus the acceptance scoreboard printed after the run."""

import os
from pathlib import Path

import numpy as np
import pytest

ACCEPTANCE: list[tuple[int, str, bool, str]] = []


def record_acceptance(num: int, name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE.append((num, name, bool(passed), detail))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def src_env():
    """Environment for a child interpreter importing this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:02d} {status} - {name}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line, green=passed, red=not passed)
