from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, Phase, settings

from algrest.atlas import load_atlas
from algrest.curves import MonomialCurve, cached_basis

# No shrink phase: a passing run draws the same 1000 examples either way,
# while shrinking a failure of these properties can take minutes; the
# failing example is reported as drawn.
settings.register_profile(
    "bulk",
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("bulk")


@pytest.fixture(scope="session")
def curve4567() -> MonomialCurve:
    return MonomialCurve((4, 5, 6, 7))


@pytest.fixture(scope="session")
def curve456() -> MonomialCurve:
    return MonomialCurve((4, 5, 6))


@pytest.fixture(scope="session")
def curve457() -> MonomialCurve:
    return MonomialCurve((4, 5, 7))


@pytest.fixture(scope="session")
def basis4567(curve4567):
    return cached_basis(curve4567)


@pytest.fixture(scope="session")
def basis456(curve456):
    return cached_basis(curve456)


@pytest.fixture(scope="session")
def basis457(curve457):
    return cached_basis(curve457)


@pytest.fixture(scope="session")
def atlas4567():
    return load_atlas((4, 5, 6, 7))


@pytest.fixture(scope="session")
def atlas456():
    return load_atlas((4, 5, 6))


@pytest.fixture(scope="session")
def atlas457():
    return load_atlas((4, 5, 7))


CRITERIA = {
    1: "graded bases of closed-class spaces",
    2: "lie action tables",
    3: "printed invariant columns",
    4: "symplectic realizability thresholds",
    5: "homotopy reductions",
    6: "pairwise distinctness",
    7: "atlas realization checks",
    8: "algebraic property suites",
    9: "graded dimension oracle",
}

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, set[str]] = {}
    for status, reports in terminalreporter.stats.items():
        if status not in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
            continue
        for rep in reports:
            match = _CRITERION_RE.search(getattr(rep, "nodeid", ""))
            if match is None:
                continue
            if status in ("passed", "failed") and getattr(rep, "when", "call") != "call":
                continue
            outcomes.setdefault(int(match.group(1)), set()).add(status)
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(CRITERIA):
        if number not in outcomes:
            continue
        good = outcomes[number] <= {"passed", "xfailed"}
        verdict = "PASS" if good else "FAIL"
        note = ""
        if "xfailed" in outcomes[number]:
            note = " (ledgered discrepancies expected-failed as recorded)"
        terminalreporter.write_line(
            f"  criterion {number} ({CRITERIA[number]}): {verdict}{note}"
        )
