"""Shared pytest hooks: echo acceptance verdicts after the run summary, and
draw the same property-test examples on every run."""

from hypothesis import settings

# derandomize seeds each property test from its own source (and implies no
# example database), so a run replays the previous run's draws exactly
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
