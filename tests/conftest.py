"""Prints a one-line verdict and the wall time of each acceptance criterion
after the run."""

import pytest

_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if "test_acceptance" in item.nodeid and "criterion" in item.name:
        _acceptance_results[item.name] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome, seconds = _acceptance_results[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {name} {seconds:.1f} s")
