"""Runs the suite on one BLAS thread, as the ``entlab`` command and the
benchmark do, and prints a one-line verdict and the wall time of each
acceptance criterion after the run, then the summed wall time of each other
test file and their total."""

import os

import pytest

import entlab

# before any test module imports numpy; a value the caller set is kept
for _var in entlab.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

_acceptance_results = {}
# summed setup, call and teardown time of each other test file
_unit_seconds = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    path = item.nodeid.split("::")[0]
    if "test_acceptance" not in path:
        _unit_seconds[path] = _unit_seconds.get(path, 0.0) + report.duration
    elif report.when == "call" and "criterion" in item.name:
        _acceptance_results[item.name] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_results:
        terminalreporter.write_sep("-", "acceptance criteria")
        threads = (f"{k}={os.environ.get(k, 'unset')}" for k in entlab.BLAS_THREAD_VARS)
        terminalreporter.write_line("blas_threads " + " ".join(threads))
        for name in sorted(_acceptance_results):
            outcome, seconds = _acceptance_results[name]
            verdict = "PASS" if outcome == "passed" else "FAIL"
            terminalreporter.write_line(f"{verdict} {name} {seconds:.1f} s")
    if _unit_seconds:
        terminalreporter.write_sep("-", "unit-test files")
        for path in sorted(_unit_seconds):
            terminalreporter.write_line(f"{path} {_unit_seconds[path]:.1f} s")
        terminalreporter.write_line(f"total {sum(_unit_seconds.values()):.1f} s")
