"""Runs the suite on one BLAS thread, as the ``entlab`` command and the
benchmark do, and prints a one-line verdict and the wall time of each
acceptance criterion after the run."""

import os

import pytest

import entlab

# before any test module imports numpy; a value the caller set is kept
for _var in entlab.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

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
    threads = (f"{k}={os.environ.get(k, 'unset')}" for k in entlab.BLAS_THREAD_VARS)
    terminalreporter.write_line("blas_threads " + " ".join(threads))
    for name in sorted(_acceptance_results):
        outcome, seconds = _acceptance_results[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {name} {seconds:.1f} s")
