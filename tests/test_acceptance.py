"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines, or
`germforge selftest` for the same battery through the CLI.  The battery runs
once per session; each criterion's test reads its result from that run.
"""

import time

import pytest

from germforge import selftest


@pytest.fixture(scope="module")
def battery():
    """(results by criterion name, wall time) of one `selftest.run_all()`."""
    t0 = time.time()
    results = selftest.run_all()
    elapsed = time.time() - t0
    return dict(zip((fn.__name__ for fn in selftest.ALL_CRITERIA), results)), elapsed


@pytest.mark.parametrize("criterion", selftest.ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, battery):
    result = battery[0][criterion.__name__]
    print(result.line())
    assert result.passed, result.line()


def test_selftest_budget(battery):
    results, elapsed = battery
    assert all(r.passed for r in results.values())
    assert elapsed < 120.0
