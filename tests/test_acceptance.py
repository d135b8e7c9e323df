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


def test_run_all_sets_each_criterions_wall_time(monkeypatch):
    def slow():
        time.sleep(0.05)
        return selftest.CriterionResult("slow", True, {"x": 1})

    monkeypatch.setattr(selftest, "ALL_CRITERIA", (slow, lambda: selftest.CriterionResult("fast", False)))
    lines = []
    slow_result, fast_result = selftest.run_all(echo=lines.append)
    assert slow_result.wall_time >= 0.05 > fast_result.wall_time
    assert lines == ["PASS slow: x=1", "FAIL fast: "]


def test_criterion_8_raises_what_invariance_suite_raises_outside_the_library_errors(monkeypatch):
    # a degree that fails to hold is a violation; any other error is a fault
    def broken(*args, **kwargs):
        raise TypeError("invariance_suite is broken")

    monkeypatch.setattr(selftest, "invariance_suite", broken)
    with pytest.raises(TypeError, match="invariance_suite is broken"):
        selftest.criterion_8_degree()


def test_criterion_7_raises_what_stabilize_raises_outside_the_library_errors(monkeypatch):
    # a projection that does not work raises a GermforgeError and is drawn
    # again; any other error is a fault and must not be retried forever
    real = selftest.stabilize
    loop_calls = []

    def broken_once(dl, P):
        if P.shape == (4, 4):
            loop_calls.append(P)
            if len(loop_calls) == 1:
                raise TypeError("stabilize is broken")
        return real(dl, P)

    monkeypatch.setattr(selftest, "stabilize", broken_once)
    with pytest.raises(TypeError, match="stabilize is broken"):
        selftest.criterion_7_orientation()
