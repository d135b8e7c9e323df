"""The numpy NNLS and least-distance solvers of `cones` against scipy.optimize,
which the tests keep as their oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog
from scipy.optimize import nnls as scipy_nnls

from germforge import cones
from germforge.cones import LP_TOL, linprog, nnls
from germforge.errors import Inconclusive

SOLVER_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def nnls_problems(draw):
    """A (up to 6 x 8) and b with small integer entries; some columns of A
    are zero, copies of another column or sums of two others."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    entries = st.integers(-4, 4)
    A = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    for j in range(n):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy", "sum"]))
        if kind == "zero":
            A[:, j] = 0.0
        elif kind == "copy" and j:
            A[:, j] = A[:, draw(st.integers(0, j - 1))]
        elif kind == "sum" and j >= 2:
            A[:, j] = A[:, draw(st.integers(0, j - 1))] + A[:, draw(st.integers(0, j - 1))]
    b = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=float)
    return A, b


@SOLVER_SETTINGS
@given(nnls_problems())
def test_nnls_matches_scipy_and_meets_the_kkt_conditions(problem):
    A, b = problem
    x, res = nnls(A, b)
    # scipy's nnls aborts the interpreter on a matrix without columns
    want = scipy_nnls(A, b)[1] if A.shape[1] else np.linalg.norm(b)
    scale = np.linalg.norm(b)
    assert abs(res - want) <= 1e-12 * scale
    assert abs(res - np.linalg.norm(A @ x - b)) <= 1e-12 * scale
    assert x.shape == (A.shape[1],) and np.all(x >= 0.0)
    # KKT: the gradient A^T (b - A x) is <= 0, and 0 wherever x > 0
    w = A.T @ (b - A @ x)
    tol = 1e-10 * np.linalg.norm(A, 1) * (np.abs(b).sum() + np.linalg.norm(A, 1) * x.sum())
    assert np.all(w <= tol)
    assert np.all(np.abs(w[x > 0]) <= tol)


def test_nnls_without_columns_returns_the_norm_of_b():
    x, res = nnls(np.zeros((3, 0)), np.array([3.0, 0.0, 4.0]))
    assert x.shape == (0,) and res == 5.0


@pytest.mark.parametrize("A, b", [(np.eye(2), [np.nan, 1.0]), ([[1.0, np.inf]], [1.0])])
def test_nnls_refuses_non_finite_input(A, b):
    with pytest.raises(ValueError):
        nnls(A, b)


def test_nnls_raises_inconclusive_at_its_iteration_cap(monkeypatch):
    # a least-squares step that always turns negative drops the entering
    # column again, so the outer loop cycles until its cap of 3n
    monkeypatch.setattr(np.linalg, "lstsq", lambda A, b, rcond=None: (-np.ones(A.shape[1]),))
    with pytest.raises(Inconclusive):
        nnls(np.eye(2), np.ones(2))


def has_interior_by_scipy(G):
    """The LP that `cones` solved with scipy: maximize t subject to G y >= t,
    t <= 1, |y_j| <= 100; an interior exists iff t > 1e-10."""
    n, d = G.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = scipy_linprog(c, A_ub=np.hstack([-G, np.ones((n, 1))]), b_ub=np.zeros(n),
                        bounds=[(-100.0, 100.0)] * d + [(None, 1.0)], method="highs")
    return bool(res.success and res.x[-1] > 1e-10)


@SOLVER_SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 4).flatmap(lambda d: st.lists(
    st.integers(-3, 3), min_size=n * d, max_size=n * d).map(lambda v: np.array(v, dtype=float).reshape(n, d)))))
def test_linprog_finds_an_interior_exactly_when_scipy_does(G):
    y = linprog(G)
    assert (y is not None) == has_interior_by_scipy(G)
    if y is not None:
        assert np.all(G @ y >= 1.0 - 1e-9)


@pytest.mark.parametrize("G", [
    np.array([[1.0, 1.0], [-1.0, -1.0]]),               # a line: G y >= 0 is a hyperplane
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),    # a half-plane of that hyperplane
    np.array([[0.0, 0.0], [1.0, 0.0]]),                  # a zero row
])
def test_linprog_refuses_a_cone_with_empty_interior(G):
    assert linprog(G) is None


def thin_cone(depth):
    """{y : depth y_1 >= |y_2|}: no unit direction clears both facets by more than depth."""
    return np.array([[depth, 1.0], [depth, -1.0]])


@pytest.mark.parametrize("depth", [1e-12, 1e-11])
def test_linprog_refuses_a_cone_thinner_than_the_cutoff(depth):
    assert depth < LP_TOL
    assert linprog(thin_cone(depth)) is None
    assert linprog(1e6 * thin_cone(depth)) is None


@pytest.mark.parametrize("depth", [1e-9, 1e-6, 0.5])
def test_linprog_solves_a_thin_cone_above_the_cutoff(depth):
    # the quotient -r[:d] / r[d] misses G y >= 1 by hundreds at depth 1e-9
    G = thin_cone(depth)
    y = linprog(G)
    assert np.all(G @ y >= 1.0 - 1e-6)
    assert np.allclose(y, [1.0 / depth, 0.0], rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(linprog(1e6 * G), y / 1e6, rtol=1e-9, atol=1e-12)


def test_interior_point_is_normalized_to_margin_one():
    N = cones.SubspaceInQuadrant(
        ambient=cones.GradedSpace(dim=3, levels=2, weights=np.ones(3), quadrant_rank=3),
        basis=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    y = cones._interior_point(N)
    assert np.min(N.constraint_matrix() @ y) == pytest.approx(1.0, rel=1e-12)
