from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import registry
from germforge import _linalg
from germforge._linalg import (CLOSED_FORM_RANGE, CLOSED_FORM_RANGE_2X2, SV_RELATIVE_CUTOFF, _newton_arrays, _step,
                              _step_1x1, det_sign, fd_jacobian, newton, rank, rank_cutoff, svd_split)
from germforge.errors import Singular


class Counted:
    """Callable wrapper that counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def smooth_map(x):
    return np.array([np.sin(x[0]) * x[1] + x[2] ** 2, np.exp(0.3 * x[0]) - x[1] * x[2]])


def test_fd_jacobian_makes_two_evaluations_per_coordinate():
    for n in (1, 3):
        f = Counted(lambda x: smooth_map(np.resize(x, 3)))
        fd_jacobian(f, np.linspace(0.2, 0.7, n))
        assert f.calls == 2 * n


def test_fd_jacobian_matches_central_difference_formula():
    x = np.array([0.3, -0.8, 1.1])
    h = 1e-6 * (1.0 + float(np.sum(np.abs(x))))
    expected = np.zeros((2, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        expected[:, j] = (smooth_map(x + e) - smooth_map(x - e)) / (2.0 * h)
    assert np.array_equal(fd_jacobian(smooth_map, x), expected)


def test_fd_jacobian_of_empty_point_is_sized_by_one_evaluation():
    f = Counted(lambda x: np.ones(2))
    J = fd_jacobian(f, np.zeros(0))
    assert J.shape == (2, 0)
    assert f.calls == 1


def test_newton_converges_on_square_system():
    x, res, converged = newton(lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]]),
                               np.array([1.0, 0.5]))
    assert converged
    assert res <= 1e-13
    assert np.allclose(x, np.full(2, np.sqrt(0.5)), atol=1e-12)


def test_newton_reports_a_stall_without_raising():
    # x^2 + 1 has no real zero; Gauss-Newton stalls at the minimum x = 0
    f = lambda x: np.array([x[0] ** 2 + 1.0])
    x, res, converged = newton(f, np.array([0.5]))
    assert not converged
    assert res == float(np.max(np.abs(f(x))))
    assert res >= 1.0


def test_newton_reports_a_failed_linear_solve_without_raising():
    # NaN Jacobian entries: the step is never solved for
    f = lambda x: np.array([1.0 if x[0] == 0.5 else np.nan])
    x, res, converged = newton(f, np.array([0.5]))
    assert not converged
    assert res == 1.0
    assert np.array_equal(x, [0.5])


def test_newton_stops_before_solving_with_a_non_finite_jacobian(capfd):
    # the section is inf just past a domain edge at x = 1, inside the FD stencil
    f = lambda x: np.where(x < 1.0, x - 2.0, np.inf)
    x, res, converged = newton(f, np.array([1.0 - 1e-6]))
    assert not converged
    assert np.array_equal(x, [1.0 - 1e-6])
    assert res == float(np.max(np.abs(f(x))))
    # LAPACK reports the illegal value by printing, not by raising
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_stops_at_a_non_finite_residual_before_the_jacobian():
    # off the domain on both sides of the start: a Jacobian would take inf - inf
    f = Counted(lambda x: np.array([np.inf]))
    x, res, converged = newton(f, np.array([0.0]))
    assert (x.tolist(), res, converged) == ([0.0], np.inf, False)
    assert f.calls == 1


def test_newton_takes_least_squares_steps_on_non_square_systems():
    # underdetermined and linear: one minimum-norm step lands on the zero
    x, res, converged = newton(lambda x: np.array([x[0] + x[1] + x[2] - 1.0, x[0] - x[1]]), np.zeros(3))
    assert converged
    assert np.allclose(x, np.full(3, 1.0 / 3.0), atol=1e-12)
    # the rotating-line filled section, a 3 -> 2 map
    fs = registry.rotating_line_filled_section()
    x, res, converged = newton(fs.evaluate_flat, np.array([0.2, 1.0, 0.3]))
    assert converged
    assert res <= 1e-13
    v, e = x[:1], x[1:]
    assert np.max(np.abs(fs.model.projection(v) @ e - e)) < 1e-9


def test_newton_returns_empty_point_at_once():
    f = Counted(lambda x: np.ones(1))
    x, res, converged = newton(f, np.zeros(0))
    assert x.shape == (0,)
    assert (res, converged) == (0.0, True)
    assert f.calls == 0


def test_svd_split_of_an_empty_operator_returns_orthonormal_bases():
    # a map from R^0 to R^2: no kernel, the whole target as cokernel
    rank, kernel, coker, sigma = svd_split(np.zeros((2, 0)))
    assert rank == 0 and kernel.shape == (0, 0) and sigma.size == 0
    assert np.array_equal(coker, np.eye(2))
    # a map from R^3 to R^0: the whole source as kernel, no cokernel
    rank, kernel, coker, sigma = svd_split(np.zeros((0, 3)))
    assert rank == 0 and coker.shape == (0, 0)
    assert np.array_equal(kernel, np.eye(3))


def test_determinant_line_of_a_map_from_r0_has_an_orthonormal_cokernel():
    from germforge.orientation import determinant_line

    dl = determinant_line(np.zeros((2, 0)))
    assert dl.kernel_dim == 0 and dl.cokernel_dim == 2
    assert np.allclose(dl.cokernel_basis.T @ dl.cokernel_basis, np.eye(2))


# ------------------------------------------------- the plain-formula oracles

def fd_jacobian_oracle(f, x):
    """fd_jacobian as first written: one zeros_like step vector per column
    and a column_stack."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros((np.atleast_1d(np.asarray(f(x), dtype=float)).size, 0))
    h = 1e-6 * (1.0 + float(np.sum(np.abs(x))))
    columns = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = np.atleast_1d(np.asarray(f(x + e), dtype=float))
        fm = np.atleast_1d(np.asarray(f(x - e), dtype=float))
        columns.append((fp - fm) / (2.0 * h))
    return np.column_stack(columns)


def cramer_oracle(J, f):
    """-J^-1 f by Cramer's rule for a 2x2 J whose entries and f lie in
    [1e-100, 1e100] in absolute value at their largest and whose |det J| is
    at least 1e-12 max|J|^2, else None."""
    if J.shape != (2, 2) or not (np.isfinite(J).all() and np.isfinite(f).all()):
        return None
    size, fsize = np.max(np.abs(J)), np.max(np.abs(f))
    if not (1e-100 <= size <= 1e100 and 1e-100 <= fsize <= 1e100):
        return None
    with np.errstate(under="ignore"):
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-12 * size ** 2:
            return None
        return np.array([J[0, 1] * f[1] - J[1, 1] * f[0], J[1, 0] * f[0] - J[0, 0] * f[1]]) / det


def newton_oracle(func, x0, tol=1e-13, max_iter=80, stop=None):
    """newton as first written, with np.linalg.norm and np.max, and with
    the 2x2 steps inside the closed form's range by `cramer_oracle`."""
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return x, 0.0, True
    fx = np.atleast_1d(func(x))
    best = float(np.linalg.norm(fx))
    for _ in range(max_iter):
        res = float(np.max(np.abs(fx)))
        if res <= tol:
            return x, res, True
        if not res < np.inf:
            return x, res, False
        J = fd_jacobian_oracle(func, x)
        if not np.isfinite(J).all():
            return x, res, False
        step = cramer_oracle(J, fx)
        try:
            if step is None:
                step = np.linalg.lstsq(J, -fx, rcond=None)[0]
        except np.linalg.LinAlgError:
            return x, res, False
        lam = 1.0
        while lam > 1e-8:
            trial = x + lam * step
            ft = np.atleast_1d(func(trial))
            if float(np.linalg.norm(ft)) < best:
                x, fx, best = trial, ft, float(np.linalg.norm(ft))
                break
            lam *= 0.5
        else:
            return x, res, False
        if stop is not None and stop(x):
            return x, float(np.max(np.abs(fx))), False
    res = float(np.max(np.abs(fx)))
    return x, res, res <= tol


coordinate = st.one_of(st.just(0.0), st.just(-0.0), st.just(np.inf),
                       st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False))


@st.composite
def sections(draw):
    """(f, x0): a smooth map R^n -> R^m, n, m <= 3, with a polynomial and a
    sine part, that may be inf or NaN past a cut in its first coordinate, at
    a start with entries that may be -0.0 or inf (an infinite FD step)."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    A = np.array(draw(st.lists(coeffs, min_size=3 * m * 3, max_size=3 * m * 3))).reshape(3, m, 3)
    b = np.array(draw(st.lists(coeffs, min_size=m, max_size=m)))
    cut = draw(st.one_of(st.none(), st.floats(-1.0, 1.0)))
    bad = draw(st.sampled_from([np.inf, -np.inf, np.nan]))

    def f(x):
        y = np.resize(np.append(x, 0.0), 3)
        val = A[0] @ y + A[1] @ y ** 2 + A[2] @ np.sin(y) + b
        if cut is not None and n and x[0] > cut:
            val = np.full(m, bad)
        return val

    return f, np.array(draw(st.lists(coordinate, min_size=n, max_size=n)), dtype=float)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(sections())
def test_fd_jacobian_returns_the_bits_of_the_plain_formula(case):
    f, x = case
    with np.errstate(all="ignore"):     # inf - inf past the cut: a NaN either way
        assert same_bits(fd_jacobian(f, x), fd_jacobian_oracle(f, x))


@settings(max_examples=300, deadline=None)
@given(sections(), st.one_of(st.none(), st.floats(-1.5, 1.5)))
def test_newton_returns_the_bits_of_the_plain_formula(case, stop_at):
    f, x0 = case
    stop = None if stop_at is None else (lambda x: bool(x.size and x[0] > stop_at))
    with np.errstate(all="ignore"):
        x, res, ok = newton(f, x0, stop=stop)
        xo, reso, oko = newton_oracle(f, x0, stop=stop)
    assert same_bits(x, xo) and same_bits(np.float64(res), np.float64(reso)) and ok == oko


def test_fd_jacobian_steps_keep_the_sign_of_a_negative_zero():
    # x + 0.0 turns -0.0 into +0.0 and x - 0.0 keeps it: a section that
    # reads the sign (copysign) sees the same inputs as from zeros_like steps
    f = lambda x: np.copysign(1.0, x) + x
    x = np.array([-0.0, 0.5, -0.0])
    assert same_bits(fd_jacobian(f, x), fd_jacobian_oracle(f, x))


# ------------------------------------------- the 1-D Newton loop on floats

def logged(f, log):
    """f, appending (dtype, shape, bytes) of each point it is called at to log."""
    def g(x):
        log.append((x.dtype.str, x.shape, x.tobytes()))
        return f(x)
    return g


def assert_1d_loop_is_the_array_loops(f, x0, tol=1e-13, max_iter=80, stop_at=None):
    """newton and `_newton_arrays` on f from x0: the same bits of x and res,
    the same flag, and the same points passed to f and to stop, in order."""
    runs = []
    for loop in ("newton", "arrays"):
        log = []
        g = logged(f, log)
        stop = None if stop_at is None else logged(lambda x: bool(x[0] > stop_at), log)
        with np.errstate(all="ignore"):
            if loop == "newton":
                out = newton(g, x0, tol, max_iter, stop)
            else:
                x = np.asarray(x0, dtype=float).copy()
                out = _newton_arrays(g, x, np.atleast_1d(g(x)), tol, max_iter, stop)
        runs.append((out, log))
    ((x, res, ok), log), ((xa, resa, oka), loga) = runs
    assert same_bits(x, xa) and same_bits(np.float64(res), np.float64(resa)) and ok == oka
    assert type(res) is float and type(ok) is bool
    assert log == loga


@st.composite
def maps_1d(draw):
    """(f, x0, tol, max_iter, stop_at): a map R -> R, a polynomial of degree
    <= 4 plus a sine term or not, times 10^k with k = 0 or |k| <= 320 (so
    that |f| and |J| leave CLOSED_FORM_RANGE and lstsq steps), inf or NaN
    off an interval or not, valued as a float64 or float32 array or as a
    float; tol 1e-13 or 0, max_iter 1 to 80 and a stop threshold or none."""
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    poly = draw(st.lists(coeffs, min_size=1, max_size=5))
    wave = draw(st.one_of(st.just(0.0), coeffs))
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-320, 300)))
    interval = draw(st.one_of(st.none(), st.tuples(st.floats(-2.0, 0.5), st.floats(0.0, 2.0))))
    bad = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    kind = draw(st.sampled_from(["float64", "float32", "float"]))

    def f(x):
        val = scale * (np.polyval(poly, x) + wave * np.sin(x))
        if interval is not None and not interval[0] <= x[0] <= interval[1]:
            val = np.full(1, bad)
        return val.astype(np.float32) if kind == "float32" else float(val[0]) if kind == "float" else val

    x0 = np.array([draw(coordinate)])
    return (f, x0, draw(st.sampled_from([1e-13, 0.0])), draw(st.integers(1, 80)),
            draw(st.one_of(st.none(), st.floats(-1.5, 1.5))))


@settings(max_examples=400, deadline=None)
@given(maps_1d())
def test_a_1d_newton_solve_has_the_bits_and_evaluations_of_the_array_loop(case):
    assert_1d_loop_is_the_array_loops(*case)


@pytest.mark.parametrize("f, x0, tol, max_iter, stop_at", [
    (lambda x: x ** 3 - 2.0, 1.0, 1e-13, 80, None),                     # converges
    (lambda x: x ** 2 + 1.0, 0.5, 1e-13, 80, None),                     # stalls at x = 0
    (lambda x: np.ones(1), 0.3, 1e-13, 80, None),                       # J = 0: lstsq, halving to 1e-8
    (lambda x: 1e-300 * (x - 0.3), 1.0, 0.0, 80, None),                 # |f|, |J| below the range: lstsq
    (lambda x: 1e280 * (x - 0.3), 1.0, 1e-13, 80, None),                # above it
    (lambda x: np.where(np.abs(x) < 1.0, x - 2.0, np.inf), 0.5, 1e-13, 80, None),   # inf off (-1, 1)
    (lambda x: np.where(x < 1.0, x - 2.0, np.nan), 1.0 - 1e-6, 1e-13, 80, None),    # NaN in the FD stencil
    (lambda x: x ** 3 - 2.0, 1.0, 1e-13, 2, None),                      # max_iter runs out
    (lambda x: x ** 3 - 2.0, 0.0, 1e-13, 80, 1.1),                      # stop holds on an iterate
    (lambda x: (x ** 3 - 2.0).astype(np.float32), 1.0, 1e-13, 80, None),    # float32 values
    (lambda x: (1e25 * (x - 0.3)).astype(np.float32), 1.0, 1e-13, 80, None),   # their squares overflow: a stall
    (lambda x: float(x[0] ** 3 - 2.0), -0.0, 1e-13, 80, None),          # float values from -0.0
])
def test_a_1d_newton_solve_has_the_bits_of_the_array_loop_on_each_branch(f, x0, tol, max_iter, stop_at, monkeypatch):
    # neither loop hands lstsq a non-finite J, which LAPACK reports by printing
    lstsq = np.linalg.lstsq

    def finite_lstsq(A, b, rcond=None):
        assert np.isfinite(A).all(), "lstsq called with a non-finite J"
        return lstsq(A, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", finite_lstsq)
    assert_1d_loop_is_the_array_loops(f, np.array([x0]), tol, max_iter, stop_at)


def test_a_1d_newton_solve_calls_neither_fd_jacobian_nor_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("array path taken")

    monkeypatch.setattr(_linalg, "fd_jacobian", refuse)
    monkeypatch.setattr(_linalg, "_step", refuse)
    x, res, converged = newton(lambda x: x ** 3 - 2.0, np.array([1.0]))
    assert converged and res <= 1e-13 and x.shape == (1,) and x.dtype == np.float64
    with pytest.raises(AssertionError, match="array path"):
        newton(lambda x: np.array([x[0] - 1.0, x[1]]), np.zeros(2))


# ------------------------------------------- the closed-form 1x1 Newton step

def log_uniform(rng, count, exponent=300):
    """count values of both signs with |value| log-uniform over 1e+-exponent."""
    return rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-exponent, exponent, count)


def edge_values():
    """+-0, subnormals, the extremes of float64 and the values on and next
    to the edges of the closed-form range, with both signs."""
    lo, hi = CLOSED_FORM_RANGE
    edges = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-290, 1e290, np.finfo(float).max]
    for edge in (lo, hi):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    return [sign * v for v in edges for sign in (1.0, -1.0)]


def assert_step_is_lstsqs(J, f):
    with np.errstate(over="ignore", under="ignore"):
        step = _step_1x1(float(J), float(f))
    assert same_bits(np.float64(step), np.linalg.lstsq(np.array([[J]]), -np.array([f]), rcond=None)[0][0]), (J, f)


def test_a_1x1_step_returns_the_bits_of_lstsq():
    rng = np.random.default_rng(23)
    for J, f in zip(log_uniform(rng, 20000), log_uniform(rng, 20000)):
        assert_step_is_lstsqs(J, f)


def test_a_1x1_step_at_zero_subnormal_and_edge_values_returns_the_bits_of_lstsq():
    rng = np.random.default_rng(24)
    edges = edge_values()
    for J in edges:
        for f in edges + list(log_uniform(rng, 8)):
            assert_step_is_lstsqs(J, f)
        for f in log_uniform(rng, 8):
            assert_step_is_lstsqs(f, J)


def test_the_closed_forms_cover_the_1x1_and_2x2_steps_inside_their_ranges(monkeypatch):
    # inside the ranges lstsq is never called; outside them, for a 2x2 J
    # near singular, with a non-finite entry, and for other shapes, it is
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda A, b, rcond=None: calls.append(A.shape) or (np.zeros(A.shape[1]),))
    lo, hi = CLOSED_FORM_RANGE
    for J, f in [(lo, 1.0), (-hi, 2.0), (3.0, -lo), (0.5, hi)]:
        _step_1x1(J, f)
    lo2, hi2 = CLOSED_FORM_RANGE_2X2
    for J, f in [(np.eye(2), [1.0, 1.0]), ([[lo2, 0.0], [0.0, -lo2]], [hi2, -lo2]),
                 ([[hi2, 1.0], [2.0, -hi2]], [lo2, 0.0]), ([[1.0, 2.0], [3.0, 4.0]], [-0.5, 2.0]),
                 ([[1.0, 1.0], [1.0, 1.0 + 1e-11]], [1.0, 0.0])]:
        _step(np.array(J), np.array(f))
    assert calls == []
    for J, f in [(0.0, 1.0), (-0.0, 1.0), (np.nextafter(lo, 0.0), 1.0), (1.0, np.nextafter(hi, np.inf))]:
        _step_1x1(J, f)
    below, above = np.nextafter(lo2, 0.0), np.nextafter(hi2, np.inf)
    for J, f in [([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 0.0]), ([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0]),
                 ([[below, 0.0], [0.0, below]], [1.0, 1.0]), ([[above, 0.0], [0.0, 1.0]], [1.0, 1.0]),
                 (np.eye(2), [below, -below]), (np.eye(2), [1.0, above]), (np.eye(2), [0.0, 0.0]),
                 ([[1.0, 0.0], [0.0, np.nan]], [1.0, 1.0]), ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
                 (np.eye(2), [1.0, np.nan]), (np.eye(2), [np.nan, 1.0]), (np.eye(2), [-np.inf, 1.0])]:
        _step(np.array(J), np.array(f))
    _step(np.eye(3), np.ones(3))
    _step(np.ones((1, 2)), np.ones(1))
    assert calls == [(1, 1)] * 4 + [(2, 2)] * 12 + [(3, 3), (1, 2)]


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def scaled_norm(v) -> float:
    """The 2-norm of v without overflow or underflow in the squares."""
    m = float(np.max(np.abs(v)))
    return 0.0 if m == 0.0 else m * float(np.sqrt(np.sum((v / m) ** 2)))


def exact_step(J, f):
    """-J^-1 f of a 2x2 J in rational arithmetic, rounded once to float64."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in J.tolist()]
    f0, f1 = (Fraction(v) for v in f.tolist())
    det = a * d - b * c
    return np.array([float((b * f1 - d * f0) / det), float((c * f0 - a * f1) / det)])


def test_a_2x2_step_is_within_cond_eps_of_lstsq_and_of_the_exact_step():
    # half the J are R(t) diag(s, s / k) R(u) with k log-uniform up to 1e13,
    # half have log-uniform entries of both signs; f is log-uniform.  Both
    # reach past the closed form's range, where the step must be lstsq's.
    # lstsq's own error reaches about 23 cond(J) eps |s| on these draws;
    # Cramer's rule stays within 1.1 cond(J) eps |s| of the exact step
    rng = np.random.default_rng(25)
    count = 10000
    spectral = [rng.choice([-1.0, 1.0]) * rotation(rng.uniform(0, 2 * np.pi))
                @ np.diag([1.0, 10.0 ** -rng.uniform(0, 13)]) @ rotation(rng.uniform(0, 2 * np.pi))
                * 10.0 ** rng.uniform(-120, 120) for _ in range(count)]
    entrywise = log_uniform(rng, 4 * count, exponent=200).reshape(count, 2, 2)
    Js = np.concatenate([spectral, entrywise])
    fs = log_uniform(rng, 4 * count, exponent=120).reshape(2 * count, 2)
    eps, closed = np.finfo(float).eps, 0
    with np.errstate(under="ignore"):
        conds = np.linalg.cond(Js)
    for J, f, cond in zip(Js, fs, conds):
        step, lstsq = _step(J, f), np.linalg.lstsq(J, -f, rcond=None)[0]
        if cramer_oracle(J, f) is None:
            assert same_bits(step, lstsq), (J, f)
            continue
        closed += 1
        assert scaled_norm(step - lstsq) <= 64 * cond * eps * scaled_norm(lstsq), (J, f)
        exact = exact_step(J, f)
        assert scaled_norm(step - exact) <= 2 * cond * eps * scaled_norm(exact), (J, f)
    assert closed >= count // 2


def test_rank_cutoff_is_the_inline_formula():
    # the formula each rank test used to write out, on random spectra, on
    # spectra below 1 and on an empty one
    rng = np.random.default_rng(24)
    spectra = [np.sort(rng.uniform(0, 10 ** rng.uniform(-3, 3), size=rng.integers(1, 6)))[::-1] for _ in range(200)]
    spectra += [np.array([0.5, 1e-9]), np.array([0.999999]), np.array([0.0]), np.zeros(0)]
    for sv in spectra:
        assert rank_cutoff(sv) == SV_RELATIVE_CUTOFF * max(sv[0] if sv.size else 0.0, 1.0)
    assert rank_cutoff(np.zeros(0)) == rank_cutoff(np.array([0.3])) == SV_RELATIVE_CUTOFF


def test_rank_is_svd_splits_rank_without_the_singular_vectors():
    rng = np.random.default_rng(30)
    for _ in range(300):
        m, n, r = (int(v) for v in rng.integers(0, 5, size=3))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) * 10.0 ** rng.uniform(-3, 3)
        assert rank(A) == svd_split(A)[0]
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert rank(np.zeros(shape)) == 0


def test_rank_counts_only_the_singular_values_above_rank_cutoff():
    # the cutoff is 1e-8 max(sigma_1, 1): a singular value at it does not count
    assert rank(np.diag([1.0, 1e-8])) == 1
    assert rank(np.diag([1.0, 1.1e-8])) == 2
    assert rank(np.diag([1e3, 1e-5])) == 1
    assert rank(np.diag([0.5, 1e-8])) == 1


def test_det_sign_is_the_sign_of_det_on_well_conditioned_matrices():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        U, V = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
        M = U @ np.diag(rng.uniform(0.1, 10.0, size=n)) @ V      # condition number at most 100
        M *= 10.0 ** rng.uniform(-3, 3)
        assert det_sign(M) == np.sign(np.linalg.det(M))


@pytest.mark.parametrize("M", [
    np.zeros((1, 1)),
    np.diag([1.0, 1e-8]),               # det 1e-8 > 0, but rank 1 at the cutoff 1e-8
    np.diag([1e3, -1e-5]),              # the cutoff is 1e-8 * 1e3
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.diag([0.0, 1.0, 1.0]),
], ids=["zero", "at-cutoff", "at-scaled-cutoff", "dependent-rows", "zero-pivot"])
def test_det_sign_raises_singular_at_rank_cutoff(M):
    with pytest.raises(Singular):
        det_sign(M)


def test_det_sign_just_above_the_cutoff_and_on_r0():
    assert det_sign(np.diag([1.0, 1.1e-8])) == 1
    assert det_sign(np.diag([1e3, -1.1e-5])) == -1
    assert det_sign(np.zeros((0, 0))) == 1
