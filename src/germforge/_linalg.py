"""Small dense linear-algebra helpers: `rank_cutoff`, the one rank rule (every
rank, surjectivity and singularity test in the library counts the singular
values above it with `sv_rank`, through `rank`, `svd_split` or directly),
`det_sign`, the one rule for the sign of a determinant, SVD rank splits, FD
Jacobians and `newton`, the one damped Gauss-Newton solver behind chart
values and polished degree zeros.

The systems are tiny (1x1 to 3x3 steps), so the cost of `fd_jacobian` and
`newton` is numpy call overhead, not arithmetic: they make as few numpy
calls as they can while returning the bits of the plain formulas (steps
x +- h e_j, columns (f(x + h e_j) - f(x - h e_j)) / 2h, the 2-norm as
sqrt(f . f), which is what `np.linalg.norm` computes for a real vector).
A 1-D solve (x of shape (1,) and one equation: each chart point of a
hypersurface, each 1-D zero search) runs on Python floats (`_newton_1d`),
building one array per evaluation, for func's argument, and no other; its
step is `_step_1x1`, -f * (1 / J), what LAPACK returns bit for bit inside
the one 1x1 range CLOSED_FORM_RANGE, which `solution._complement_inverse`
reads too.  Every other solve runs on arrays (`_newton_arrays`), where a
well-conditioned 2x2 step is Cramer's rule, within a small multiple of
cond(J) eps of lstsq's solution (see `_step`).  Both loops take the FD
step h from `_fd_step`."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSplitting, Singular

SV_RELATIVE_CUTOFF = 1e-8
RANK_BAND_FACTOR = 10.0
# |J| and |f| of a 1x1 step, and |a| of a 1x1 chart inverse, inside which each
# is a reciprocal with LAPACK's bits: dgesdd (svd) rescales above about
# 1.68e138, dgelsd (lstsq) beyond about 1e-290 or 1e290
CLOSED_FORM_RANGE = (1e-250, 1e130)
# max|J| and max|f| of a 2x2 step inside which `newton` uses Cramer's rule:
# no product or quotient of it can overflow, and none that matters underflows
CLOSED_FORM_RANGE_2X2 = (1e-100, 1e100)
# |det J| / max|J|^2 below which a 2x2 step goes to lstsq; far above the
# 2 eps sigma_max at which lstsq would drop a singular value
DET_RELATIVE_FLOOR = 1e-12


def as_vector(y):
    """y as a float64 array, a 0-d value reshaped to shape (1,); what
    np.atleast_1d(np.asarray(y, dtype=float)) returns."""
    y = np.asarray(y, dtype=float)
    return y.reshape(1) if y.ndim == 0 else y


def rank_cutoff(sv) -> float:
    """SV_RELATIVE_CUTOFF * max(sigma_max, 1) of descending singular values sv, empty or not."""
    return SV_RELATIVE_CUTOFF * max(sv[0] if sv.size else 0.0, 1.0)


def sv_rank(sv) -> int:
    """The number of descending singular values sv above `rank_cutoff`."""
    return int(np.sum(sv > rank_cutoff(sv)))


def rank(T) -> int:
    """The rank of a matrix T, `sv_rank` of its singular values (no U or V^T is computed)."""
    return sv_rank(np.linalg.svd(T, compute_uv=False))


def det_sign(M) -> int:
    """sign(det M) of a square M, +1 for the 0x0 one (R^0 -> R^0); raises
    Singular when `rank`(M) is below M's size."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r = rank(M)
    if r < M.shape[0]:
        raise Singular(f"a {M.shape[0]}x{M.shape[1]} matrix of rank {r} has no determinant sign")
    return 1 if np.linalg.det(M) > 0 else -1


def svd_split(T):
    """Rank, orthonormal kernel and cokernel-complement bases of a matrix.

    Returns (rank, kernel, coker, sigma) where kernel is (n, n-rank) from the
    right singular vectors, coker is (m, m-rank) spanning the orthogonal
    complement of the range, and sigma the singular values.  The rank counts
    those above `rank_cutoff`; T is onto when coker has no columns.  A map
    with no rows or no columns has rank 0, so its kernel is all of R^n and
    its cokernel all of R^m.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m, n = T.shape
    if n == 0 or m == 0:
        return 0, np.eye(n), np.eye(m), np.zeros(0)
    U, s, Vt = np.linalg.svd(T)
    r = sv_rank(s)
    return r, Vt[r:].T, U[:, r:], s


def guard_rank_band(sigma):
    """Raise DegenerateSplitting when singular values fall in [c, RANK_BAND_FACTOR * c], c = rank_cutoff."""
    sigma = np.asarray(sigma)
    cutoff = rank_cutoff(sigma)
    bad = sigma[(sigma >= cutoff) & (sigma <= RANK_BAND_FACTOR * cutoff)]
    if bad.size:
        raise DegenerateSplitting(
            f"singular values {bad} inside ambiguity band [{cutoff:.3e}, {RANK_BAND_FACTOR * cutoff:.3e}]",
            singular_values=sigma,
        )


def _fd_step(l1: float) -> float:
    """The central-difference step h = 1e-6 (1 + |x|_1) at a point x of 1-norm l1."""
    return 1e-6 * (1.0 + l1)


def fd_jacobian(f, x):
    """Central finite-difference Jacobian of f at x, shape (len(f(x)), len(x)),
    from 2 len(x) evaluations of f (one, to size the result, for an empty x),
    with step h = `_fd_step`(|x|_1)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return np.zeros((as_vector(f(x)).size, 0))
    h = _fd_step(float(np.abs(x).sum()))
    J = None
    for j in range(n):
        e = np.zeros(n)     # h e_j, exact (no inf * 0) for any h; x + 0.0 and x - 0.0 as the plain formula
        e[j] = h
        fp = np.asarray(f(x + e), dtype=float)
        if J is None:
            J = np.empty((fp.size, n))
        J[:, j] = fp - f(x - e)     # float64 - anything promotes it to float64 first
    return J / (2.0 * h)


def _norm(v) -> float:
    """The 2-norm of a real vector, sqrt(v . v): np.linalg.norm(v)'s bits
    without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def _step_1x1(J: float, f: float) -> float:
    """The lstsq solution of J s = -f for floats J and f: -f * (1 / J), which
    has its bits, when |J| and |f| lie in CLOSED_FORM_RANGE, else lstsq's."""
    lo, hi = CLOSED_FORM_RANGE
    if lo <= abs(J) <= hi and lo <= abs(f) <= hi:
        return -f * (1.0 / J)
    return float(np.linalg.lstsq(np.array([[J]]), np.array([-f]), rcond=None)[0][0])


def _step(J, fx):
    """The lstsq solution of J step = -fx, with one closed form: a 2x2
    J = [[a, b], [c, d]] with max|J| and max|f| in CLOSED_FORM_RANGE_2X2 and
    |det| >= DET_RELATIVE_FLOOR max|J|^2, det = ad - bc, is solved by
    Cramer's rule ((b f1 - d f0) / det, (c f0 - a f1) / det).  Forward
    stable for a 2x2, it lies within a small multiple of cond(J) eps |step|
    of lstsq's solution.  Non-finite entries, a smaller det and every other
    shape go to lstsq; `newton` sends no 1x1 J here (see `_step_1x1`)."""
    if J.shape == (2, 2):
        lo, hi = CLOSED_FORM_RANGE_2X2
        (a, b), (c, d) = J.tolist()
        f0, f1 = fx.tolist()
        size = max(abs(a), abs(b), abs(c), abs(d))
        det = a * d - b * c     # NaN for a NaN anywhere in J, which fails the last test
        if (lo <= size <= hi and abs(f0) <= hi and abs(f1) <= hi and lo <= max(abs(f0), abs(f1))
                and abs(det) >= DET_RELATIVE_FLOOR * size * size):
            return np.array([(b * f1 - d * f0) / det, (c * f0 - a * f1) / det])
    return np.linalg.lstsq(J, -fx, rcond=None)[0]


def newton(func, x0, tol: float = 1e-13, max_iter: int = 80, stop=None):
    """Damped Gauss-Newton for func(x) = 0; returns (x, max|func(x)|, converged).

    Steps are lstsq solutions with the FD Jacobian (square or not; a 1x1
    one in closed form, with lstsq's bits inside CLOSED_FORM_RANGE, and a
    well-conditioned 2x2 one by Cramer's rule inside CLOSED_FORM_RANGE_2X2;
    see `_step_1x1` and `_step`), halved down to 1e-8 until the residual
    2-norm beats the best so far.  A stall, a non-finite Jacobian or
    residual, a failed solve, or an accepted iterate on which the predicate
    `stop` holds returns converged = False; it never raises.  An empty x
    returns at once.  func keeps the length of its value.  An x of shape
    (1,) with a one-entry func(x) runs the iteration on Python floats
    (`_newton_1d`), with the array loop's bits.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return x, 0.0, True
    fx = np.atleast_1d(func(x))
    solve = _newton_1d if x.shape == fx.shape == (1,) else _newton_arrays
    return solve(func, x, fx, tol, max_iter, stop)


def _newton_arrays(func, x, fx, tol, max_iter, stop):
    """`newton` from x, with fx = func(x), on numpy arrays."""
    best = _norm(fx)
    for _ in range(max_iter):
        res = float(np.abs(fx).max())
        if res <= tol:
            return x, res, True
        if not res < math.inf:    # no Jacobian off the domain: fd_jacobian would take inf - inf
            return x, res, False
        J = fd_jacobian(func, x)
        if not np.isfinite(J).all():    # lstsq would print and step NaN
            return x, res, False
        try:
            step = _step(J, fx)
        except np.linalg.LinAlgError:
            return x, res, False
        lam = 1.0
        while lam > 1e-8:
            trial = x + lam * step
            ft = np.atleast_1d(func(trial))
            norm = _norm(ft)
            if norm < best:
                x, fx, best = trial, ft, norm
                break
            lam *= 0.5
        else:
            return x, res, False
        if stop is not None and stop(x):
            return x, float(np.abs(fx).max()), False
    res = float(np.abs(fx).max())
    return x, res, res <= tol


_FLOAT64 = np.dtype(float)


def _entry(r):
    """(v, |r|) for a value r of a 1-D map: its one entry v as a float and
    the 2-norm `_newton_arrays` takes, sqrt(v * v) for a float64 r."""
    if type(r) is np.ndarray and r.dtype is _FLOAT64 and r.shape == (1,):
        v = r.item()
        return v, math.sqrt(v * v)
    r = np.atleast_1d(r)
    (v,) = r.tolist()
    return float(v), _norm(r)


def _newton_1d(func, x, fx, tol, max_iter, stop):
    """`_newton_arrays` for an x of shape (1,) and a one-entry fx, on Python
    floats: the same central difference (`_fd_step`), step (`_step_1x1`),
    halving and tests, so func sees the same points in the same order, and
    the iterates and the result have the same bits.  Each evaluation costs
    one array for func's argument and no other numpy call."""
    xv = x.item()
    f, best = _entry(fx)
    for _ in range(max_iter):
        res = abs(f)
        if res <= tol:
            return x, res, True
        if not res < math.inf:
            return x, res, False
        h = _fd_step(abs(xv))
        J = (_entry(func(np.array([xv + h])))[0] - _entry(func(np.array([xv - h])))[0]) / (2.0 * h)
        if not math.isfinite(J):
            return x, res, False
        try:
            step = _step_1x1(J, f)
        except np.linalg.LinAlgError:
            return x, res, False
        lam = 1.0
        while lam > 1e-8:
            xt = xv + lam * step
            trial = np.array([xt])
            ft, norm = _entry(func(trial))
            if norm < best:
                x, xv, f, best = trial, xt, ft, norm
                break
            lam *= 0.5
        else:
            return x, res, False
        if stop is not None and stop(x):
            return x, abs(f), False
    res = abs(f)
    return x, res, res <= tol


def orthonormal_columns(A):
    """Orthonormal basis of the column span of A (possibly empty), at `rank_cutoff`."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, :sv_rank(s)]


def subspace_intersection(A, B):
    """Orthonormal basis of span(A) ∩ span(B) for column bases A, B, at `svd_split`'s rank."""
    A = orthonormal_columns(A)
    B = orthonormal_columns(B)
    # x in both spans: x = A u = B v; solve [A, -B] [u; v] = 0.
    M = np.hstack([A, -B])
    _, kernel, _, _ = svd_split(M)
    return orthonormal_columns(A @ kernel[: A.shape[1], :])
