"""Small dense linear-algebra helpers: SVD rank splits, FD Jacobians and
`newton`, the one damped Gauss-Newton solver behind chart values, polished
degree zeros and chart inversions."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSplitting

SV_RELATIVE_CUTOFF = 1e-8
RANK_BAND_FACTOR = 10.0


def svd_split(T, cutoff_rel: float = SV_RELATIVE_CUTOFF):
    """Rank, orthonormal kernel and cokernel-complement bases of a matrix.

    Returns (rank, kernel, coker, sigma) where kernel is (n, n-rank) from the
    right singular vectors, coker is (m, m-rank) spanning the orthogonal
    complement of the range, and sigma the singular values.  The cutoff is
    cutoff_rel * max(sigma_max, 1).  A map with no rows or no columns has
    rank 0, so its kernel is all of R^n and its cokernel all of R^m.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m, n = T.shape
    if n == 0 or m == 0:
        return 0, np.eye(n), np.eye(m), np.zeros(0)
    U, s, Vt = np.linalg.svd(T)
    cut = cutoff_rel * max(s[0] if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cut))
    kernel = Vt[rank:].T
    coker = U[:, rank:]
    return rank, kernel, coker, s


def guard_rank_band(sigma, cutoff: float):
    """Raise DegenerateSplitting when singular values fall in [cutoff, RANK_BAND_FACTOR * cutoff]."""
    sigma = np.asarray(sigma)
    bad = sigma[(sigma >= cutoff) & (sigma <= RANK_BAND_FACTOR * cutoff)]
    if bad.size:
        raise DegenerateSplitting(
            f"singular values {bad} inside ambiguity band [{cutoff:.3e}, {RANK_BAND_FACTOR * cutoff:.3e}]",
            singular_values=sigma,
        )


def is_surjective(T) -> bool:
    """Full row rank test: smallest of the first m singular values > SV_RELATIVE_CUTOFF * largest."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    m, n = T.shape
    if m == 0:
        return True
    if n < m:
        return False
    s = np.linalg.svd(T, compute_uv=False)
    return bool(s[m - 1] > SV_RELATIVE_CUTOFF * max(s[0], 1e-300))


def fd_jacobian(f, x):
    """Central finite-difference Jacobian of f at x, shape (len(f(x)), len(x)),
    from 2 len(x) evaluations of f (one, to size the result, for an empty x),
    with step h = 1e-6 (1 + |x|_1)."""
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


def newton(func, x0, tol: float = 1e-13, max_iter: int = 80, stop=None):
    """Damped Gauss-Newton for func(x) = 0; returns (x, max|func(x)|, converged).

    Steps are lstsq solutions with the FD Jacobian (square or not), halved
    down to 1e-8 until the residual 2-norm beats the best so far.  A stall, a
    non-finite Jacobian or residual, a failed solve, or an accepted iterate
    on which the predicate `stop` holds returns converged = False; it never
    raises.  An empty x returns at once.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return x, 0.0, True
    fx = np.atleast_1d(func(x))
    best = float(np.linalg.norm(fx))
    for _ in range(max_iter):
        res = float(np.max(np.abs(fx)))
        if res <= tol:
            return x, res, True
        if not res < np.inf:    # no Jacobian off the domain: fd_jacobian would take inf - inf
            return x, res, False
        J = fd_jacobian(func, x)
        if not np.isfinite(J).all():    # lstsq would print and step NaN
            return x, res, False
        try:
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


def orthonormal_columns(A):
    """Orthonormal basis of the column span of A (possibly empty), relative cutoff 1e-12."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] == 0:
        return A.copy()
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s[0] if s.size else 0.0, 1.0)))
    return U[:, :rank]


def subspace_intersection(A, B):
    """Orthonormal basis of span(A) ∩ span(B) for column bases A, B, relative cutoff 1e-10."""
    A = orthonormal_columns(A)
    B = orthonormal_columns(B)
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    # x in both spans: x = A u = B v; solve [A, -B] [u; v] = 0.
    M = np.hstack([A, -B])
    _, kernel, _, _ = svd_split(M, cutoff_rel=1e-10)
    if kernel.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    return orthonormal_columns(A @ kernel[: A.shape[1], :])
