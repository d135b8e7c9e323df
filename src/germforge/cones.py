"""Partial-quadrant position analysis for finite-dimensional subspaces.

The ambient model is E = R^n ⊕ W with quadrant C = [0,inf)^n ⊕ W, n being
the ambient GradedSpace's quadrant_rank.  A subspace N is *neat* when it has
a complement inside C, *in good position* when some complement and constant
c make membership of n + m in C equivalent to membership of n whenever
||m|| <= c ||n||.  For good-position subspaces C ∩ N is again a partial
quadrant; `quadrant_structure` produces the explicit isomorphism.

Membership in a ray cone is resolved by nonnegative least squares (`nnls`,
Lawson-Hanson); interior questions by one least-distance problem solved
through the same NNLS (`linprog`).  Both are deterministic numpy code.
Extreme rays are enumerated by rank (`extreme_rays`).  Good position itself
is only sampled: test pairs are drawn from a seeded Philox stream in chunks
of SAMPLE_CHUNK trials, each trial making the same draws whatever its data,
so a seed and SAMPLE_CHUNK fix every pair (`_pair_chunks`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import orthonormal_columns, rank, svd_split
from .errors import Inconclusive, NotPointed
from .spaces import DEFAULT_TOL, GradedSpace

FEAS_TOL = 1e-8
# ||E u - f|| of the least-distance problem in `linprog` (G scaled to max
# |entry| 1) at or below which a cone counts as having no interior
LP_TOL = 1e-10
# good-position trials whose pairs are tested together; a failing
# (complement, c) pair meets its first counterexample after a few to a few
# hundred trials, and sampling stops at the end of the chunk that holds it
SAMPLE_CHUNK = 64


def nnls(A, b):
    """(x, ||A x - b||) with x >= 0 minimizing ||A x - b||, by the
    Lawson-Hanson active-set method (Lawson & Hanson, *Solving Least Squares
    Problems*, ch. 23).  A may have no columns.  Raises ValueError unless A
    and b are finite, and Inconclusive after 3n outer iterations, n the
    number of columns."""
    A, b = np.asarray_chkfinite(A, dtype=float), np.asarray_chkfinite(b, dtype=float)
    n = A.shape[1]
    norm_A = np.linalg.norm(A, 1)
    # gradient entries up to the rounding of A^T (b - A x) cannot lower the
    # residual; that rounding grows with |b| + |A| |x|
    rounding = 10 * np.finfo(float).eps * max(A.shape) * norm_A
    norm_b = np.abs(b).sum()
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for it in range(3 * n + 1):
        r = b - A @ x
        w = A.T @ r
        w[passive] = -np.inf
        if w.max(initial=-np.inf) <= rounding * (norm_b + norm_A * x.sum()):
            return x, math.sqrt(r.dot(r))
        if it == 3 * n:
            raise Inconclusive(f"NNLS did not converge in {3 * n} outer iterations")
        passive[np.argmax(w)] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            blocked = passive & (z <= 0.0)
            if not blocked.any():
                x = z
                break
            # step from x toward z until the first passive entry reaches 0
            gap = x[blocked] - z[blocked]
            ratios = np.divide(x[blocked], gap, out=np.zeros_like(gap), where=gap > 0)
            k = np.argmin(ratios)
            x = x + ratios[k] * (z - x)
            x[np.flatnonzero(blocked)[k]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0


def linprog(G):
    """A y with G y >= 1 of least norm, or None when the cone G y >= 0 has no
    interior.

    Least-distance problem (Lawson & Hanson, ch. 23): with E = [G^T; 1^T] and
    f = e_(d+1), the NNLS residual r = E u - f vanishes iff G y >= 1 has no
    solution, and otherwise y = -r[:d] / r[d] = G^T u / ||r||^2.  That y
    is the least-norm solution of G_P y = 1 over the rows P with u > 0,
    which is how it is computed: r[:d] carries an absolute rounding error
    of about 1e-16, and in a cone of depth 1e-9 the quotient then misses
    G y >= 1 by hundreds.  G is first scaled to max |entry| 1, which leaves
    y's direction unchanged.  The cone is refused when ||r|| =
    1 / sqrt(1 + ||y||^2) is at most LP_TOL, that is when no unit direction
    clears every scaled facet by more than about LP_TOL.
    """
    G = np.asarray(G, dtype=float)
    n, d = G.shape
    if not n:
        return np.zeros(d)
    scale = np.abs(G).max(initial=0.0)
    if not scale:
        return None
    E = np.vstack([G.T / scale, np.ones((1, n))])
    f = np.zeros(d + 1)
    f[d] = 1.0
    u, res = nnls(E, f)
    if res <= LP_TOL:
        return None
    active = u > 0
    return np.linalg.lstsq(G[active], np.ones(active.sum()), rcond=None)[0]


@dataclass(frozen=True)
class SubspaceInQuadrant:
    """A subspace of an ambient quadrant-marked space, given by basis columns."""

    ambient: GradedSpace
    basis: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if B.shape[0] != self.ambient.dim:
            B = B.T
        if B.shape[0] != self.ambient.dim:
            raise ValueError(f"basis rows {B.shape} do not match ambient dim {self.ambient.dim}")
        if not np.all(np.isfinite(B)):
            raise ValueError("basis vectors must be finite")
        if rank(B) != B.shape[1]:
            raise ValueError("basis vectors must be linearly independent")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def n(self) -> int:
        return self.ambient.quadrant_rank

    def constraint_matrix(self) -> np.ndarray:
        """Rows g_i with (B y)_i = g_i . y for the constrained coordinates."""
        return self.basis[: self.n, :]


@dataclass(frozen=True)
class NeatnessResult:
    neat: bool
    complement: np.ndarray | None = None


def is_neat(N: SubspaceInQuadrant) -> NeatnessResult:
    """Neat iff the constrained-coordinate projection maps N onto R^n.

    When neat, returns the complement {0}^n ⊕ Q with Q a complement of the
    W-part of N ∩ ({0}^n ⊕ W) inside W; that complement lies inside the
    quadrant.
    """
    n = N.n
    dim = N.ambient.dim
    G = N.constraint_matrix()
    if rank(G) < n:
        return NeatnessResult(neat=False)
    # kernel of the projection restricted to N, pushed into W coordinates
    K_w = orthonormal_columns((N.basis @ cone_lineality(N))[n:, :])
    # complement Q of K_w inside W: orthogonal complement
    Q = orthonormal_columns(np.eye(dim - n) - K_w @ K_w.T)
    comp = np.zeros((dim, Q.shape[1]))
    comp[n:, :] = Q
    return NeatnessResult(neat=True, complement=comp)


def _interior_point(N: SubspaceInQuadrant):
    """A coefficient vector y with (B y)_i >= 1 on all constraints and
    min (B y)_i = 1, or None (see `linprog`)."""
    if N.n == 0:
        return np.zeros(N.dim) if N.dim == 0 else np.eye(N.dim)[:, 0]
    G = N.constraint_matrix()
    y = linprog(G)
    if y is None:
        return None
    margin = np.min(G @ y)
    return y / margin if margin > 0 else None


@dataclass(frozen=True)
class GoodPositionResult:
    ok: bool
    c: float | None = None
    complement: np.ndarray | None = None
    neat: bool = False


def _orthogonal_complement(N: SubspaceInQuadrant) -> np.ndarray:
    B = orthonormal_columns(N.basis)
    proj = np.eye(N.ambient.dim) - B @ B.T
    return orthonormal_columns(proj)


def _coordinate_complements(N: SubspaceInQuadrant):
    """Up to 40 complements spanned by coordinate vectors, when they exist."""
    dim, d = N.ambient.dim, N.dim
    out = []
    for subset in itertools.islice(itertools.combinations(range(dim), dim - d), 200):
        E = np.eye(dim)[:, list(subset)]
        if rank(np.hstack([N.basis, E])) == dim:
            out.append(E)
            if len(out) >= 40:
                break
    return out


def _pair_chunks(N: SubspaceInQuadrant, comp, c: float, grid: int, rng, interior):
    """Yield the test pairs (n, m) of `grid` trials as two (k, dim) arrays,
    one chunk of SAMPLE_CHUNK trials at a time.

    Pairs are concentrated where a bad complement fails.  Every other trial
    starts near the cone (along the LP interior direction when one exists)
    and then has its smallest constrained coordinate pushed into the band
    (-2c||n||, 2c||n||) -- membership of n + m can only disagree with
    membership of n there.  That facet is chosen among those the complement
    can reach, and m is aimed at it; ||m|| <= c ||n|| always.
    Trials whose n vanishes or lies on a constraint hyperplane are dropped.

    Draw plan: every trial of a chunk draws an exponential, d normals, a
    band uniform, mc normals, a sign and a scale uniform, whatever its data,
    each kind as one array per chunk.  The last chunk is drawn in full and
    cut to `grid`, so a seed and SAMPLE_CHUNK fix every pair and a batch of
    g trials is a prefix of a batch of 2g.
    """
    basis, G, n_rank, level0 = N.basis, N.constraint_matrix(), N.n, N.ambient.level_norm
    norm_int = 0.0 if interior is None else float(np.linalg.norm(interior))
    y_int = interior / norm_int if norm_int > 1e-12 else np.zeros(N.dim)
    rows = np.arange(SAMPLE_CHUNK)
    band_trial = rows % 2 == 0
    biased = band_trial & (norm_int > 1e-12)
    # facets whose coordinate the complement can move at all
    reach = np.flatnonzero(np.sum(comp[:n_rank] ** 2, axis=1) > 1e-20)
    pool = reach if reach.size else np.arange(n_rank)
    row_norms = np.sum(G**2, axis=1)
    for start in range(0, grid, SAMPLE_CHUNK):
        e = rng.exponential(size=SAMPLE_CHUNK)
        zn = rng.normal(size=(SAMPLE_CHUNK, N.dim))
        u_band = rng.random(SAMPLE_CHUNK)
        zm = rng.normal(size=(SAMPLE_CHUNK, comp.shape[1]))
        sign = 2.0 * rng.integers(0, 2, size=SAMPLE_CHUNK) - 1.0
        u_scale = rng.random(SAMPLE_CHUNK)
        yn = np.where(biased[:, None], e[:, None] * y_int + 0.25 * zn, zn)
        nvecs = yn @ basis.T
        norm0 = level0(nvecs, 0)
        ym = zm
        if n_rank:
            i = pool[np.argmin(np.abs(nvecs[:, pool]), axis=1)]
            band = band_trial & (row_norms[i] > 1e-14)
            target = (-2.0 + 4.0 * u_band) * c * norm0
            shift = np.where(band, (target - nvecs[rows, i]) / np.where(band, row_norms[i], 1.0), 0.0)
            nvecs = (yn + shift[:, None] * G[i]) @ basis.T
            if reach.size:
                # aim the complement perturbation at the band facet
                ym = np.where(band[:, None], sign[:, None] * comp[i] + 0.2 * zm, zm)
        norm_n = level0(nvecs, 0)
        mvecs = ym @ comp.T
        norm_m = level0(mvecs, 0)
        big = norm_m > 1e-12
        mvecs *= np.where(big, c * norm_n / np.where(big, norm_m, 1.0) * u_scale, 1.0)[:, None]
        keep = ((rows < grid - start) & (norm0 >= 1e-12) & (norm_n >= 1e-12)
                & (np.min(np.abs(nvecs[:, :n_rank]), axis=1, initial=np.inf) > 10 * DEFAULT_TOL * np.maximum(1.0, norm_n)))
        yield nvecs[keep], mvecs[keep]


def _first_counterexample(N: SubspaceInQuadrant, comp, c: float, grid: int, rng, interior):
    """The first sampled (n, m) pair whose memberships of n and n + m in C
    differ, or None; no chunk after the one that holds it is drawn."""
    for nvecs, mvecs in _pair_chunks(N, comp, c, grid, rng, interior):
        bad = N.ambient.contains_quadrant_point(nvecs) != N.ambient.contains_quadrant_point(nvecs + mvecs)
        if bad.any():
            j = int(np.argmax(bad))
            return nvecs[j], mvecs[j]
    return None


def _oriented_complement(N: SubspaceInQuadrant, complement) -> np.ndarray:
    """A caller's complement as (dim, dim - dim N) columns, transposed if
    given as rows; ValueError unless it is finite and completes N's basis."""
    comp = np.atleast_2d(np.asarray(complement, dtype=float))
    if comp.shape[0] != N.ambient.dim:
        comp = comp.T
    if comp.shape[0] != N.ambient.dim:
        raise ValueError(f"complement {comp.shape} does not match ambient dim {N.ambient.dim}")
    if not np.all(np.isfinite(comp)):
        raise ValueError("complement vectors must be finite")
    if comp.shape[1] != N.ambient.dim - N.dim:
        raise ValueError(f"complement has {comp.shape[1]} columns, not dim - dim N = {N.ambient.dim - N.dim}")
    if rank(np.hstack([N.basis, comp])) != N.ambient.dim:
        raise ValueError("complement and N do not span the ambient space")
    return comp


def check_position_pair(N: SubspaceInQuadrant, complement, c: float, grid: int = 2000, seed: int = 0):
    """Sample the good-position equivalence for one (complement, c) pair.

    Returns None when no counterexample was found, else the offending
    (n, m) pair.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _first_counterexample(N, _oriented_complement(N, complement), c, grid, rng, _interior_point(N))


def is_good_position(N: SubspaceInQuadrant, complement_candidates=(), grid: int = 2000,
                     seed: int = 0) -> GoodPositionResult:
    """Search for a complement and constant certifying good position.

    (a) N ∩ C must have nonempty interior in N (`linprog`).
    (b) For a candidate complement and constant c, sampled pairs (n, m) with
        ||m||_E <= c ||n||_E must satisfy: n + m in C  <=>  n in C.  Half of
        the samples are biased into the band where the smallest constrained
        coordinate of n is on the scale of c ||n||, which is where bad
        complements fail.  Pairs are drawn and tested in chunks of
        SAMPLE_CHUNK (see `_pair_chunks`); a batch stops at the first chunk
        that holds a counterexample.

    Neat subspaces short-circuit to c = 1 with the neat complement.  The
    search is bounded: candidates are the orthogonal complement, coordinate
    complements, and any user-supplied ones, with c over 1, 1/2, ..., 2^-10;
    exhaustion raises Inconclusive.
    """
    neat_res = is_neat(N)
    if neat_res.neat:
        return GoodPositionResult(ok=True, c=1.0, complement=neat_res.complement, neat=True)
    y0 = _interior_point(N)
    if y0 is None:
        return GoodPositionResult(ok=False)
    candidates = [_oriented_complement(N, cand) for cand in complement_candidates]
    candidates.extend(_coordinate_complements(N))
    candidates.append(_orthogonal_complement(N))
    def has_counterexample(comp, c, batch_grid, key):
        batch_rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(key)))
        return _first_counterexample(N, comp, c, batch_grid, batch_rng, y0) is not None

    for ci, comp in enumerate(candidates):
        for cj, c in enumerate([2.0**-j for j in range(0, 11)]):
            # a pair passes only if two independent sample batches find no
            # counterexample; the second batch is twice as large
            if has_counterexample(comp, c, grid, (seed, ci, cj, 0)):
                continue
            if has_counterexample(comp, c, 2 * grid, (seed, ci, cj, 1)):
                continue
            return GoodPositionResult(ok=True, c=c, complement=comp)
    raise Inconclusive("no (complement, c) candidate certified good position; search is not a proof")


def cone_lineality(N: SubspaceInQuadrant):
    """Basis of the lineality space of C ∩ N inside the coefficient space."""
    return svd_split(N.constraint_matrix())[1]


def extreme_rays(N: SubspaceInQuadrant) -> list:
    """Unit generators of the extreme rays of the pointed cone C ∩ N.

    Enumerates active-constraint subsets of size dim N - 1 (the empty one
    for dim N = 1) whose rows have rank dim N - 1, and keeps the first sign
    of each one-dimensional kernel y with G y >= -FEAS_TOL max(1, max |G y|),
    once per direction.  A feasible y whose active rows have rank dim N - 1
    spans an extreme ray of a pointed cone (Schrijver, *Theory of Linear and
    Integer Programming*, 8.8), so no candidate is tested again.  Exact at
    desk dimensions.  Raises NotPointed with the lineality basis when the
    cone contains a line.
    """
    d = N.dim
    if d == 0:
        return []
    lin = cone_lineality(N)
    if lin.shape[1] > 0:
        raise NotPointed("cone contains a line", lineality_basis=N.basis @ lin)
    G = N.constraint_matrix()
    n = G.shape[0]
    rays = []
    for subset in itertools.combinations(range(n), d - 1):
        _, ker, _, _ = svd_split(G[list(subset), :])
        if ker.shape[1] != 1:
            continue
        for sgn in (1.0, -1.0):
            cand = sgn * ker[:, 0]
            if np.all(G @ cand >= -FEAS_TOL * max(1.0, float(np.max(np.abs(G @ cand))))):
                cand = cand / np.linalg.norm(cand)
                if not any(np.linalg.norm(cand - u) < 1e-8 for u in rays):    # one per direction
                    rays.append(cand)
                break
    ambient_rays = []
    for y in rays:
        r = N.basis @ y
        ambient_rays.append(r / np.linalg.norm(r))
    if not ambient_rays:
        return []
    order = np.lexsort(np.round(np.column_stack(ambient_rays), 10)[::-1])
    return [ambient_rays[i] for i in order]


def cone_membership_residual(point, rays) -> float:
    """NNLS residual of representing `point` as a nonneg combination of rays."""
    point = np.asarray(point, dtype=float)
    A = np.column_stack(rays) if len(rays) else np.zeros((point.size, 0))
    return nnls(A, point)[1]


@dataclass(frozen=True)
class QuadrantRecognition:
    is_quadrant: bool
    rays: list = field(default_factory=list)
    iso_to_standard: np.ndarray | None = None


def is_quadrant(N: SubspaceInQuadrant) -> QuadrantRecognition:
    """True iff C ∩ N has exactly dim N independent extreme rays.

    When true, also returns the linear map sending the rays to the standard
    basis, i.e. an isomorphism (N, C ∩ N) -> (R^d, [0,inf)^d) in ambient
    coordinates (acting on N).
    """
    rays = extreme_rays(N)
    d = N.dim
    if len(rays) != d:
        return QuadrantRecognition(is_quadrant=False, rays=rays)
    R = np.column_stack(rays)
    coeff = np.linalg.lstsq(N.basis, R, rcond=None)[0]
    if rank(coeff) != d:
        return QuadrantRecognition(is_quadrant=False, rays=rays)
    # map x = B y -> coordinates in the ray basis
    iso = np.linalg.inv(coeff) @ np.linalg.pinv(N.basis)
    return QuadrantRecognition(is_quadrant=True, rays=rays, iso_to_standard=iso)


def sigma_set(a, n: int, tol: float = DEFAULT_TOL) -> frozenset:
    """Indices i < n with |a_i| <= tol, for a point a of the quadrant."""
    a = np.asarray(getattr(a, "coords", a), dtype=float)
    return frozenset(int(i) for i in np.nonzero(np.abs(a[:n]) <= tol)[0])


@dataclass(frozen=True)
class QuadrantStructure:
    """Explicit model (N, C ∩ N) ≅ (R^dimN, [0,inf)^q ⊕ R^(dimN-q)).

    `to_standard` maps ambient points of N to model coordinates whose first
    `quadrant_count` entries are the constrained ones; `from_standard` is the
    inverse embedding back into the ambient space.
    """

    sigma: frozenset
    ntilde_basis: np.ndarray
    quadrant_count: int
    to_standard: np.ndarray
    from_standard: np.ndarray
    rays: list


def quadrant_structure(N: SubspaceInQuadrant) -> QuadrantStructure:
    """Standard-quadrant coordinates for C ∩ N of a good-position subspace.

    Splits N into a complement Ntilde of N ∩ W and the W-part, enumerates
    the extreme rays of the (automatically pointed) cone C ∩ Ntilde, forms
    Sigma as the union of the rays' vanishing-index sets, and builds the
    bijection Ntilde -> R^Sigma (first case; N ⊂ W is the case Ntilde = 0)
    or the single-ray model (second case, Sigma empty).  The caller
    certifies good position (see `is_good_position`); it is not checked
    here.
    """
    n = N.n
    dim = N.ambient.dim
    # split N into (N ∩ W) and a complement Ntilde
    NW_coeff = cone_lineality(N)                      # coefficients spanning N ∩ W
    Nt_coeff = orthonormal_columns(np.eye(N.dim) - NW_coeff @ NW_coeff.T)
    ntilde = N.basis @ Nt_coeff
    nw = N.basis @ NW_coeff
    rays = extreme_rays(SubspaceInQuadrant(ambient=N.ambient, basis=ntilde))
    sigma = frozenset().union(*(sigma_set(r, n, tol=1e-8) for r in rays))
    dt = ntilde.shape[1]

    if len(sigma) == dt:
        # first case: p: Ntilde -> R^Sigma is a bijection
        P_sigma = np.zeros((dt, dim))
        for row, i in enumerate(sorted(sigma)):
            P_sigma[row, i] = 1.0
        M = P_sigma @ ntilde                          # dt x dt, invertible
        from_std = np.hstack([ntilde @ np.linalg.inv(M), nw])
        # W-part coefficients extracted through the combined basis
        to_std = np.vstack([P_sigma, np.linalg.pinv(np.hstack([ntilde, nw]))[dt:, :]])
        return QuadrantStructure(sigma=sigma, ntilde_basis=ntilde, quadrant_count=dt,
                                 to_standard=to_std, from_standard=from_std, rays=rays)

    if dt == 1 and len(rays) == 1:
        # second case: Ntilde = R·a with a interior to the constraints
        a = rays[0].reshape(-1, 1)
        from_std = np.hstack([a, nw])
        to_std = np.linalg.pinv(from_std)
        return QuadrantStructure(sigma=sigma, ntilde_basis=ntilde, quadrant_count=1,
                                 to_standard=to_std, from_standard=from_std, rays=rays)

    raise Inconclusive(
        f"ray structure (dim Ntilde={dt}, #Sigma={len(sigma)}, #rays={len(rays)}) matches neither "
        "quadrant-structure case; good position likely fails"
    )
