"""Basic germs, Fredholm index, relative linearizations, and perturbation
normal forms.

A basic germ maps a quadrant neighborhood of [0,inf)^k + R^(n-k) + W into
R^N + W so that the W-projection of g - g(0) is a contraction germ; its
index is n - N.  Adding a level-raising section s preserves the class after
an explicit change of coordinates built from the splitting of 1 + P D2s(0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import fd_jacobian, guard_rank_band, svd_split
from .errors import MismatchAtPoint
from .germs import ContractionGerm, SamplingPlan, shrink_to_contraction
from .spaces import GradedSpace


@dataclass(frozen=True)
class BasicGerm:
    """A germ g into R^N ⊕ W whose W-projection is a contraction germ.

    Parameters live in the quadrant [0,inf)^k ⊕ R^(n-k); g takes the full
    point x = (v, w) of length n + dim W and returns n_out = N + dim W
    components laid out as (R^N part, W part).  The inner contraction germ
    for B(v, w) = w - P(g(v, w) - g(0)) is exposed as `.inner`.
    """

    n: int
    k: int
    N: int
    W: GradedSpace
    g: object
    contraction_schedule: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if self.N < 0:
            raise ValueError("N must be nonnegative")

    @property
    def parameter_space(self) -> GradedSpace:
        return GradedSpace(dim=self.n, levels=self.W.levels, weights=np.ones(self.n), quadrant_rank=self.k)

    @property
    def domain_dim(self) -> int:
        return self.n + self.W.dim

    @property
    def target_dim(self) -> int:
        return self.N + self.W.dim

    def evaluate(self, x):
        out = np.atleast_1d(np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float))
        if out.shape != (self.target_dim,):
            raise ValueError(f"g must return {self.target_dim} components, got {out.shape}")
        return out

    def project_W(self, y):
        """P: R^N ⊕ W -> W, dropping the first N components."""
        return np.asarray(y, dtype=float)[self.N:]

    def value_at_zero(self):
        return self.evaluate(np.zeros(self.domain_dim))

    @property
    def inner(self) -> ContractionGerm:
        """Contraction germ B(v, w) = w - P(g(v, w) - g(0))."""
        g0 = self.value_at_zero()

        def B(v, w):
            x = np.concatenate([v, w])
            return w - self.project_W(self.evaluate(x) - g0)

        return ContractionGerm(
            parameter_space=self.parameter_space,
            solution_space=self.W,
            B=B,
            contraction_schedule=dict(self.contraction_schedule),
        )

    def jacobian_at_zero(self):
        return fd_jacobian(self.evaluate, np.zeros(self.domain_dim))


def fredholm_index(bg: BasicGerm) -> int:
    """Index of a basic germ: parameter dimension minus constraint count."""
    return bg.n - bg.N


def index_from_linearization(J, cutoff_rel: float = 1e-8) -> int:
    """dim ker - dim coker of a dense matrix, for cross-checks."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    rank, kernel, coker, _ = svd_split(J, cutoff_rel)
    return kernel.shape[1] - coker.shape[1]


@dataclass(frozen=True)
class ScPlusSection:
    """A level-raising section with bounded support and pinned smooth values.

    Outputs are one level more regular than inputs (capped at the top level):
    output_level(m) = min(m + 1, M).  `marked_values` pins exact values at
    distinguished points, e.g. the bump construction's s(x0) = h0.
    """

    section: object
    levels: int
    support: object = None
    marked_values: dict = field(default_factory=dict)

    def __call__(self, x):
        return np.atleast_1d(np.asarray(self.section(np.asarray(x, dtype=float)), dtype=float))

    def output_level(self, input_level: int) -> int:
        return min(input_level + 1, self.levels)

    def support_contains(self, x) -> bool:
        if self.support is None:
            return True
        return bool(self.support(np.asarray(x, dtype=float)))


def linearize_relative(f, s: ScPlusSection, q, tol: float = 1e-8):
    """Jacobian of f - s at q, defined when s(q) = f(q) within tolerance.

    Any two admissible sections give linearizations differing by a
    level-raising operator, so the Fredholm index does not depend on the
    choice.
    """
    q = np.asarray(q, dtype=float)
    fq = np.atleast_1d(np.asarray(f(q), dtype=float))
    sq = s(q)
    gap = float(np.max(np.abs(fq - sq))) if fq.size else 0.0
    if gap > tol:
        raise MismatchAtPoint(f"s(q) differs from f(q) by {gap:.3e} > {tol:.1e}")
    return fd_jacobian(lambda x: np.atleast_1d(np.asarray(f(x), dtype=float)) - s(x), q)


@dataclass(frozen=True)
class NormalFormReport:
    kernel_dim: int
    certified_radius: float
    contraction_ratio: float
    splitting_singular_values: np.ndarray


def perturb_normal_form(bg: BasicGerm, s: ScPlusSection, rank_cutoff_rel: float = 1e-8,
                        grid: SamplingPlan | None = None):
    """Recast g + s as a basic germ of the same index.

    Construction: A = P D2s(0) on W; split 1 + A as C ⊕ X -> R ⊕ Z with
    C = ker(1+A) and L = (1+A)|X an isomorphism onto R; absorb the C-part of
    w into the parameters and the Z-part of the target into the constraint
    block via an SVD-aligned isomorphism tau: Z -> C.  The new contraction
    map is

        B_hat((a, c), x) = L^{-1} P2 (B - S)(a, c + x),

    and its contraction is re-certified at every level by shrinking the
    sampling radius until the empirical ratio is < 0.9.  The levels draw the
    same samples, so every level is certified from one set of B_hat
    evaluations, one per distinct sample, held only for this call.

    Returns (BasicGerm for g + s, NormalFormReport).  Raises
    DegenerateSplitting when the rank of 1 + A is numerically ambiguous.
    """
    wdim = bg.W.dim
    n, k, N = bg.n, bg.k, bg.N

    def s_eval(x):
        return s(x)

    Ds0 = fd_jacobian(s_eval, np.zeros(bg.domain_dim))
    A = Ds0[bg.N:, n:]                      # P D2 s(0): W -> W
    one_plus_A = np.eye(wdim) + A

    U, sv, Vt = np.linalg.svd(one_plus_A) if wdim else (np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)))
    smax = sv[0] if sv.size else 1.0
    cutoff = rank_cutoff_rel * max(smax, 1.0)
    guard_rank_band(sv, cutoff)
    rank = int(np.sum(sv > cutoff))
    X_basis = Vt[:rank].T                   # complement of the kernel in W
    C_basis = Vt[rank:].T                   # kernel of 1 + A
    R_basis = U[:, :rank]                   # range
    Z_basis = U[:, rank:]                   # complement of the range
    d = C_basis.shape[1]                    # = dim Z

    # L = (1+A)|X as a rank x rank matrix in the (X, R) coordinates.
    L = R_basis.T @ one_plus_A @ X_basis
    L_inv = np.linalg.inv(L) if rank else np.zeros((0, 0))

    g0 = bg.value_at_zero()
    s0 = s(np.zeros(bg.domain_dim))
    fs0 = g0 + s0

    def gs(x):
        return bg.evaluate(x) + s(x)

    # tau: Z -> C pairs the SVD null directions of the two sides.
    def new_g(y):
        """y = (a, c_coeffs, x_coeffs) -> (R^N, tau-coords, X-coords)."""
        a = y[:n]
        c = C_basis @ y[n:n + d] if d else np.zeros(wdim)
        xpart = X_basis @ y[n + d:] if rank else np.zeros(wdim)
        w = c + xpart
        val = gs(np.concatenate([a, w])) - fs0
        head = val[:N]
        wval = val[N:]
        z_coords = Z_basis.T @ wval if d else np.zeros(0)
        x_coords = L_inv @ (R_basis.T @ wval) if rank else np.zeros(0)
        return np.concatenate([head, z_coords, x_coords])

    X_space = GradedSpace(
        dim=rank,
        levels=bg.W.levels,
        weights=np.maximum(np.abs(X_basis).T @ bg.W.weights, 1.0) if rank else np.zeros(0),
        quadrant_rank=0,
    )
    out = BasicGerm(n=n + d, k=k, N=N + d, W=X_space, g=new_g)

    # certify B_hat level by level; the levels draw the same (v, w) samples
    inner = out.inner
    seen = {}

    def B_once(v, w):
        key = (v.tobytes(), w.tobytes())
        if key not in seen:
            seen[key] = inner.B(v, w)
        return seen[key]

    shared = replace(inner, B=B_once)
    start = max(r for _, r in bg.contraction_schedule.values()) if bg.contraction_schedule else 1.0
    schedule = {}
    worst_ratio = 0.0
    worst_radius = start
    for m in range(X_space.levels + 1):
        certified, report = shrink_to_contraction(shared, m=m, start_radius=start, grid=grid)
        schedule[m] = certified.contraction_schedule[m]
        worst_ratio = max(worst_ratio, report.max_ratio)
        worst_radius = min(worst_radius, report.radius)
    out = BasicGerm(n=out.n, k=out.k, N=out.N, W=out.W, g=out.g,
                    contraction_schedule=schedule)
    return out, NormalFormReport(
        kernel_dim=d,
        certified_radius=worst_radius,
        contraction_ratio=worst_ratio,
        splitting_singular_values=sv,
    )
