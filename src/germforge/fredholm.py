"""Basic germs, Fredholm index, relative linearizations, and perturbation
normal forms.

A basic germ maps a quadrant neighborhood of [0,inf)^k + R^(n-k) + W into
R^N + W so that the W-projection of g - g(0) is a contraction germ; its
index is n - N.  Adding a level-raising section s preserves the class after
an explicit change of coordinates built from the splitting of 1 + P D2s(0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import as_vector, fd_jacobian, guard_rank_band, sv_rank
from .errors import MismatchAtPoint
from .germs import MAX_BISECTIONS, ContractionGerm, SamplingPlan, shrink_to_contraction
from .spaces import GradedSpace

# |s(q) - f(q)| up to which linearize_relative takes s(q) = f(q)
MATCH_TOL = 1e-8


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
        out = as_vector(self.g(np.asarray(x, dtype=float)))
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
        g0 = self.value_at_zero()[self.N:]

        def B(v, w):
            return w - (self.evaluate(np.concatenate([v, w]))[self.N:] - g0)

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


def index_from_linearization(J) -> int:
    """dim ker - dim coker of a dense m x n matrix, for cross-checks: n - m,
    since (n - r) - (m - r) does not depend on the rank r."""
    m, n = np.atleast_2d(np.asarray(J, dtype=float)).shape
    return n - m


@dataclass(frozen=True)
class ScPlusSection:
    """A level-raising section with bounded support.

    Outputs are one level more regular than inputs (capped at the top level):
    output_level(m) = min(m + 1, M).
    """

    section: object
    levels: int
    support: object = None

    def __call__(self, x):
        return as_vector(self.section(np.asarray(x, dtype=float)))

    def output_level(self, input_level: int) -> int:
        return min(input_level + 1, self.levels)

    def support_contains(self, x) -> bool:
        if self.support is None:
            return True
        return bool(self.support(np.asarray(x, dtype=float)))


def linearize_relative(f, s: ScPlusSection, q):
    """Jacobian of f - s at q, defined when |s(q) - f(q)| <= MATCH_TOL.

    Any two admissible sections give linearizations differing by a
    level-raising operator, so the Fredholm index does not depend on the
    choice.
    """
    q = np.asarray(q, dtype=float)
    fq = as_vector(f(q))
    sq = s(q)
    gap = float(np.max(np.abs(fq - sq))) if fq.size else 0.0
    if gap > MATCH_TOL:
        raise MismatchAtPoint(f"s(q) differs from f(q) by {gap:.3e} > {MATCH_TOL:.1e}")
    return fd_jacobian(lambda x: as_vector(f(x)) - s(x), q)


@dataclass(frozen=True)
class NormalFormReport:
    kernel_dim: int
    certified_radius: float
    contraction_ratio: float
    splitting_singular_values: np.ndarray


def perturb_normal_form(bg: BasicGerm, s: ScPlusSection, grid: SamplingPlan | None = None):
    """Recast g + s as a basic germ of the same index.

    Construction: A = P D2s(0) on W; split 1 + A as C ⊕ X -> R ⊕ Z with
    C = ker(1+A) and L = (1+A)|X an isomorphism onto R; absorb the C-part of
    w into the parameters and the Z-part of the target into the constraint
    block via an SVD-aligned isomorphism tau: Z -> C.  The new contraction
    map is

        B_hat((a, c), x) = L^{-1} P2 (B - S)(a, c + x),

    and its contraction is re-certified at every level by shrinking the
    sampling radius until the empirical ratio is < 0.9.  The levels draw the
    same samples, so all of them are shrunk together and B_hat is evaluated
    once per sample (`shrink_to_contraction`).

    Returns (BasicGerm for g + s, NormalFormReport).  Raises
    DegenerateSplitting when the rank of 1 + A is numerically ambiguous.
    """
    wdim = bg.W.dim
    n, k, N = bg.n, bg.k, bg.N

    Ds0 = fd_jacobian(s, np.zeros(bg.domain_dim))
    A = Ds0[bg.N:, n:]                      # P D2 s(0): W -> W
    one_plus_A = np.eye(wdim) + A

    U, sv, Vt = np.linalg.svd(one_plus_A)
    guard_rank_band(sv)
    rank = sv_rank(sv)
    X_basis = Vt[:rank].T                   # complement of the kernel in W
    C_basis = Vt[rank:].T                   # kernel of 1 + A
    R_basis = U[:, :rank]                   # range
    Z_basis = U[:, rank:]                   # complement of the range
    d = C_basis.shape[1]                    # = dim Z

    # L = (1+A)|X as a rank x rank matrix in the (X, R) coordinates.
    L = R_basis.T @ one_plus_A @ X_basis
    L_inv = np.linalg.inv(L)

    fs0 = bg.value_at_zero() + s(np.zeros(bg.domain_dim))

    # y = (a, c_coeffs, x_coeffs) -> (a, C c + X x), and a value
    # (head, w) -> (head, Z^T w, L^-1 R^T w); tau: Z -> C pairs the SVD
    # null directions of the two sides
    into = np.eye(n + wdim)
    into[n:, n:] = np.hstack([C_basis, X_basis])
    out_of = np.eye(N + wdim)
    out_of[N:, N:] = np.vstack([Z_basis.T, L_inv @ R_basis.T])

    def new_g(y):
        """y = (a, c_coeffs, x_coeffs) -> (R^N, tau-coords, X-coords)."""
        x = into @ y
        return out_of @ (bg.evaluate(x) + s(x) - fs0)

    X_space = GradedSpace(
        dim=rank,
        levels=bg.W.levels,
        weights=np.maximum(np.abs(X_basis).T @ bg.W.weights, 1.0),
        quadrant_rank=0,
    )
    out = BasicGerm(n=n + d, k=k, N=N + d, W=X_space, g=new_g)

    # certify B_hat at every level from one set of samples per radius
    start = max(r for _, r in bg.contraction_schedule.values()) if bg.contraction_schedule else 1.0
    levels = range(X_space.levels + 1)
    certified, reports = shrink_to_contraction(out.inner, levels, start, MAX_BISECTIONS, grid)
    schedule = {m: certified.contraction_schedule[m] for m in levels}
    worst_ratio = max(rep.max_ratio for rep in reports.values())
    worst_radius = min([start] + [rep.radius for rep in reports.values()])
    out = BasicGerm(n=out.n, k=out.k, N=out.N, W=out.W, g=out.g,
                    contraction_schedule=schedule)
    return out, NormalFormReport(
        kernel_dim=d,
        certified_radius=worst_radius,
        contraction_ratio=worst_ratio,
        splitting_singular_values=sv,
    )
