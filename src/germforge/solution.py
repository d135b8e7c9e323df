"""Good parametrizations of zero sets near interior and corner points.

Near a zero q of f with surjective linearization J = f'(q), the zero set is
the graph Gamma(t) = q + K t + A(t) over the kernel N = ker J: K is an
orthonormal basis of N, A(t) lies in a fixed complement C of N, A(0) = 0 and
DA(0) = 0.  A chart is fixed by (f, q, K, C): each A(t) = C s comes from one
damped Newton solve of the square system f(q + K t + C s) = 0 started at the
second-order term s2(t) = -1/2 (J C)^-1 D^2 f(q)[K t, K t] of s, computed once
per chart (`GoodParametrization.cold_start`).  That cold start is a fixed
function of t, so it defines the chart (`a_map`, the memo behind `gamma`,
coverage tests), and a point of another sheet is never taken for a chart
point; the quadrature rule's continuation only picks other starts for the
same solve (`_graph_solve` falls back to s2(t) where another start fails).
Both chart builders read J and K from one linearization; recentring and
pushforward only choose a new (f, q, K, C), so they are graph charts of the
same kind.
The paper reaches the same map in stages (fiber fixed point, Newton on the
finite-dimensional remainder, reparametrization over N).  Both constructions
produce, for each t, a zero of f of the form q + K t + c with c in C near 0,
and the implicit function theorem makes that c locally unique, so they agree
to solver tolerance.  Interior charts use the orthogonal complement of N.
Corner charts run over the partial quadrant N ∩ C_q supplied by the cone
analysis; their complement is C = M ⊕ W, where M is the parameter part of
the certified good-position complement on the graph of the fiber slope
delta'(0) = -J_ww^-1 J_wv, read off the same J.  Tangents come from the same
linearization: DGamma(t) = K - C (J C)^-1 J K with J = f'(Gamma(t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from . import cones
from ._linalg import (CLOSED_FORM_RANGE, _norm, as_vector, fd_jacobian, newton, orthonormal_columns, rank,
                      rank_cutoff, subspace_intersection, svd_split)
from .errors import (
    GermforgeError,
    NoOverlap,
    NonConvergence,
    NotSurjective,
    PositionNotCertified,
    SingularLinearization,
)
from .fredholm import BasicGerm
from .spaces import DEFAULT_TOL, GradedSpace

CACHE_QUANTUM = 1e-12
MAX_SHRINKS = 20
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
# step of the central second differences along K, relative to 1 + |q|_1
SECOND_DIFFERENCE_STEP = 1e-4
# cells are clipped at this share of their chart's radius
SUPPORT_SCALE = 0.95


def _memo_key(t):
    """The key of chart coordinates t in a memo of chart points: t in units
    of CACHE_QUANTUM, rounded to int64s.  None for a non-finite t, which
    has no key and is solved uncached."""
    if not np.isfinite(t).all():
        return None
    return tuple(np.round(t / CACHE_QUANTUM).astype(np.int64))


def _graph_system(chart, t):
    """s -> f(q + K t + C s), the square system whose zero is Gamma(t)."""
    base = chart.base_point + chart.kernel_basis @ np.asarray(t, dtype=float)
    C = chart.complement_basis
    return lambda s: chart.section(base + C @ s)


def _graph_solve(chart, t, s0):
    """s with f(q + K t + C s) = 0 by damped Newton, calling the chart's
    section directly: from s0, and from the cold start s2(t) when s0 is None
    or does not converge, so a start only saves iterations.  NonConvergence,
    with its residual, when the cold solve does not converge."""
    system = _graph_system(chart, t)
    if s0 is not None:
        s, _, converged = newton(system, s0, NEWTON_TOL, NEWTON_MAX_ITER)
        if converged:
            return s
    s, res, converged = newton(system, chart.cold_start(t), NEWTON_TOL, NEWTON_MAX_ITER)
    if not converged:
        raise NonConvergence(f"Newton stalled at residual {res:.3e}", residual=res)
    return s


@dataclass(frozen=True)
class GoodParametrization:
    """Graph chart Gamma(n) = q + n + A(n) over the kernel of f'(q).

    Kernel points are addressed by coefficient vectors t in the orthonormal
    columns of kernel_basis, and A(n) lies in the span of complement_basis.
    A point x = q + K t + C s has chart coordinates t = `coordinates(x)`,
    its projection onto the kernel along the complement; that is K^T (x - q)
    only when C is orthogonal to K, as for interior charts, and not for
    corner charts or recentred ones.
    For boundary charts `structure` carries the standard-quadrant
    coordinates of the domain N ∩ C_q and `ambient_rank` the number of
    constrained ambient coordinates.
    """

    base_point: np.ndarray
    kernel_basis: np.ndarray
    complement_basis: np.ndarray
    radius: float
    section: object
    structure: cones.QuadrantStructure | None = None
    ambient_rank: int = 0
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def is_boundary(self) -> bool:
        return self.structure is not None

    @cached_property
    def _coordinate_rows(self):
        """The first k rows of [K C]^-1, computed once per chart."""
        return np.linalg.inv(np.hstack([self.kernel_basis, self.complement_basis]))[: self.dim]

    def coordinates(self, x):
        """t with x = q + K t + C s for some s: the first k entries of
        [K C]^-1 (x - q)."""
        return self._coordinate_rows @ (np.asarray(x, dtype=float) - self.base_point)

    @cached_property
    def _second_order(self):
        """Q with s2(t) = (Q t) t, computed once per chart: (J C)^-1 from the
        graph system's central differences at t = 0, and D^2 f(q) from
        central second differences of f along the columns K_i of K and, off
        the diagonal, along K_i + K_j (polarization)."""
        m, k = self.complement_basis.shape[1], self.dim
        Q = np.zeros((m, k, k))
        if not (m and k):
            return Q
        inverse = _complement_inverse(fd_jacobian(_graph_system(self, np.zeros(k)), np.zeros(m)))
        q, K = self.base_point, self.kernel_basis
        h = SECOND_DIFFERENCE_STEP * (1.0 + float(np.abs(q).sum()))
        twice_f0 = 2.0 * self.section_value(q)

        def second(v):          # (J C)^-1 D^2 f(q)[v, v]
            return inverse @ ((self.section_value(q + h * v) - twice_f0 + self.section_value(q - h * v)) / (h * h))

        for i in range(k):
            Q[:, i, i] = second(K[:, i])
        for i, j in combinations(range(k), 2):
            Q[:, i, j] = Q[:, j, i] = 0.5 * (second(K[:, i] + K[:, j]) - Q[:, i, i] - Q[:, j, j])
        return -0.5 * Q

    def cold_start(self, t):
        """s2(t) = -1/2 (J C)^-1 D^2 f(q)[K t, K t], J = f'(q): the
        second-order term of s(t), A(t) = C s(t), since A(0) = 0 and
        DA(0) = 0.  Every cold solve of the chart starts from it."""
        t = np.asarray(t, dtype=float)
        return (self._second_order @ t) @ t

    def a_map(self, t):
        """A(t) = C s with f(q + K t + C s) = 0, one damped Newton from the
        cold start s2(t)."""
        return self.complement_basis @ _graph_solve(self, t, None)

    def a_vector(self, t):
        """A(n) for n = kernel_basis @ t, cached on quantized coefficients.

        The cache behaves as if each entry were computed exactly once:
        concurrent lookups of the same key return identical values because
        the underlying solvers are deterministic.
        """
        t = np.asarray(t, dtype=float)
        key = _memo_key(t)
        if key is None:     # a_map rejects it uncached
            return self.a_map(t)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self.a_map(t)
        return hit

    def gamma(self, t):
        t = np.asarray(t, dtype=float)
        return self.base_point + self.kernel_basis @ t + self.a_vector(t)

    def section_value(self, x):
        return as_vector(self.section(np.asarray(x, dtype=float)))

    def jacobian(self, x):
        return fd_jacobian(self.section_value, np.asarray(x, dtype=float))

    def residual(self, t) -> float:
        return float(np.max(np.abs(self.section_value(self.gamma(t)))))

    def domain_contains(self, t, tol: float = DEFAULT_TOL) -> bool:
        t = np.asarray(t, dtype=float)
        if _norm(t) >= self.radius:
            return False
        if self.structure is None:
            return True
        s = self.structure.to_standard @ (self.kernel_basis @ t)
        return bool(np.all(s[: self.structure.quadrant_count] >= -tol))

    def domain_samples(self, count: int, seed: int = 0):
        """Deterministic coefficient samples inside the domain, drawn from the
        box of half-width 0.8 radius."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        out = []
        d = self.dim
        guard = 0
        while len(out) < count and guard < 100 * count + 100:
            guard += 1
            t = rng.uniform(-1.0, 1.0, size=d) * self.radius * 0.8
            if self.structure is not None:
                s = self.structure.to_standard @ (self.kernel_basis @ t)
                s[: self.structure.quadrant_count] = np.abs(s[: self.structure.quadrant_count])
                n = self.structure.from_standard @ s
                t = self.kernel_basis.T @ n
            if self.domain_contains(t):
                out.append(t)
        return out

    def kernel_transport(self, t):
        """Tangent columns DGamma(t) = K - C (J C)^-1 J K, J = f'(Gamma(t)).

        Differentiating f(q + K t + C s(t)) = 0 gives J (K + C s'(t)) = 0, so
        the columns span ker f'(Gamma(t)).  Raises NotSurjective when J C is
        singular, i.e. the complement is not transverse to that kernel.
        """
        return _tangent(self, self.jacobian(self.gamma(t)))


def _complement_inverse(JC):
    """(J C)^-1 from one SVD of J C, the Jacobian of the graph system
    s -> f(q + K t + C s) at a chart point.  Raises NotSurjective when J C
    is singular at `rank_cutoff`, i.e. the complement is not transverse to
    ker f'(Gamma(t)), or not finite.  A 1x1 J C = a with |a| in
    CLOSED_FORM_RANGE gives 1 / a, the bits of the SVD formula."""
    lo, hi = CLOSED_FORM_RANGE
    closed = JC.shape == (1, 1) and lo <= abs(JC[0, 0]) <= hi
    if closed:
        sv = np.abs(JC[0])
    else:
        try:
            U, sv, Vt = np.linalg.svd(JC)
        except np.linalg.LinAlgError:   # the SVD of a non-finite J C does not converge
            raise NotSurjective("chart complement meets a J C that is not finite") from None
    if not sv[-1] > rank_cutoff(sv):
        raise NotSurjective("chart complement is not transverse to ker f'(Gamma(t))")
    return 1.0 / JC if closed else (Vt.T / sv) @ U.T


def _tangent(chart: GoodParametrization, J):
    """K - C (J C)^-1 J K for the Jacobian J = f'(Gamma(t)) at a chart point."""
    K, C = chart.kernel_basis, chart.complement_basis
    return K - C @ (_complement_inverse(J @ C) @ (J @ K))


def _linearization(bg: BasicGerm, q):
    """(J, K) at a zero q of bg: J = f'(q) by central differences and K an
    orthonormal basis of ker J.  Raises NotSurjective when J is not onto."""
    fq = bg.evaluate(q)
    if float(np.max(np.abs(fq))) > 1e-8:
        raise GermforgeError(f"base point is not a zero (|f(q)| = {np.max(np.abs(fq)):.3e})")
    J = fd_jacobian(lambda x: bg.evaluate(q + x), np.zeros(bg.domain_dim))
    try:
        _, kernel, coker, _ = svd_split(J)
    except np.linalg.LinAlgError:   # the SVD of a non-finite J does not converge
        raise NotSurjective("linearization at the base zero is not finite") from None
    if coker.shape[1]:
        raise NotSurjective("linearization at the base zero is not onto")
    return J, kernel


def _chart(bg: BasicGerm, q, kernel, complement, radius, structure, ambient_rank,
           quadrant_rank) -> GoodParametrization:
    """The graph chart of bg at q over `kernel` in `complement`, at the first
    radius, halving from `radius` at most MAX_SHRINKS times, whose invariants
    hold on samples, with the first `quadrant_rank` coordinates kept in the
    quadrant."""
    chart = GoodParametrization(
        base_point=q, kernel_basis=kernel, complement_basis=complement, radius=radius,
        section=bg.evaluate, structure=structure, ambient_rank=ambient_rank,
    )
    for _ in range(MAX_SHRINKS):
        if _chart_invariants_hold(chart, quadrant_rank):
            return chart
        smaller = replace(chart, radius=chart.radius / 2.0)
        # the once-per-chart terms depend on (f, q, K, C) alone, not on the radius
        vars(smaller).update({k: v for k, v in vars(chart).items() if k in ("_second_order", "_coordinate_rows")})
        chart = smaller
    raise NonConvergence(f"no radius down to {chart.radius:.2e} satisfied the chart invariants")


def build_parametrization(bg: BasicGerm, q, radius: float = 0.5) -> GoodParametrization:
    """Good parametrization of {f = 0} near an interior zero q.

    The kernel N of f'(q) gets an orthonormal basis K and the complement C
    is its orthogonal complement.  A(t) = C s solves f(q + K t + C s) = 0 by
    one damped Newton from the cold start s2(t).  This is the paper's graph
    map: its staged construction (fiber fixed point, remainder Newton,
    reparametrization over N) also yields a zero q + K t + c with c in C,
    and the implicit function theorem makes c locally unique.  The domain
    radius shrinks by halves until the chart invariants hold on samples,
    and, for a germ with quadrant constraints, until its points keep
    x_i >= -DEFAULT_TOL for i < bg.k out to the cell clip; the final radius
    is recorded on the chart.

    Raises NotSurjective when f'(q) has a rank deficit and NonConvergence
    when no radius passes.
    """
    q = np.asarray(q, dtype=float)
    _, kernel = _linearization(bg, q)
    complement = orthonormal_columns(np.eye(bg.domain_dim) - kernel @ kernel.T)
    return _chart(bg, q, kernel, complement, radius, None, 0, bg.k)


def _chart_invariants_hold(chart: GoodParametrization, quadrant_rank: int) -> bool:
    """A(0) = 0, and at 12 domain samples t the solve converges (so Gamma(t)
    is a zero to NEWTON_TOL) and the graph system's J C, central differences
    along C at the solved point, is nonsingular: the complement stays
    transverse to the kernel, so f' stays onto.  With quadrant_rank > 0 the
    points Gamma(t), and Gamma at t scaled out to the cell clip
    SUPPORT_SCALE radius, keep x_i >= -DEFAULT_TOL for i < quadrant_rank."""
    q, K, C = chart.base_point, chart.kernel_basis, chart.complement_basis
    reach = SUPPORT_SCALE * chart.radius
    try:
        if _norm(chart.a_vector(np.zeros(chart.dim))) > 1e-8:
            return False
        for t in chart.domain_samples(12, seed=11):
            s = _graph_solve(chart, t, None)
            _complement_inverse(fd_jacobian(_graph_system(chart, t), s))
            if quadrant_rank and any(np.any(x[:quadrant_rank] < -DEFAULT_TOL) for x in (
                    q + K @ t + C @ s, chart.gamma(t * (reach / _norm(t))))):
                return False
    except (NonConvergence, GermforgeError):
        return False
    return True


def recentre(gp: GoodParametrization, n0) -> GoodParametrization:
    """Graph chart of the same section at q0 = Gamma(n0).

    Its kernel basis is an orthonormal basis of the transported kernel
    DGamma(n0) = ker f'(q0), and it keeps the complement, which
    kernel_transport has just checked is transverse to that kernel.  The
    new radius is chosen inside the old domain so the recentred image stays
    in the original chart.
    """
    n0 = np.asarray(n0, dtype=float)
    if not gp.domain_contains(n0):
        raise GermforgeError("recentre point outside the chart domain")
    if gp.structure is not None:
        s = gp.structure.to_standard @ (gp.kernel_basis @ n0)
        if np.any(np.abs(s[: gp.structure.quadrant_count]) <= DEFAULT_TOL):
            raise GermforgeError(
                "recentre target sits on a boundary stratum; recentring is an interior operation"
            )
    remaining = (gp.radius - _norm(n0)) * 0.7
    return GoodParametrization(
        base_point=gp.gamma(n0), kernel_basis=orthonormal_columns(gp.kernel_transport(n0)),
        complement_basis=gp.complement_basis, radius=max(remaining, 1e-6), section=gp.section,
        ambient_rank=gp.ambient_rank,
    )


@dataclass(frozen=True)
class BundleIso:
    """Base diffeomorphism with inverse; the fiber map is the identity."""

    base: object
    base_inv: object

    def push_section(self, section):
        def pushed(y):
            x = np.asarray(self.base_inv(np.asarray(y, dtype=float)), dtype=float)
            return as_vector(section(x))
        return pushed


def transform(gp: GoodParametrization, phi: BundleIso) -> GoodParametrization:
    """Graph chart of the pushforward section f o phi^-1 at q' = phi(q).

    Its kernel basis is an orthonormal basis of Tphi(q) ker f'(q), which is
    ker (f o phi^-1)'(q'), and its complement is the orthogonal complement
    of that kernel.  The radius is the old one scaled by the smallest
    stretch of Tphi on the kernel.
    """
    if gp.is_boundary:
        raise GermforgeError("transform is defined for interior charts; corner charts keep their quadrant domain")
    q = gp.base_point
    qp = np.asarray(phi.base(q), dtype=float)
    Tphi = fd_jacobian(lambda x: np.asarray(phi.base(x), dtype=float), q)
    if rank(Tphi) < qp.size:  # also when an infinite Tphi gives NaN
        raise GermforgeError("base map Jacobian is singular at the chart point")
    new_kernel = orthonormal_columns(Tphi @ gp.kernel_basis)  # Tphi is invertible: no column is lost
    complement = orthonormal_columns(np.eye(qp.size) - new_kernel @ new_kernel.T)
    scale = float(np.linalg.svd(Tphi @ gp.kernel_basis, compute_uv=False)[-1])
    return GoodParametrization(
        base_point=qp, kernel_basis=new_kernel, complement_basis=complement,
        radius=gp.radius * scale * 0.7, section=phi.push_section(gp.section_value),
        ambient_rank=gp.ambient_rank,
    )


@dataclass(frozen=True)
class TransitionMap:
    """Evaluable overlap map sigma with Gamma_1(sigma(t)) = Gamma_2(t)."""

    gp1: GoodParametrization
    gp2: GoodParametrization

    def __call__(self, t):
        return self.gp1.coordinates(self.gp2.gamma(t))

    def mismatch(self, t) -> float:
        """||Gamma_1(sigma(t)) - Gamma_2(t)|| at an overlap sample."""
        s = self(t)
        return float(np.max(np.abs(self.gp1.gamma(s) - self.gp2.gamma(t))))


def transition_map(gp1: GoodParametrization, gp2: GoodParametrization, shared_zero) -> TransitionMap:
    """Overlap reparametrization sigma(t) = P_1(Gamma_2(t)), P_1 the
    coordinates of chart 1: the projection onto its kernel along its own
    complement, so that Gamma_1(sigma(t)) = Gamma_2(t) on the overlap.

    Raises NoOverlap when the shared zero does not lie in both chart images.
    """
    z = np.asarray(shared_zero, dtype=float)
    for gp in (gp1, gp2):
        t = gp.coordinates(z)
        if not gp.domain_contains(t, tol=1e-6):
            raise NoOverlap("shared zero lies outside a chart domain")
        if np.max(np.abs(gp.gamma(t) - z)) > 1e-6:
            raise NoOverlap("shared zero is not on a chart image")
    return TransitionMap(gp1=gp1, gp2=gp2)


def build_boundary_parametrization(bg: BasicGerm, q, position_certificate=None,
                                   radius: float = 0.4) -> GoodParametrization:
    """Good parametrization near a corner zero q over the quadrant N ∩ C_q.

    J = f'(q) and the kernel basis K of N = ker J come from the shared
    linearization.  N must be in good position to the tangent quadrant; the
    cone analysis computes the certificate when none is supplied, and its
    complement must complete K to a basis.  The domain is the partial
    quadrant carried as a quadrant-structure result.  With the fiber slope
    delta'(0) = -J_ww^-1 J_wv read off the same J, ker J is the graph of
    delta'(0) over the remainder kernel N'; M, the parameter part of the
    certified complement's intersection with graph(delta'(0)), complements
    N', and the chart complement is C = M ⊕ W.  A(t) = C s solves
    f(q + K t + C s) = 0 by one damped Newton from the cold start s2(t); the
    paper's staged construction over N' ∩ C' yields a zero of the same form,
    and the implicit function theorem makes it locally unique.

    Raises NotSurjective when J is not onto, SingularLinearization when its
    fiber block J_ww is singular, PositionNotCertified when the certificate
    fails or its complement does not complete K, and NonConvergence when no
    radius passes.
    """
    q = np.asarray(q, dtype=float)
    n, wdim = bg.n, bg.W.dim
    # active constraints at q determine the local tangent quadrant
    active = [i for i in range(bg.k) if abs(q[i]) <= DEFAULT_TOL]
    if not active:
        return build_parametrization(bg, q, radius=radius)
    if active != list(range(len(active))):
        raise GermforgeError(
            "boundary construction expects the active constraints to be the leading coordinates"
        )

    J, kernel = _linearization(bg, q)
    J_ww = J[bg.N:, n:]
    if rank(J_ww) < J_ww.shape[0]:
        raise SingularLinearization("fiber block J_ww of f'(q) is singular at the corner")
    slope = -np.linalg.solve(J_ww, J[bg.N:, :n])  # delta'(0)

    ambient = GradedSpace(dim=bg.domain_dim, levels=bg.W.levels,
                          weights=np.ones(bg.domain_dim), quadrant_rank=len(active))
    sub = cones.SubspaceInQuadrant(ambient=ambient, basis=kernel)
    cert = cones.is_good_position(sub) if position_certificate is None else position_certificate
    if not getattr(cert, "ok", False):
        raise PositionNotCertified("kernel is not certified to be in good position to the corner")
    try:
        comp = cones._oriented_complement(sub, cert.complement)
    except ValueError as exc:
        raise PositionNotCertified(f"certified complement does not complete the kernel: {exc}") from exc

    M = orthonormal_columns(subspace_intersection(comp, np.vstack([np.eye(n), slope]))[:n])
    complement = np.block([[M, np.zeros((n, wdim))], [np.zeros((wdim, M.shape[1])), np.eye(wdim)]])
    return _chart(bg, q, kernel, complement, radius, cones.quadrant_structure(sub), len(active), 0)


@dataclass(frozen=True)
class SolutionAtlas:
    """Charts covering a solution set together with their overlap records.

    `_rules` memoizes `degree.integrate_form`'s quadrature rule per (form
    degree, nodes per axis); a copy made by `dataclasses.replace` starts
    without rules."""

    charts: tuple
    overlaps: tuple = ()
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.charts[0].dim if self.charts else 0

    def verify_transitions(self) -> bool:
        """Transition mismatch <= 1e-8 at 8 samples near each overlap's zero."""
        for i, j, zero in self.overlaps:
            tm = transition_map(self.charts[i], self.charts[j], zero)
            t0 = self.charts[j].coordinates(zero)
            rng = np.random.Generator(np.random.Philox(key=5))
            for _ in range(8):
                t = t0 + rng.uniform(-0.05, 0.05, size=self.charts[j].dim)
                if not (self.charts[j].domain_contains(t)):
                    continue
                s = tm(t)
                if not self.charts[i].domain_contains(s):
                    continue
                if tm.mismatch(t) > 1e-8:
                    return False
        return True
