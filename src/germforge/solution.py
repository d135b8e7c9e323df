"""Good parametrizations of zero sets near interior and corner points.

Near a zero q of f with surjective linearization, the zero set is the graph
Gamma(t) = q + K t + A(t) over the kernel N = ker f'(q): K is an orthonormal
basis of N, A(t) lies in a fixed complement C of N, A(0) = 0 and DA(0) = 0.
Each A(t) = C s comes from one damped Newton solve of the square system
f(q + K t + C s) = 0 started at s = 0, which A(0) = 0 and DA(0) = 0 make a
second-order guess.  The paper reaches the same map in stages (fiber fixed
point, Newton on the finite-dimensional remainder, reparametrization over N).
Both constructions produce, for each t, a zero of f of the form q + K t + c
with c in C near 0, and the implicit function theorem makes that c locally
unique, so they agree to solver tolerance.  Interior charts use the
orthogonal complement of N; corner charts run over the partial quadrant
N ∩ C_q supplied by the cone analysis and use the certified good-position
complement.  Tangents come from the same linearization:
DGamma(t) = K - C (J C)^-1 J K with J = f'(Gamma(t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import cones
from ._linalg import fd_jacobian, is_surjective, newton, orthonormal_columns, subspace_intersection, svd_split
from .errors import (
    GermforgeError,
    NoOverlap,
    NonConvergence,
    NotSurjective,
    PositionNotCertified,
)
from .fredholm import BasicGerm
from .germs import ContractionGerm, SolutionGerm, germ_derivative
from .spaces import DEFAULT_TOL, GradedSpace

CACHE_QUANTUM = 1e-12
RESIDUAL_TOL = 1e-9
MAX_SHRINKS = 20
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


def _solve(func, x0):
    """`newton` at the chart tolerances; NonConvergence when it does not converge."""
    x, res, converged = newton(func, x0, NEWTON_TOL, NEWTON_MAX_ITER)
    if not converged:
        raise NonConvergence(f"Newton stalled at residual {res:.3e}", residual=res)
    return x


@dataclass(frozen=True)
class GoodParametrization:
    """Graph chart Gamma(n) = q + n + A(n) over the kernel of f'(q).

    Kernel points are addressed by coefficient vectors t in the orthonormal
    columns of kernel_basis, and A(n) lies in the span of complement_basis.
    For boundary charts `structure` carries the standard-quadrant
    coordinates of the domain N ∩ C_q and `ambient_rank` the number of
    constrained ambient coordinates.
    """

    base_point: np.ndarray
    kernel_basis: np.ndarray
    complement_basis: np.ndarray
    radius: float
    section: object
    a_map: object
    structure: cones.QuadrantStructure | None = None
    ambient_rank: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def is_boundary(self) -> bool:
        return self.structure is not None

    def a_vector(self, t):
        """A(n) for n = kernel_basis @ t, cached on quantized coefficients.

        The cache behaves as if each entry were computed exactly once:
        concurrent lookups of the same key return identical values because
        the underlying solvers are deterministic.
        """
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():  # no key for it; a_map rejects it uncached
            return np.asarray(self.a_map(t), dtype=float)
        key = tuple(np.round(t / CACHE_QUANTUM).astype(np.int64))
        hit = self._cache.get(key)
        if hit is None:
            hit = np.asarray(self.a_map(t), dtype=float)
            self._cache[key] = hit
        return hit

    def gamma(self, t):
        t = np.asarray(t, dtype=float)
        return self.base_point + self.kernel_basis @ t + self.a_vector(t)

    def section_value(self, x):
        return np.atleast_1d(np.asarray(self.section(np.asarray(x, dtype=float)), dtype=float))

    def jacobian(self, x):
        return fd_jacobian(self.section_value, np.asarray(x, dtype=float))

    def residual(self, t) -> float:
        return float(np.max(np.abs(self.section_value(self.gamma(t)))))

    def domain_contains(self, t, tol: float = DEFAULT_TOL) -> bool:
        t = np.asarray(t, dtype=float)
        if np.linalg.norm(t) >= self.radius:
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


def _tangent(chart: GoodParametrization, J):
    """K - C (J C)^-1 J K for the Jacobian J = f'(Gamma(t)) at a chart point."""
    K, C = chart.kernel_basis, chart.complement_basis
    JC = J @ C
    if not is_surjective(JC):
        raise NotSurjective("chart complement is not transverse to ker f'(Gamma(t))")
    return K - C @ np.linalg.solve(JC, J @ K)


def _shifted_at_zero(bg: BasicGerm, q):
    """x -> f(q + x) for a zero q of bg."""
    fq = bg.evaluate(q)
    if float(np.max(np.abs(fq))) > 1e-8:
        raise GermforgeError(f"base point is not a zero (|f(q)| = {np.max(np.abs(fq)):.3e})")
    return lambda x: bg.evaluate(q + x)


def _graph_map(section, q, kernel, complement):
    """t -> A(t) = C s with f(q + K t + C s) = 0, one damped Newton from s = 0."""
    s0 = np.zeros(complement.shape[1])

    def a_map(t):
        base = q + kernel @ np.asarray(t, dtype=float)
        return complement @ _solve(lambda s: section(base + complement @ s), s0)

    return a_map


def _shrunk_until_valid(chart: GoodParametrization) -> GoodParametrization:
    """The chart at the first radius, halving from chart.radius at most
    MAX_SHRINKS times, whose invariants hold on samples."""
    for _ in range(MAX_SHRINKS):
        if _chart_invariants_hold(chart):
            return chart
        chart = replace(chart, radius=chart.radius / 2.0, _cache={})
    raise NonConvergence(f"no radius down to {chart.radius:.2e} satisfied the chart invariants")


def build_parametrization(bg: BasicGerm, q, radius: float = 0.5) -> GoodParametrization:
    """Good parametrization of {f = 0} near an interior zero q.

    The kernel N of f'(q) gets an orthonormal basis K and the complement C
    is its orthogonal complement.  A(t) = C s solves f(q + K t + C s) = 0 by
    one damped Newton from s = 0.  This is the paper's graph map: its staged
    construction (fiber fixed point, remainder Newton, reparametrization over
    N) also yields a zero q + K t + c with c in C, and the implicit function
    theorem makes c locally unique.  The domain radius shrinks by halves
    until the chart invariants hold on samples; the final radius is
    recorded on the chart.

    Raises NotSurjective when f'(q) has a rank deficit and NonConvergence
    when no radius passes.
    """
    q = np.asarray(q, dtype=float)
    shifted = _shifted_at_zero(bg, q)
    J = fd_jacobian(shifted, np.zeros(bg.domain_dim))
    if not is_surjective(J):
        raise NotSurjective("linearization at the base zero is not onto")
    _, kernel, _, _ = svd_split(J)
    complement = orthonormal_columns(np.eye(bg.domain_dim) - kernel @ kernel.T)
    chart = GoodParametrization(
        base_point=q, kernel_basis=kernel, complement_basis=complement, radius=radius,
        section=bg.evaluate, a_map=_graph_map(bg.evaluate, q, kernel, complement),
    )
    return _shrunk_until_valid(chart)


def _chart_invariants_hold(chart: GoodParametrization) -> bool:
    """A(0) = 0, and at 12 domain samples Gamma(t) is a zero, to RESIDUAL_TOL,
    at which the complement stays transverse to the kernel (so f' stays onto)."""
    try:
        if np.linalg.norm(chart.a_vector(np.zeros(chart.dim))) > 1e-8:
            return False
        for t in chart.domain_samples(12, seed=11):
            if chart.residual(t) > RESIDUAL_TOL:
                return False
            chart.kernel_transport(t)
    except (NonConvergence, GermforgeError):
        return False
    return True


def recentre(gp: GoodParametrization, n0) -> GoodParametrization:
    """Chart with the same zero set re-based at q0 = Gamma(n0).

    The new kernel is the transport of the old one, the complement is
    reused, and the new graph map is the remainder of Gamma around n0.  The
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
    q0 = gp.gamma(n0)
    transported = gp.kernel_transport(n0)
    new_kernel = orthonormal_columns(transported)
    # sigma maps new-kernel coefficients back to old-kernel increments
    lift = np.linalg.pinv(transported) @ new_kernel

    def a_map(t):
        t = np.asarray(t, dtype=float)
        dn = lift @ t
        offset = gp.gamma(n0 + dn) - q0
        # offset = new_kernel t + remainder in the old complement, exactly
        return offset - new_kernel @ t

    remaining = (gp.radius - float(np.linalg.norm(n0))) * 0.7
    return GoodParametrization(
        base_point=q0, kernel_basis=new_kernel, complement_basis=gp.complement_basis,
        radius=max(remaining, 1e-6), section=gp.section, a_map=a_map,
        structure=None, ambient_rank=gp.ambient_rank,
    )


@dataclass(frozen=True)
class BundleIso:
    """Base diffeomorphism with inverse; the fiber map is the identity."""

    base: object
    base_inv: object

    def push_section(self, section):
        def pushed(y):
            x = np.asarray(self.base_inv(np.asarray(y, dtype=float)), dtype=float)
            return np.atleast_1d(np.asarray(section(x), dtype=float))
        return pushed


def transform(gp: GoodParametrization, phi: BundleIso) -> GoodParametrization:
    """Chart for the pushforward section near q' = phi(q).

    New kernel = Tphi(q) applied to the old kernel; the graph map is rebuilt
    from the transported parametrization by projecting onto the new kernel
    and inverting the resulting local diffeomorphism.
    """
    if gp.is_boundary:
        raise GermforgeError("transform is defined for interior charts; corner charts keep their quadrant domain")
    q = gp.base_point
    qp = np.asarray(phi.base(q), dtype=float)
    Tphi = fd_jacobian(lambda x: np.asarray(phi.base(x), dtype=float), q)
    s = np.linalg.svd(Tphi, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise GermforgeError("base map Jacobian is singular at the chart point")
    new_kernel = orthonormal_columns(Tphi @ gp.kernel_basis)
    if new_kernel.shape[1] != gp.dim:
        raise GermforgeError("kernel collapsed under the base map")
    sigma = np.linalg.pinv(Tphi @ gp.kernel_basis) @ new_kernel

    def curve(tp):
        """Transported zero curve q' + image of Gamma."""
        return np.asarray(phi.base(gp.gamma(sigma @ tp)), dtype=float)

    def tau(tp):
        return new_kernel.T @ (curve(tp) - qp)

    def a_map(tp):
        tp = np.asarray(tp, dtype=float)
        t_inv = _solve(lambda z: tau(z) - tp, tp)
        offset = curve(t_inv) - qp
        return offset - new_kernel @ (new_kernel.T @ offset)

    new_section = phi.push_section(gp.section_value)
    complement = orthonormal_columns(np.eye(qp.size) - new_kernel @ new_kernel.T)
    scale = float(np.linalg.svd(Tphi @ gp.kernel_basis, compute_uv=False)[-1])
    return GoodParametrization(
        base_point=qp, kernel_basis=new_kernel, complement_basis=complement,
        radius=gp.radius * scale * 0.7, section=new_section, a_map=a_map,
        structure=None, ambient_rank=gp.ambient_rank,
    )


@dataclass(frozen=True)
class TransitionMap:
    """Evaluable overlap map sigma with Gamma_1(sigma(t)) = Gamma_2(t)."""

    gp1: GoodParametrization
    gp2: GoodParametrization

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        target = self.gp2.gamma(t)
        offset = target - self.gp1.base_point
        return self.gp1.kernel_basis.T @ offset

    def derivative(self, t):
        return fd_jacobian(self.__call__, np.asarray(t, dtype=float))

    def mismatch(self, t) -> float:
        """||Gamma_1(sigma(t)) - Gamma_2(t)|| at an overlap sample."""
        s = self(t)
        return float(np.max(np.abs(self.gp1.gamma(s) - self.gp2.gamma(t))))


def transition_map(gp1: GoodParametrization, gp2: GoodParametrization, shared_zero) -> TransitionMap:
    """Overlap reparametrization sigma(t) = P_1(q2 - q1 + n + A_2(n)).

    Raises NoOverlap when the shared zero does not lie in both chart images.
    """
    z = np.asarray(shared_zero, dtype=float)
    for gp in (gp1, gp2):
        t = gp.kernel_basis.T @ (z - gp.base_point)
        if not gp.domain_contains(t, tol=1e-6):
            raise NoOverlap("shared zero lies outside a chart domain")
        if np.max(np.abs(gp.gamma(t) - z)) > 1e-6:
            raise NoOverlap("shared zero is not on a chart image")
    return TransitionMap(gp1=gp1, gp2=gp2)


def build_boundary_parametrization(bg: BasicGerm, q, position_certificate=None,
                                   radius: float = 0.4) -> GoodParametrization:
    """Good parametrization near a corner zero q over the quadrant N ∩ C_q.

    Requires the kernel N of f'(q) to be in good position to the tangent
    quadrant; the certificate is computed via the cone analysis when not
    supplied.  The domain is the partial quadrant carried as a
    quadrant-structure result.  The kernel basis is the transport of the
    remainder kernel N' through the fiber solution's derivative, and the
    complement C is the certified good-position complement, carried to the
    remainder coordinates, plus the fiber directions.  A(t) = C s solves
    f(q + K t + C s) = 0 by one damped Newton from s = 0; the paper's staged
    construction over N' ∩ C' yields a zero of the same form, and the
    implicit function theorem makes it locally unique.
    """
    q = np.asarray(q, dtype=float)
    n, k, wdim = bg.n, bg.k, bg.W.dim
    shifted = _shifted_at_zero(bg, q)

    # active constraints at q determine the local tangent quadrant
    active = [i for i in range(k) if abs(q[i]) <= DEFAULT_TOL]
    if not active:
        return build_parametrization(bg, q, radius=radius)
    if active != list(range(len(active))):
        raise GermforgeError(
            "boundary construction expects the active constraints to be the leading coordinates"
        )
    local_rank = len(active)

    J = fd_jacobian(shifted, np.zeros(bg.domain_dim))
    if not is_surjective(J):
        raise NotSurjective("linearization at the corner zero is not onto")

    inner = None
    if wdim:
        inner = ContractionGerm(
            parameter_space=bg.parameter_space, solution_space=bg.W,
            B=lambda v, w: w - bg.project_W(shifted(np.concatenate([v, w]))),
            contraction_schedule=dict(bg.contraction_schedule),
        )
    delta = SolutionGerm(inner) if inner else (lambda v: np.zeros(0))

    def G(v):
        return shifted(np.concatenate([v, delta(v)]))[: bg.N]

    DG0 = fd_jacobian(G, np.zeros(n)) if bg.N else np.zeros((0, n))
    if bg.N and not is_surjective(DG0):
        raise NotSurjective("remainder linearization is not onto at the corner")
    _, Nprime, _, _ = svd_split(DG0) if bg.N else (0, np.eye(n), None, None)

    dp0 = germ_derivative(inner, np.zeros(n)) if wdim else None
    T = np.eye(bg.domain_dim)
    if wdim:
        T[n:, :n] = dp0
    kernel = orthonormal_columns(T[:, :n] @ Nprime)

    ambient = GradedSpace(dim=bg.domain_dim, levels=bg.W.levels,
                          weights=np.ones(bg.domain_dim), quadrant_rank=local_rank)
    sub = cones.SubspaceInQuadrant(ambient=ambient, basis=kernel)
    cert = position_certificate
    if cert is None:
        cert = cones.is_good_position(sub)
    if not getattr(cert, "ok", False):
        raise PositionNotCertified("kernel is not certified to be in good position to the corner")
    structure = cones.quadrant_structure(sub, certified=True)

    comp = cert.complement if cert.complement is not None else orthonormal_columns(
        np.eye(bg.domain_dim) - kernel @ kernel.T
    )
    # transport the good complement back through (h, w) -> (h, w - delta'(0) h)
    T_inv = np.eye(bg.domain_dim)
    if wdim:
        T_inv[n:, :n] = -dp0
    nprime_comp = T_inv @ comp
    param_block = np.zeros((bg.domain_dim, n))
    param_block[:n, :n] = np.eye(n)
    M = subspace_intersection(nprime_comp, param_block)[: n, :]
    M = orthonormal_columns(M)
    if M.shape[1] != n - Nprime.shape[1]:
        M = orthonormal_columns(np.eye(n) - Nprime @ Nprime.T)

    # chart complement: transported M plus the fiber directions
    M_amb = np.zeros((bg.domain_dim, M.shape[1]))
    M_amb[:n, :] = M
    w_amb = np.zeros((bg.domain_dim, wdim))
    w_amb[n:, :] = np.eye(wdim)
    chart_comp = orthonormal_columns(np.hstack([T @ M_amb, w_amb]))

    chart = GoodParametrization(
        base_point=q, kernel_basis=kernel, complement_basis=chart_comp, radius=radius,
        section=bg.evaluate, a_map=_graph_map(bg.evaluate, q, kernel, chart_comp),
        structure=structure, ambient_rank=local_rank,
    )
    return _shrunk_until_valid(chart)


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

    def verify_transitions(self, tol: float = 1e-8) -> bool:
        """Transition mismatch <= tol at 8 samples near each overlap's zero."""
        for i, j, zero in self.overlaps:
            tm = transition_map(self.charts[i], self.charts[j], zero)
            t0 = self.charts[j].kernel_basis.T @ (np.asarray(zero) - self.charts[j].base_point)
            rng = np.random.Generator(np.random.Philox(key=5))
            for _ in range(8):
                t = t0 + rng.uniform(-0.05, 0.05, size=self.charts[j].dim)
                if not (self.charts[j].domain_contains(t)):
                    continue
                s = tm(t)
                if not self.charts[i].domain_contains(s):
                    continue
                if tm.mismatch(t) > tol:
                    return False
        return True
