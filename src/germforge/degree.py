"""Generic perturbations, signed degree, invariance checks, form integration.

Properness is a model contract here: the user supplies a window that must
contain every zero, and escapes are loud errors.  Regular values are found
by rejection sampling with rank certificates instead of measure theory; the
counter-based RNG makes every experiment bit-reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from ._linalg import fd_jacobian, is_surjective, newton, svd_split
from .errors import (
    AtlasIncomplete,
    BudgetExceeded,
    DimensionUnsupported,
    IndexMismatch,
    InvarianceViolation,
    RetryExhausted,
    WindowEscape,
)
from .fredholm import ScPlusSection
from .orientation import AMBIENT_REFERENCE, OrientationReference, sign_of_zero
from .solution import SolutionAtlas
from .spaces import GradedSpace

ZERO_RESIDUAL = 1e-10
DEDUPE_SEPARATION = 1e-6
WINDOW_MARGIN = 1e-6
RETRY_LIMIT = 100


@dataclass(frozen=True)
class AuxiliaryNorm:
    """Fiberwise budget norm: the level-1 weighted norm of the fiber part,
    optionally modulated by a positive weight over the base."""

    fiber_space: GradedSpace
    base_weight: object = None

    def __call__(self, x, h) -> float:
        h = np.asarray(h, dtype=float)
        w = 1.0 if self.base_weight is None else float(self.base_weight(np.asarray(x, dtype=float)))
        return w * self.fiber_space.level_norm(h, min(1, self.fiber_space.levels))


@dataclass(frozen=True)
class Window:
    """Compact box in chart coordinates localizing the zero set."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("window must satisfy lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - margin) and np.all(x <= self.hi + margin))

    def margin_at(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(min(np.min(x - self.lo), np.min(self.hi - x)))


@dataclass(frozen=True)
class PerturbationProblem:
    """A section with its window, budget norm, seeds, and RNG key."""

    section: object
    window: Window
    aux_norm: AuxiliaryNorm
    budget: float = 1.0
    seeds: tuple = ()
    rng_seed: int = 0
    quadrant_rank: int = 0
    grid_starts: int = 64
    fiber_projection: object = None     # rho(x) -> matrix; identity when None

    def evaluate(self, x, extra=None):
        val = np.atleast_1d(np.asarray(self.section(np.asarray(x, dtype=float)), dtype=float))
        if extra is not None:
            val = val + extra(x)
        return val


def smooth_plateau(u: float) -> float:
    """1 on u <= 1/2, 0 on u >= 1, septic smoothstep ramp in between."""
    if u <= 0.5:
        return 1.0
    if u >= 1.0:
        return 0.0
    s = 2.0 * (u - 0.5)
    s2 = s * s
    return 1.0 - s2 * s2 * (35.0 - 84.0 * s + 70.0 * s2 - 20.0 * s2 * s)


def make_bump_section(x0, h0, region_radius: float, eps: float,
                      aux_norm: AuxiliaryNorm, levels: int,
                      fiber_projection=None) -> ScPlusSection:
    """Level-raising bump section with s(x0) = h0 exactly and support in the
    ball of the given radius around x0.

    The fiber value at y is plateau(|y - x0| / radius) * rho_y(h0), so the
    section respects the fiber projections of a spliced bundle when one is
    supplied.  Raises BudgetExceeded when the budget norm of h0 already
    reaches eps.
    """
    x0 = np.asarray(x0, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    if aux_norm(x0, h0) >= eps:
        raise BudgetExceeded(
            f"bump value has budget norm {aux_norm(x0, h0):.3e} >= eps = {eps:.3e}"
        )

    def section(y):
        y = np.asarray(y, dtype=float)
        w = smooth_plateau(float(np.linalg.norm(y - x0)) / region_radius)
        val = h0
        if fiber_projection is not None:
            val = np.atleast_2d(np.asarray(fiber_projection(y), dtype=float)) @ h0
        return w * val

    def support(y):
        return float(np.linalg.norm(np.asarray(y, dtype=float) - x0)) < region_radius

    return ScPlusSection(section=section, levels=levels, support=support,
                         marked_values={tuple(x0): h0})


@dataclass(frozen=True)
class ZeroReport:
    point: np.ndarray
    residual: float
    jacobian: np.ndarray
    singular_values: np.ndarray
    surjective: bool
    kernel_basis: np.ndarray


def enumerate_zeros(pp: PerturbationProblem, s: ScPlusSection | None = None) -> list:
    """Polished zeros of f + s inside the window, with linearization reports.

    Multi-start `newton` (damped Gauss-Newton) from the user seeds plus a
    Halton grid; converged points are deduplicated at the separation
    tolerance and must carry residual <= 1e-10.  A converged zero outside
    the window raises WindowEscape; runs that do not converge are discarded.
    Zeros violating the quadrant constraints by more than the margin are
    discarded (the model is not defined there).
    """
    extra = (lambda x: s(x)) if s is not None else None

    def func(x):
        return pp.evaluate(x, extra)

    d = pp.window.dim
    starts = [np.asarray(p, dtype=float) for p in pp.seeds]
    if pp.grid_starts:
        from scipy.stats import qmc     # imported here: scipy.stats costs ~0.5 s of import time

        sampler = qmc.Halton(d=d, scramble=True, seed=pp.rng_seed)
        pts = qmc.scale(sampler.random(pp.grid_starts), pp.window.lo, pp.window.hi)
        starts.extend(np.asarray(p) for p in pts)
    zeros = []
    for x0 in starts:
        x, res, ok = newton(func, x0)
        if not ok or res > ZERO_RESIDUAL:
            continue
        nq = pp.quadrant_rank
        if nq:
            head = x[:nq]
            if np.any(head < -WINDOW_MARGIN):
                continue
            x = x.copy()
            x[:nq] = np.where(np.abs(head) <= 1e-12, 0.0, head)
        if not pp.window.contains(x, margin=WINDOW_MARGIN):
            raise WindowEscape(
                f"polished zero {x} escaped the window; model is not proper on it",
                point=x,
            )
        if any(np.linalg.norm(x - z.point) < DEDUPE_SEPARATION for z in zeros):
            continue
        J = fd_jacobian(func, x)
        rank, kernel, coker, sv = svd_split(J)
        zeros.append(ZeroReport(
            point=x, residual=res, jacobian=J, singular_values=sv,
            surjective=bool(coker.shape[1] == 0), kernel_basis=kernel,
        ))
    zeros.sort(key=lambda z: tuple(np.round(z.point, 9)))
    return zeros


def _boundary_tangent(pp: PerturbationProblem, x, tol=1e-9):
    """Basis of the intersection of the active face tangents at x."""
    d = pp.window.dim
    active = [i for i in range(pp.quadrant_rank) if abs(x[i]) <= tol]
    keep = [i for i in range(d) if i not in active]
    return np.eye(d)[:, keep], active


def _transversality_ok(pp: PerturbationProblem, zero: ZeroReport, mode: str) -> tuple[bool, float]:
    """Rank checks at one zero; returns (ok, worst margin)."""
    if not zero.surjective:
        sv = zero.singular_values
        gap = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0 else 0.0
        return False, gap
    worst = 1.0
    if mode == "full_boundary" and pp.quadrant_rank:
        tangent, active = _boundary_tangent(pp, zero.point)
        if active:
            d = pp.window.dim
            stacked = np.hstack([zero.kernel_basis, tangent])
            rank = np.linalg.matrix_rank(stacked, tol=1e-8)
            if rank < d:
                return False, 0.0
            for subset_size in range(1, len(active) + 1):
                # restriction to each face intersection stays surjective and
                # its kernel stays transversal to the face's boundary tangent
                for subset in combinations(active, subset_size):
                    keep = [i for i in range(d) if i not in subset]
                    FB = np.eye(d)[:, keep]
                    J_face = zero.jacobian @ FB
                    if not is_surjective(J_face):
                        return False, 0.0
                    _, ker_face, _, _ = svd_split(J_face)
                    boundary_cols = np.eye(len(keep))[:, [p for p, j in enumerate(keep)
                                                          if j not in active]]
                    stacked_face = np.hstack([ker_face, boundary_cols])
                    if np.linalg.matrix_rank(stacked_face, tol=1e-8) < len(keep):
                        return False, 0.0
    return True, worst


@dataclass(frozen=True)
class PerturbationOutcome:
    perturbation: ScPlusSection
    zeros: tuple
    lambdas: np.ndarray
    retries: int
    seed: int
    mode: str


def _zero_section(levels: int) -> ScPlusSection:
    # scalar zero broadcasts against any fiber dimension
    return ScPlusSection(section=lambda x: 0.0, levels=levels)


def _combine(bumps, lambdas, levels: int) -> ScPlusSection:
    if not bumps:
        return _zero_section(levels)

    def section(x):
        total = None
        for lam, b in zip(lambdas, bumps):
            v = lam * b(x)
            total = v if total is None else total + v
        return total

    def support(x):
        return any(b.support_contains(x) for b in bumps)

    return ScPlusSection(section=section, levels=levels, support=support)


def generic_perturbation(pp: PerturbationProblem, mode: str = "interior_only") -> PerturbationOutcome:
    """A finite bump combination making every zero of f + s transversal.

    If f is already transversal (and, in full_boundary mode, its kernels are
    transversal to the boundary strata with surjective face restrictions),
    the zero perturbation is accepted.  Otherwise bump sections are placed at
    the degenerate zeros and the coefficients lambda are rejection-sampled
    within the budget until every rank certificate passes; the retry limit
    makes failures loud.
    """
    if mode not in ("interior_only", "full_boundary"):
        raise ValueError(f"unknown mode {mode!r}")
    levels = pp.aux_norm.fiber_space.levels
    zeros = enumerate_zeros(pp)
    if all(_transversality_ok(pp, z, mode)[0] for z in zeros):
        out = _zero_section(levels)
        return PerturbationOutcome(perturbation=out, zeros=tuple(zeros),
                                   lambdas=np.zeros(0), retries=0, seed=pp.rng_seed, mode=mode)

    # bump directions: cokernel defects plus generic fiber directions
    bumps = []
    out_dim = np.atleast_1d(pp.evaluate(np.asarray(zeros[0].point) if zeros else pp.window.lo)).size
    rng = np.random.Generator(np.random.Philox(key=pp.rng_seed))
    anchors = [z.point for z in zeros] or [0.5 * (pp.window.lo + pp.window.hi)]
    boundary_avoiding = mode == "interior_only" and pp.quadrant_rank > 0
    for anchor in anchors:
        radius = pp.window.margin_at(anchor)
        if boundary_avoiding:
            # the perturbation must vanish near the boundary faces, so only
            # interior anchors get bumps and their supports stay clear
            face_dist = float(np.min(anchor[: pp.quadrant_rank])) if pp.quadrant_rank else np.inf
            if face_dist <= 1e-6:
                continue
            radius = min(radius, face_dist)
        radius = max(0.8 * radius, 1e-3)
        for _ in range(max(1, out_dim)):
            h = rng.normal(size=out_dim)
            h /= max(pp.aux_norm(anchor, h), 1e-12)
            h *= 0.45 * pp.budget
            bumps.append(make_bump_section(anchor, h, radius, pp.budget, pp.aux_norm,
                                           levels, pp.fiber_projection))
    if not bumps:
        raise RetryExhausted(
            "no admissible bump anchors: every degenerate zero sits on the boundary, "
            "where a boundary-avoiding perturbation cannot act",
            failing_zero=anchors[0] if anchors else None,
        )

    last_fail = None
    for attempt in range(RETRY_LIMIT):
        lam = rng.uniform(-1.0, 1.0, size=len(bumps))
        lam /= max(np.sum(np.abs(lam)), 1.0)     # keep the combination inside the budget
        lam *= rng.uniform(0.2, 1.0)
        s = _combine(bumps, lam, levels)
        try:
            zs = enumerate_zeros(pp, s)
        except WindowEscape as exc:
            last_fail = (None, str(exc))
            continue
        checks = [_transversality_ok(pp, z, mode) for z in zs]
        if zs and all(ok for ok, _ in checks):
            return PerturbationOutcome(perturbation=s, zeros=tuple(zs), lambdas=lam,
                                       retries=attempt, seed=pp.rng_seed, mode=mode)
        if not zs:
            # zero set emptied out; acceptable only for problems that had
            # no stable zero to begin with (e.g. a grazing tangency)
            return PerturbationOutcome(perturbation=s, zeros=(), lambdas=lam,
                                       retries=attempt, seed=pp.rng_seed, mode=mode)
        bad = [z for (ok, _), z in zip(checks, zs) if not ok]
        gaps = [gap for ok, gap in checks if not ok]
        last_fail = (bad[0].point if bad else None, f"rank gap {min(gaps) if gaps else 'n/a'}")
    raise RetryExhausted(
        f"no regular value found in {RETRY_LIMIT} attempts; last failure at {last_fail}",
        failing_zero=None if last_fail is None else last_fail[0],
        rank_gap=None if last_fail is None else last_fail[1],
    )


def compute_degree(pp: PerturbationProblem,
                   reference: OrientationReference = AMBIENT_REFERENCE,
                   mode: str = "interior_only",
                   outcome: PerturbationOutcome | None = None) -> int:
    """Signed count of the zeros of a generic perturbation of f.

    Requires index 0: the linearizations at zeros must be square.  The
    result is deterministic given the problem's RNG seed.
    """
    if outcome is None:
        outcome = generic_perturbation(pp, mode)
    total = 0
    extra = outcome.perturbation
    # the zero reports hold their Jacobians; a base-zero reference adds one
    held = {z.point.tobytes(): z.jacobian for z in outcome.zeros}

    def jac_at(x):
        if x.tobytes() not in held:
            held[x.tobytes()] = fd_jacobian(lambda y: pp.evaluate(y, extra), x)
        return held[x.tobytes()]

    for z in outcome.zeros:
        J = z.jacobian
        if J.shape[0] != J.shape[1]:
            raise IndexMismatch(
                f"degree needs index 0; linearization at {z.point} has shape {J.shape}"
            )
        total += sign_of_zero(jac_at, z.point, reference)
    return total


@dataclass(frozen=True)
class InvarianceReport:
    degree: int
    trial_degrees: tuple
    homotopy_degrees: tuple
    seed: int


def invariance_suite(pp: PerturbationProblem, trials: int = 10,
                     homotopy_shift=None, homotopy_grid: int = 11,
                     mode: str = "interior_only") -> InvarianceReport:
    """Degree stability across independent perturbations and a homotopy.

    Each trial owns the derived RNG stream (seed, trial).  When
    `homotopy_shift` is supplied (a callable t, x -> fiber vector), the
    degree is also computed along f + shift_t on a t-grid, skipping
    non-transversal grid points after retries.  Any disagreement raises
    InvarianceViolation with full diagnostics.
    """
    base_outcome = generic_perturbation(pp, mode)
    base_degree = compute_degree(pp, mode=mode, outcome=base_outcome)
    trial_degrees = []
    for trial in range(trials):
        derived = int(np.random.SeedSequence((pp.rng_seed, trial)).generate_state(1)[0])
        pp_t = replace(pp, rng_seed=derived)
        deg = compute_degree(pp_t, mode=mode)
        trial_degrees.append(deg)
        if deg != base_degree:
            raise InvarianceViolation(
                f"trial {trial} gave degree {deg} != {base_degree}",
                details={"trial": trial, "seed": pp_t.rng_seed},
            )
    homotopy_degrees = []
    if homotopy_shift is not None:
        for i, t in enumerate(np.linspace(0.0, 1.0, homotopy_grid)):
            shifted = replace(pp, section=(lambda x, _t=t: pp.evaluate(x) + np.atleast_1d(homotopy_shift(_t, x))),
                              rng_seed=pp.rng_seed + 1000 + i)
            try:
                deg = compute_degree(shifted, mode=mode)
            except RetryExhausted:
                continue
            homotopy_degrees.append((float(t), deg))
            if deg != base_degree:
                raise InvarianceViolation(
                    f"homotopy t={t:.3f} gave degree {deg} != {base_degree}",
                    details={"t": float(t)},
                )
    return InvarianceReport(degree=base_degree, trial_degrees=tuple(trial_degrees),
                            homotopy_degrees=tuple(homotopy_degrees), seed=pp.rng_seed)


@dataclass(frozen=True)
class DifferentialForm:
    """Coefficient representation of a k-form for k <= 2.

    degree 0: coeff(x) -> scalar; degree 1: coeff(x) -> covector; degree 2:
    coeff(x) -> antisymmetric matrix acting as (u, v) -> u^T M v.
    """

    degree: int
    coeff: object

    def pullback(self, x, tangent_columns):
        c = self.coeff(np.asarray(x, dtype=float))
        if self.degree == 0:
            return float(c)
        if self.degree == 1:
            return float(np.asarray(c, dtype=float) @ tangent_columns[:, 0])
        if self.degree == 2:
            M = np.asarray(c, dtype=float)
            u, v = tangent_columns[:, 0], tangent_columns[:, 1]
            return float(u @ M @ v)
        raise DimensionUnsupported(f"form degree {self.degree} > 2")


def _chart_orientation_sign(chart, t) -> int:
    """Co-orientation sign: det of [Df(Gamma(t)); tangent^T] (square)."""
    J = chart.jacobian(chart.gamma(t))
    M = np.vstack([J, chart.kernel_transport(t).T])
    if M.shape[0] != M.shape[1]:
        raise IndexMismatch(f"chart/section dimensions {M.shape} do not stack square")
    d = np.linalg.det(M)
    return 1 if d > 0 else -1


def _chart_weight(chart, x, support_scale: float) -> float:
    """Unnormalized plateau weight of a chart at a manifold point."""
    t = chart.kernel_basis.T @ (np.asarray(x, dtype=float) - chart.base_point)
    if not chart.domain_contains(t):
        return 0.0
    if np.max(np.abs(chart.gamma(t) - x)) > 1e-7:
        return 0.0
    return smooth_plateau(float(np.linalg.norm(t)) / (support_scale * chart.radius))


def integrate_form(atlas: SolutionAtlas, omega: DifferentialForm,
                   reference: OrientationReference = AMBIENT_REFERENCE,
                   nodes_per_axis: int = 320, support_scale: float = 0.95,
                   jacobian_at=None, cover_points=None) -> float:
    """Chart-wise pullback-and-quadrature of a form over an oriented atlas.

    A smooth partition of unity over the charts (plateau weights normalized
    on overlaps) multiplies the pulled-back form, which is then integrated
    by tensor Gauss-Legendre on each chart domain.  Components whose
    dimension does not match the form degree contribute zero.  Supports
    k <= 2.  When `cover_points` (samples of the solution set, e.g. from
    zero enumeration) are supplied, the atlas must give every one of them
    positive partition weight, else AtlasIncomplete is raised.
    """
    if omega.degree > 2:
        raise DimensionUnsupported(f"form degree {omega.degree} > 2")
    if not atlas.charts:
        raise AtlasIncomplete("empty atlas")
    if cover_points is not None and not atlas_covers_points(atlas, cover_points, support_scale):
        raise AtlasIncomplete("charts do not cover the supplied solution samples")

    total = 0.0
    for chart in atlas.charts:
        k = chart.dim
        if k != omega.degree:
            continue
        if k == 0:
            x = chart.gamma(np.zeros(0))
            jac = jacobian_at if jacobian_at is not None else (lambda p, _c=chart: _c.jacobian(p))
            total += sign_of_zero(jac, x, reference) * float(omega.coeff(x))
            continue
        if reference.kind != "ambient":
            raise ValueError("positive-dimensional integration uses the ambient reference orientation")
        sign = _chart_orientation_sign(chart, np.zeros(k))
        half = support_scale * chart.radius
        glx, glw = np.polynomial.legendre.leggauss(nodes_per_axis)
        scaled_nodes = half * glx      # maps [-1,1] -> [-half, half]
        scaled_w = half * glw
        if k == 1:
            for tval, w in zip(scaled_nodes, scaled_w):
                t = np.array([tval])
                if not chart.domain_contains(t):
                    continue
                x = chart.gamma(t)
                wgt = _chart_weight(chart, x, support_scale)
                if wgt == 0.0:
                    continue
                norm = sum(_chart_weight(c2, x, support_scale) for c2 in atlas.charts)
                total += sign * w * (wgt / norm) * omega.pullback(x, chart.kernel_transport(t))
        else:
            for t1, w1 in zip(scaled_nodes, scaled_w):
                for t2, w2 in zip(scaled_nodes, scaled_w):
                    t = np.array([t1, t2])
                    if not chart.domain_contains(t):
                        continue
                    x = chart.gamma(t)
                    wgt = _chart_weight(chart, x, support_scale)
                    if wgt == 0.0:
                        continue
                    norm = sum(_chart_weight(c2, x, support_scale) for c2 in atlas.charts)
                    total += sign * w1 * w2 * (wgt / norm) * omega.pullback(x, chart.kernel_transport(t))
    return total


def atlas_covers_points(atlas: SolutionAtlas, points, support_scale: float = 0.95) -> bool:
    """Every point must receive positive partition weight from some chart."""
    for p in points:
        if not any(_chart_weight(c, np.asarray(p, dtype=float), support_scale) > 0 for c in atlas.charts):
            return False
    return True
