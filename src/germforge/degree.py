"""Generic perturbations, signed degree, invariance checks, form integration.

Properness is a model contract here: the user supplies a window that must
contain every zero, and escapes are loud errors.  Regular values are found
by rejection sampling with rank certificates instead of measure theory; the
counter-based RNG makes every experiment bit-reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
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
from .solution import NEWTON_TOL, SolutionAtlas, _tangent
from .spaces import GradedSpace
from .splicing import local_faces

ZERO_RESIDUAL = 1e-10
DEDUPE_SEPARATION = 1e-6
WINDOW_MARGIN = 1e-6
RETRY_LIMIT = 100
BASIN_GATE = 1e-4      # sigma_min / sigma_max below which a zero gets no basin
HOMOTOPY_GRID = 11     # homotopy parameters t sampled by invariance_suite


@dataclass(frozen=True)
class AuxiliaryNorm:
    """Fiberwise budget norm: the level-1 weighted norm of the fiber part,
    the same over every base point x."""

    fiber_space: GradedSpace

    def __call__(self, x, h) -> float:
        h = np.asarray(h, dtype=float)
        return self.fiber_space.level_norm(h, min(1, self.fiber_space.levels))


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

    return ScPlusSection(section=section, levels=levels, support=support)


@dataclass(frozen=True)
class ZeroReport:
    point: np.ndarray
    residual: float
    jacobian: np.ndarray
    singular_values: np.ndarray
    surjective: bool
    kernel_basis: np.ndarray
    basin_radius: float


def _basin_radius(func, x, J, sv, r: float) -> float:
    """Sampled radius 2/(3 beta L) of Newton's basin around the zero x: beta =
    1/sigma_min and L = |(D_1, ..., D_n)| / r, D_j = max |J(x +- r e_j) - J|_F.
    D_j sees the mixed second derivatives too, and L bounds the Lipschitz
    constant of an affine J (quadratic f).  r shrinks to 2/(3 beta L) and is
    sampled once more.  A non-square or gated J (sigma_min / sigma_max <
    BASIN_GATE), a non-finite sample and an underflow give 0."""
    if J.shape[0] != J.shape[1] or not (sv.size and sv[-1] > BASIN_GATE * sv[0] and r > 0):
        return 0.0
    beta, n = 1.0 / float(sv[-1]), x.size
    for _ in range(2):
        with np.errstate(invalid="ignore"):     # inf - inf off a domain: a NaN, no warning
            d = [np.linalg.norm(fd_jacobian(func, x + r * e) - J) for e in np.vstack([np.eye(n), -np.eye(n)])]
        rl = float(np.hypot.reduce(np.maximum(d[:n], d[n:])))     # r L; np.maximum keeps a NaN
        if not rl < np.inf:
            return 0.0
        if 3.0 * beta * rl <= 2.0:
            break
        r = 2.0 * r / (3.0 * beta * rl)
    return r


def enumerate_zeros(pp: PerturbationProblem, s: ScPlusSection | None = None) -> list:
    """Polished zeros of f + s inside the window, with linearization reports.

    Multi-start `newton` (damped Gauss-Newton) from the user seeds plus a
    Halton grid; converged points are deduplicated at the separation
    tolerance and must carry residual <= 1e-10.  A converged zero outside
    the window raises WindowEscape; runs that do not converge are discarded.
    Zeros violating the quadrant constraints by more than the margin are
    discarded (the model is not defined there).

    Each new well-conditioned square zero gets a sampled Newton basin
    (`_basin_radius`, Traub-Wozniakowski's 2/(3 beta L)); a later start that
    lies in a basin, or whose accepted iterate enters one, is stopped, as it
    would only polish that zero again.  The reports are those of the full
    runs when the sampled L is a Lipschitz constant of J on the ball, as for
    quadratic maps; a Jacobian that varies far more between the samples than
    at them can give a basin that swallows another zero or a window escape.
    """
    def func(x):
        return pp.evaluate(x, s)

    d = pp.window.dim
    starts = [np.asarray(p, dtype=float) for p in pp.seeds]
    if pp.grid_starts:
        from scipy.stats import qmc     # imported here: scipy.stats costs ~0.5 s of import time

        sampler = qmc.Halton(d=d, scramble=True, seed=pp.rng_seed)
        pts = qmc.scale(sampler.random(pp.grid_starts), pp.window.lo, pp.window.hi)
        starts.extend(np.asarray(p) for p in pts)
    zeros, basins = [], []      # basins: (centre, radius) of the zeros that have one

    def in_basin(x):            # checked at every Newton iterate, so kept cheap
        x = x.tolist()
        return any(math.dist(x, c) < r for c, r in basins)

    for x0 in starts:
        if in_basin(x0):
            continue
        x, res, ok = newton(func, x0, stop=in_basin)
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
            basin_radius=_basin_radius(func, x, J, sv, pp.window.margin_at(x)),
        ))
        if zeros[-1].basin_radius:
            basins.append((x.tolist(), zeros[-1].basin_radius))
    zeros.sort(key=lambda z: tuple(np.round(z.point, 9)))
    return zeros


def _transversality_ok(pp: PerturbationProblem, zero: ZeroReport, mode: str) -> tuple[bool, float]:
    """Rank checks at one zero; returns (ok, rank gap), the gap 1.0 when ok."""
    if not zero.surjective:
        sv = zero.singular_values
        gap = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0 else 0.0
        return False, gap
    if mode == "full_boundary" and pp.quadrant_rank:
        faces = local_faces(zero.point, GradedSpace(dim=pp.window.dim, quadrant_rank=pp.quadrant_rank))
        tangent = faces.boundary_tangent_basis
        active = [face.constraint_index for face in faces.faces]
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
    return True, 1.0


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
            bumps.append(make_bump_section(anchor, h, radius, pp.budget, pp.aux_norm, levels))
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


def invariance_suite(pp: PerturbationProblem, trials: int = 10, homotopy_shift=None) -> InvarianceReport:
    """Degree stability across independent interior-only perturbations and a
    homotopy.

    Each trial owns the derived RNG stream (seed, trial).  When
    `homotopy_shift` is supplied (a callable t, x -> fiber vector), the
    degree is also computed along f + shift_t on HOMOTOPY_GRID evenly spaced
    t in [0, 1], skipping
    non-transversal grid points after retries.  Any disagreement raises
    InvarianceViolation with full diagnostics.
    """
    base_degree = compute_degree(pp)
    trial_degrees = []
    for trial in range(trials):
        derived = int(np.random.SeedSequence((pp.rng_seed, trial)).generate_state(1)[0])
        pp_t = replace(pp, rng_seed=derived)
        deg = compute_degree(pp_t)
        trial_degrees.append(deg)
        if deg != base_degree:
            raise InvarianceViolation(
                f"trial {trial} gave degree {deg} != {base_degree}",
                details={"trial": trial, "seed": pp_t.rng_seed},
            )
    homotopy_degrees = []
    if homotopy_shift is not None:
        for i, t in enumerate(np.linspace(0.0, 1.0, HOMOTOPY_GRID)):
            shifted = replace(pp, section=(lambda x, _t=t: pp.evaluate(x) + np.atleast_1d(homotopy_shift(_t, x))),
                              rng_seed=pp.rng_seed + 1000 + i)
            try:
                deg = compute_degree(shifted)
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
    """Co-orientation sign: det of [Df(Gamma(t)); tangent^T] (square), the
    tangent taken from the same Jacobian."""
    J = chart.jacobian(chart.gamma(t))
    M = np.vstack([J, _tangent(chart, J).T])
    if M.shape[0] != M.shape[1]:
        raise IndexMismatch(f"chart/section dimensions {M.shape} do not stack square")
    d = np.linalg.det(M)
    return 1 if d > 0 else -1


# a chart covers x when its graph passes within this distance of x
COVER_TOL = 1e-7
# cells are clipped at this share of their chart's radius
SUPPORT_SCALE = 0.95


def _covering_u(chart, x) -> float:
    """u = |t| / radius of x in the chart, t = K^T (x - q), when the chart
    covers x (t lies in its domain and Gamma(t) = x); inf otherwise."""
    x = np.asarray(x, dtype=float)
    t = chart.kernel_basis.T @ (x - chart.base_point)
    if not chart.domain_contains(t) or np.max(np.abs(chart.gamma(t) - x)) > COVER_TOL:
        return np.inf
    return float(np.linalg.norm(t)) / chart.radius


def _direction(theta: float) -> np.ndarray:
    return np.array([np.cos(theta), np.sin(theta)])


@lru_cache(maxsize=64)
def _legendre(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only since they are
    cached: leggauss(32) takes 0.7 ms, more than a chart point."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_legendre(a: float, b: float, count: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _legendre(count)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _spread(count: int, widths) -> list:
    """`count` nodes over pieces in proportion to their widths, at least one each."""
    widths = np.asarray(widths, dtype=float)
    if not widths.size:
        return []
    share = widths / widths.sum() * max(count - widths.size, 0)
    counts = 1 + np.floor(share).astype(int)
    for j in np.argsort(np.floor(share) - share, kind="stable")[: max(count - int(counts.sum()), 0)]:
        counts[j] += 1
    return [int(c) for c in counts]


def _shrink_bracket(f, neg: float, pos: float, f_neg: float, f_pos: float, tol: float):
    """Shrink a bracket f(neg) < 0 < f(pos) to |pos - neg| <= tol by the
    Anderson-Bjorck variant of regula falsi.  Returns (root, pos): the
    secant root of the final bracket, and its end where f >= 0."""
    a, b, fa, fb = neg, pos, f_neg, f_pos      # fa, fb get scaled by the Anderson-Bjorck rule
    side = 0
    while abs(pos - neg) > tol:
        # the secant point, kept tol/2 inside the bracket: once it hugs the
        # end nearest the root, this step crosses the root and ends the solve
        x = min(max((a * fb - b * fa) / (fb - fa), min(neg, pos) + 0.5 * tol), max(neg, pos) - 0.5 * tol)
        fx = f(x)
        if fx == 0:
            return x, x
        if fx < 0:
            if side < 0:                # pos stayed put twice: scale its value down
                r = fx / fa
                fb *= 1.0 - r if r < 1 else 0.5
            a, fa, neg, f_neg = x, fx, x, fx
            side = -1
        else:
            if side > 0:
                r = fx / fb
                fa *= 1.0 - r if r < 1 else 0.5
            b, fb, pos, f_pos = x, fx, x, fx
            side = 1
    return neg + (pos - neg) * f_neg / (f_neg - f_pos), pos


class _Cell:
    """The cell of one chart among the charts of its dimension: the points it
    covers where u = |t| / radius is smallest among the covering charts,
    clipped to |t| <= rho_max.

    In polar chart coordinates t = rho e the cell is {rho <= rho(e)}.  Along
    each ray it ends where u = u_j for a neighbour j that covers the point
    there, or at rho_max.  The u_j along the ray come from the linear
    projections t_j = K_j^T (x - q_j).  Coverage is checked only where a
    neighbour claims the ray: at rho_max, and at the crossing.  Crossings are
    bracketed scalar root solves down to a bracket of sqrt(NEWTON_TOL) rho_max,
    whose secant root is then good to about NEWTON_TOL rho_max: the chart
    points they are computed from are no more accurate than that.
    """

    def __init__(self, chart, neighbours, rho_max: float):
        self.chart = chart
        self.neighbours = neighbours
        self.rho_max = rho_max
        self.tol = np.sqrt(NEWTON_TOL) * rho_max

    def excess(self, t):
        """(Gamma(t), u - u_j for every neighbour j, u_j by linear projection)."""
        x = self.chart.gamma(t)
        u = float(np.linalg.norm(t)) / self.chart.radius
        return x, np.array([u - np.linalg.norm(c.kernel_basis.T @ (x - c.base_point)) / c.radius
                            for c in self.neighbours])

    def _crossing(self, e, claims, lo: float = 0.0, guess=None):
        """(root, pos): where the largest u - u_j, j in claims, changes sign
        along t = rho e between lo and rho_max, and the end of the final
        bracket past it.  None when the sign does not change.  A `guess`
        inside the bracket splits it first."""
        def worst(rho):
            return float(np.max(self.excess(rho * e)[1][claims]))

        f_lo = worst(lo)
        if not f_lo < 0:
            return None
        hi, f_hi = self.rho_max, None
        if guess is not None and lo < guess < hi:
            f_guess = worst(guess)
            if f_guess >= 0:
                hi, f_hi = guess, f_guess
            else:
                lo, f_lo = guess, f_guess
        if f_hi is None:
            f_hi = worst(hi)
            if not f_hi > 0:
                return None
        if f_hi == 0:
            return hi, hi
        return _shrink_bracket(worst, lo, hi, f_lo, f_hi, self.tol)

    def limit(self, e):
        """(rho(e), the neighbour that ends the cell along e, or None when it
        reaches rho_max)."""
        x, g = self.excess(self.rho_max * e)
        claims = [j for j in np.flatnonzero(g > 0) if np.isfinite(_covering_u(self.neighbours[j], x))]
        lo = 0.0
        while claims:
            hit = self._crossing(e, claims, lo)
            if hit is None:         # a neighbour claims the ray from its start
                return lo, claims[0]
            rho, pos = hit
            x, g = self.excess(pos * e)
            crossed = [j for j in claims if g[j] >= 0]
            for j in crossed:
                if np.isfinite(_covering_u(self.neighbours[j], x)):
                    return rho, j
            claims = [j for j in claims if j not in crossed]
            lo = pos
        return self.rho_max, None

    def _sector(self):
        """Angle intervals of the directions in the chart's domain (k = 2):
        the quadrant constraints of a boundary chart cut out a sector."""
        chart = self.chart
        edges = []
        if chart.structure is not None:
            rows = (chart.structure.to_standard @ chart.kernel_basis)[: chart.structure.quadrant_count]
            edges = sorted({(float(np.arctan2(a0, -a1)) + turn) % (2 * np.pi)
                            for a0, a1 in rows for turn in (0.0, np.pi)})
        if not edges:
            return [(0.0, 2 * np.pi)]
        return [(a, b) for a, b in zip(edges, edges[1:] + [edges[0] + 2 * np.pi])
                if chart.domain_contains(0.5 * chart.radius * _direction(0.5 * (a + b)))]

    def _reach(self, e, label, guess):
        """(rho, stray): rho where the cell's boundary against `label` meets
        the ray e, by linear projection alone (rho_max for None, or where it
        does not meet); `guess` narrows the starting bracket.  A covering
        neighbour that is further past its own boundary there than `label`
        (or past it at all, for None) claims the ray earlier: the ray lies
        in a piece the scan missed.  Then rho = limit(e), and stray is the
        neighbour that ends the ray if rho falls short by more than the
        solve's tolerance, else None.  A neighbour whose projection ties
        with `label`'s, as opposite charts of a symmetric atlas do, is not
        past it, so the check costs no chart evaluation there."""
        hit = None if label is None else self._crossing(e, [label], 0.0, guess)
        rho, pos = (self.rho_max, self.rho_max) if hit is None else hit
        x, g = self.excess(pos * e)
        ahead = 0.0 if label is None else max(g[label], 0.0)
        if not any(g[j] > ahead and np.isfinite(_covering_u(c, x)) for j, c in enumerate(self.neighbours)):
            return rho, None
        limit, stray = self.limit(e)
        return limit, stray if limit < rho - self.tol else None

    def _boundaries(self, t, labels):
        """u - u_label for each label (u - rho_max / radius for None).  Past
        rho_max, u_label is taken at t scaled back to |t| = rho_max while u
        keeps growing, so that a solver stepping out is pulled back."""
        norm = float(np.linalg.norm(t))
        past = max(norm - self.rho_max, 0.0)
        g = self.excess(t * (self.rho_max / norm) if past else t)[1] + past / self.chart.radius
        return np.array([(norm - self.rho_max) / self.chart.radius if label is None else g[label]
                         for label in labels])

    def _corner(self, ray1, ray2):
        """(theta, rho) between two scanned rays (theta, rho, label) with
        different labels where the cell's boundaries against both labels
        meet: a Newton solve in chart coordinates from the middle angle at
        the rays' mean limit.  When that fails, the middle angle, with rho
        unknown."""
        (th1, rho1, l1), (th2, rho2, l2) = ray1, ray2
        mid = 0.5 * (th1 + th2)
        t, _, converged = newton(lambda t: self._boundaries(t, (l1, l2)),
                                 0.5 * (rho1 + rho2) * _direction(mid), tol=np.sqrt(NEWTON_TOL))
        th = mid + (float(np.arctan2(t[1], t[0])) - mid + np.pi) % (2 * np.pi) - np.pi
        # a corner on a scanned ray may land a rounding error outside
        slack = np.sqrt(NEWTON_TOL)
        if converged and th1 - slack <= th <= th2 + slack:
            return float(np.clip(th, th1, th2)), float(np.linalg.norm(t))
        return mid, None

    def pieces(self, count: int, extra=()) -> list:
        """(a, b, label, known): angle intervals on each of which one label
        ends every ray, i.e. the domain's sector split at the cell's corners,
        with the (theta, rho) of the cell boundary known on each.  The
        corners are found between neighbouring rays of an even scan of one
        ray per four angular nodes, and at least two per neighbour, plus the
        `extra` rays (theta, rho, label); a piece narrower than the scan's
        step can be missed.  The scan starts a golden-ratio fraction of a
        step into the sector, off the symmetric angles where corners of
        symmetric atlases sit; on the whole circle it wraps around."""
        out = []
        sector = self._sector()
        offset = (np.sqrt(5.0) - 1.0) / 2.0
        scan = max(count // 4, 2 * len(self.neighbours))
        for (a, b), m in zip(sector, _spread(scan, [b - a for a, b in sector])):
            rays = [(th, *self.limit(_direction(th))) for th in a + (b - a) * (np.arange(m) + offset) / m]
            rays = sorted(rays + [(th + turn, rho, label) for th, rho, label in extra
                                  for turn in (-2 * np.pi, 0.0, 2 * np.pi) if a <= th + turn < b],
                          key=lambda ray: ray[0])
            scanned = list(rays)
            whole = b - a == 2 * np.pi
            if whole:
                th, rho, label = rays[0]
                rays.append((th + 2 * np.pi, rho, label))
            cuts = []                       # (theta, rho, label after it)
            for r1, r2 in zip(rays, rays[1:]):
                if r1[2] != r2[2]:
                    cuts.append((*self._corner(r1, r2), r2[2]))
            if whole and cuts:
                ends = cuts[1:] + [(cuts[0][0] + 2 * np.pi, *cuts[0][1:])]
                bounds = list(zip(cuts, ends))
            else:
                bounds = list(zip([(a, None, rays[0][2])] + cuts, cuts + [(b, None, None)]))
            for (c1, rho1, label), (c2, rho2, _) in bounds:
                known = [(th + turn, rho) for th, rho, _ in scanned for turn in (-2 * np.pi, 0.0, 2 * np.pi)
                         if c1 <= th + turn <= c2]
                known = [(c1, rho1)] * (rho1 is not None) + known + [(c2, rho2)] * (rho2 is not None)
                out.append((c1, c2, label, known))
        return out

    def _polar(self, count: int, pieces):
        """(nodes, strays) of the polar rule over `pieces` (k = 2): `count`
        angles spread over the pieces, each ray integrated by `count` radial
        nodes with weight rho; a piece's rays follow its label, each from a
        guess interpolated between the rays known on the piece.  strays are
        the rays (theta, rho, label) that found a piece the scan missed."""
        out, strays = [], []
        for (a, b, label, known), m in zip(pieces, _spread(count, [p[1] - p[0] for p in pieces])):
            for th, w_th in zip(*_gauss_legendre(a, b, m)):
                e = _direction(th)
                xs, ys = zip(*sorted(known)) if known else ((), ())
                rho, stray = self._reach(e, label, float(np.interp(th, xs, ys)) if known else None)
                if stray is not None:
                    strays.append((th, rho, stray))
                known.append((th, rho))
                for r, w in zip(*_gauss_legendre(0.0, rho, count)):
                    out.append((r * e, w_th * w * r))
        return out, strays

    def nodes(self, count: int) -> list:
        """(t, weight) of the polar Gauss-Legendre rule on the cell, count**k
        nodes.  k = 1: the limits of the rays t = +-rho bound one interval
        (a ray outside the domain has limit 0), integrated by `count` nodes.
        k = 2: the rule of `_polar` on the cell's pieces.  Should its rays
        find pieces the scan missed, the pieces are rescanned once with
        those rays added, so that the rule again splits at every corner."""
        chart = self.chart
        if chart.dim == 1:
            ends = [self.limit(e)[0] if chart.domain_contains(0.5 * chart.radius * e) else 0.0
                    for e in (-np.ones(1), np.ones(1))]
            return [(np.array([t]), w) for t, w in zip(*_gauss_legendre(-ends[0], ends[1], count))]
        out, strays = self._polar(count, self.pieces(count))
        if strays:
            out, _ = self._polar(count, self.pieces(count, strays))
        return out


def _quadrature_rule(atlas: SolutionAtlas, degree: int, nodes_per_axis: int) -> list:
    """(signed weight, Gamma(t), DGamma(t)) at every node of the atlas's
    charts of dimension `degree`, chart by chart in atlas order, the weight
    times the chart's orientation sign.  A 0-dimensional chart is one node of
    weight sign_of_zero at its point.  Built once per (degree, nodes_per_axis)
    and kept in the atlas's `_rules`."""
    key = (degree, nodes_per_axis)
    if key in atlas._rules:
        return atlas._rules[key]
    rule = []
    charts = [c for c in atlas.charts if c.dim == degree]
    for i, chart in enumerate(charts):
        if degree == 0:
            x = chart.gamma(np.zeros(0))
            rule.append((sign_of_zero(chart.jacobian, x), x, chart.kernel_basis))
            continue
        sign = _chart_orientation_sign(chart, np.zeros(degree))
        cell = _Cell(chart, charts[:i] + charts[i + 1:], SUPPORT_SCALE * chart.radius)
        for t, w in cell.nodes(nodes_per_axis):
            x = chart.gamma(t)
            rule.append((sign * w, x, _tangent(chart, chart.jacobian(x))))
    atlas._rules[key] = rule
    return rule


def integrate_form(atlas: SolutionAtlas, omega: DifferentialForm, nodes_per_axis: int = 32,
                   cover_points=None) -> float:
    """Chart-wise pullback-and-quadrature of a form over an oriented atlas.

    The charts of the form's dimension split the solution set into cells:
    chart i integrates only over the points it covers where
    u_i = |t_i| / radius_i is smallest among the covering charts, clipped to
    u_i <= SUPPORT_SCALE.  Each cell is integrated by one polar
    Gauss-Legendre rule in its chart coordinates, nodes_per_axis**k nodes
    per chart, radially on [0, rho(e)] with weight rho**(k-1).  For k = 1 the
    two rays e = +-1 join into one interval [-rho(-1), rho(1)] (rho = 0 on
    a ray outside a boundary chart's half-line); for k = 2 the angles are
    split at the cell's corners and at the sector edges of a boundary chart.
    The integrand is smooth on each piece, so the rule converges
    spectrally.  A 0-dimensional chart contributes its point's sign in the
    ambient orientation times the form's value there.  Components whose
    dimension does not match the form degree contribute zero.  Supports
    k <= 2.  The rule (cells, chart points Gamma(t) and tangents DGamma(t))
    does not depend on the form: it is built once per atlas, degree and
    nodes_per_axis, and a later integral only evaluates pullbacks.  When
    `cover_points` (samples of the solution set, e.g. from zero enumeration)
    are supplied, `atlas_covers_points` must hold for them, else
    AtlasIncomplete is raised; that check runs on every call.
    """
    if omega.degree > 2:
        raise DimensionUnsupported(f"form degree {omega.degree} > 2")
    if not atlas.charts:
        raise AtlasIncomplete("empty atlas")
    if cover_points is not None and not atlas_covers_points(atlas, cover_points):
        raise AtlasIncomplete("charts do not cover the supplied solution samples")

    total = 0.0
    for w, x, tangent in _quadrature_rule(atlas, omega.degree, nodes_per_axis):
        total += w * omega.pullback(x, tangent)
    return total


def atlas_covers_points(atlas: SolutionAtlas, points) -> bool:
    """Every point must be covered by some chart with u = |t| / radius < SUPPORT_SCALE."""
    return all(any(_covering_u(c, p) < SUPPORT_SCALE for c in atlas.charts) for p in points)
