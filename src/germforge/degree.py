"""Generic perturbations, signed degree, invariance checks, form integration.

Properness is a model contract here: the user supplies a window that must
contain every zero, and escapes are loud errors.  Regular values are found
by rejection sampling with Kantorovich certificates instead of measure
theory; the counter-based RNG makes every experiment bit-reproducible from
its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._linalg import _norm, as_vector, det_sign, fd_jacobian, newton, svd_split
from .errors import (
    AtlasIncomplete,
    BudgetExceeded,
    DimensionUnsupported,
    Inconclusive,
    IndexMismatch,
    InvarianceViolation,
    RetryExhausted,
    WindowEscape,
)
from .fredholm import ScPlusSection
from .orientation import AMBIENT_REFERENCE, OrientationReference, sign_of_zero
from .solution import (NEWTON_TOL, SUPPORT_SCALE, SolutionAtlas, _complement_inverse, _graph_solve, _memo_key,
                       _tangent)
from .spaces import GradedSpace

ZERO_RESIDUAL = 1e-10
DEDUPE_SEPARATION = 1e-6
WINDOW_MARGIN = 1e-6
RETRY_LIMIT = 100
BASIN_GATE = 1e-4      # sigma_min / sigma_max below which a zero gets no basin
KANTOROVICH_GATE = 0.25    # h = beta L eta at or below which a square zero is certified
BALL_STARTS = 8        # Halton starts of a stop ball's first local search
BALL_DOUBLINGS = 3     # doublings of a ball's starts, and of its boundary samples, before giving up
FACE_CELLS = (1, 16, 8)    # first grid cells per face edge of a boundary degree in 1-D, 2-D and 3-D
HOMOTOPY_GRID = 11     # homotopy parameters t sampled by invariance_suite
CHORD_TOL = 1e-10      # a quadrature node's chord steps stop at this residual
CHORD_STEPS = 8        # and give way to Newton after this many steps


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
    """Compact box of dimension >= 1 in chart coordinates localizing the zero set."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or not lo.size or np.any(lo >= hi):
            raise ValueError("window must have a dimension and satisfy lo < hi componentwise")
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
        val = as_vector(self.section(np.asarray(x, dtype=float)))
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
        w = smooth_plateau(_norm(y - x0) / region_radius)
        val = h0
        if fiber_projection is not None:
            val = np.atleast_2d(np.asarray(fiber_projection(y), dtype=float)) @ h0
        return w * val

    def support(y):
        return _norm(np.asarray(y, dtype=float) - x0) < region_radius

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


def _basin_radius(func, x, J, sv, r: float, certify: bool) -> tuple[float, float]:
    """Sampled radius 2/(3 beta L) of Newton's basin around the zero x, and
    L: beta = 1/sigma_min and L = |(D_1, ..., D_n)| / r, D_j = max |J(x +- r
    e_j) - J|_F.  D_j sees the mixed second derivatives too, and L bounds the
    Lipschitz constant of an affine J (quadratic f).  r shrinks to 2/(3 beta
    L) and is sampled once more; L is read off the last sample.  A non-square
    or singular J, r <= 0 and a non-finite sample give (0, nan): no L.  A J
    with sigma_min / sigma_max < BASIN_GATE gets radius 0, and its L is
    sampled only when `certify` asks for it (`_certified`)."""
    if J.shape[0] != J.shape[1] or not (sv.size and sv[-1] > 0 and r > 0):
        return 0.0, math.nan
    gated = not sv[-1] > BASIN_GATE * sv[0]
    if gated and not certify:
        return 0.0, math.nan
    beta, n = 1.0 / float(sv[-1]), x.size
    for _ in range(2):
        with np.errstate(invalid="ignore"):     # inf - inf off a domain: a NaN, no warning
            d = [np.linalg.norm(fd_jacobian(func, x + r * e) - J) for e in np.vstack([np.eye(n), -np.eye(n)])]
        rl = float(np.hypot.reduce(np.maximum(d[:n], d[n:])))     # r L; np.maximum keeps a NaN
        if not rl < np.inf:
            return 0.0, math.nan
        lipschitz = rl / r
        if 3.0 * beta * rl <= 2.0:
            break
        r = 2.0 * r / (3.0 * beta * rl)
    return (0.0 if gated else r), lipschitz


def _certified(zero: ZeroReport, lipschitz: float) -> bool:
    """Kantorovich's test at a square zero (Ortega & Rheinboldt, 12.6): the
    rank test and h = beta L eta <= KANTOROVICH_GATE, beta = 1/sigma_min and
    the Newton step eta = |J^-1 f| bounded by sqrt(m) res / sigma_min from
    the residual the zero was polished to.  Then f has a zero within 2 eta
    of the point, the only one in the ball of radius (1 + sqrt(1 - 2h)) /
    (beta L).  h is about 1/2 at a double root, where Newton stops short,
    and at most 1e-13 at a simple zero.  The rank test stays, since at
    residual 0 (a seed on a double root) h is 0 for any sigma_min > 0.  A
    non-square zero, and one without a sampled L, gets the rank test alone."""
    J = zero.jacobian
    if not zero.surjective or J.shape[0] != J.shape[1] or math.isnan(lipschitz):
        return zero.surjective
    sigma = float(zero.singular_values[-1])
    return math.sqrt(J.shape[0]) * zero.residual * lipschitz <= KANTOROVICH_GATE * sigma * sigma


def _halton(count: int, d: int, seed: int):
    """The first `count` points of the scrambled Halton sequence in [0, 1)^d
    that `scipy.stats.qmc.Halton(d=d, scramble=True, seed=seed)` draws, bit
    for bit (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808).
    Coordinate i is the radical inverse in the i-th prime b of the point's
    index, its j-th digit mapped through the j-th of ceil(54 / log2 b) - 1
    random permutations of range(b); a default_rng(seed) shuffles them, base
    after base.  The trailing zero digits are permuted too."""
    rng = np.random.default_rng(seed)
    bases, b = [], 2            # the first d primes
    while len(bases) < d:
        if all(b % p for p in bases):
            bases.append(b)
        b += 1
    out = np.zeros((count, d))
    for i, b in enumerate(bases):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for row in perms:
            rng.shuffle(row)
        index, scale = np.arange(count), 1.0 / b
        for row in perms:
            index, digit = np.divmod(index, b)
            out[:, i] += row[digit] * scale
            scale /= b
    return out


def _order(pair):
    return tuple(np.round(pair[0].point, 9))


def _search(pp: PerturbationProblem, s, starts, basins: bool, balls, certify: bool) -> list:
    """The multi-start loop behind `enumerate_zeros` and
    `generic_perturbation`: (report, certified) pairs of the polished zeros
    of f + s reached from `starts`, sorted by point.  Without `certify` a
    zero with a gated basin gets no L, and its flag is the rank test alone.

    With `basins`, each new square zero with a basin radius gets its basin.
    With `balls` a list, each new uncertified zero gets a stop ball instead,
    appended to `balls` as (centre, radius) when it is found (`_ball_radius`);
    an earlier ball that it would overlap (its radius is then the least,
    1e-3) first shrinks to 0.4 times the distance between their centres.
    The balls already in the list stop starts too.  A start that lies in a basin
    or ball, or whose accepted iterate enters one, is stopped."""
    def func(x):
        return pp.evaluate(x, s)

    found, stops = [], [(c.tolist(), r) for c, r in balls or ()]    # (centre, radius) of basins and balls

    def stopped(x):             # checked at every Newton iterate, so kept cheap
        x = x.tolist()
        return any(math.dist(x, c) < r for c, r in stops)

    for x0 in starts:
        if stopped(x0):
            continue
        x, res, ok = newton(func, x0, stop=stopped)
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
        if any(np.linalg.norm(x - z.point) < DEDUPE_SEPARATION for z, _ in found):
            continue
        J = fd_jacobian(func, x)
        _, kernel, coker, sv = svd_split(J)
        surjective = bool(coker.shape[1] == 0)
        radius, lipschitz = _basin_radius(func, x, J, sv, pp.window.margin_at(x), certify and surjective)
        zero = ZeroReport(point=x, residual=res, jacobian=J, singular_values=sv,
                          surjective=surjective, kernel_basis=kernel, basin_radius=radius)
        certified = _certified(zero, lipschitz)
        if balls is not None and not certified:
            reach = _ball_radius(pp, x, found, balls)       # the balls it would overlap shrink clear of x
            shrunk = {tuple(c): 0.4 * math.dist(c, x) for c, r in balls if math.dist(c, x) < r + reach}
            balls[:] = [(c, shrunk.get(tuple(c), r)) for c, r in balls]
            stops = [(c, shrunk.get(tuple(c), r)) for c, r in stops]
            balls.append((x, _ball_radius(pp, x, found, balls)))
            stops.append((x.tolist(), balls[-1][1]))
        elif basins and radius:
            stops.append((x.tolist(), radius))
        found.append((zero, certified))
    found.sort(key=_order)
    return found


def _window_points(pp: PerturbationProblem, first: int, count: int) -> list:
    """The Halton points first, ..., first + count - 1 of the window."""
    u = _halton(first + count, pp.window.dim, pp.rng_seed)[first:]     # a longer draw keeps the earlier points
    return list(u * (pp.window.hi - pp.window.lo) + pp.window.lo)


def _starts(pp: PerturbationProblem) -> list:
    """The user seeds, then pp.grid_starts Halton points of the window."""
    return [np.asarray(p, dtype=float) for p in pp.seeds] + _window_points(pp, 0, pp.grid_starts)


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
    Every start that heads for a degenerate zero polishes it again; only
    `generic_perturbation`'s own search, in any dimension, stops them at a
    stop ball around the first such zero it finds.  A zero that no start
    reaches is missing from the list; `generic_perturbation` sees such a
    miss for square maps in 1-D, 2-D and 3-D, by a count against f's degree
    on the window.
    """
    return [zero for zero, _ in _search(pp, s, _starts(pp), True, None, False)]


def _room(pp: PerturbationProblem, x) -> float:
    """The distance from x to the window's boundary and the quadrant's faces."""
    face = float(np.min(x[: pp.quadrant_rank])) if pp.quadrant_rank else math.inf
    return min(pp.window.margin_at(x), face)


def _ball_radius(pp: PerturbationProblem, x, found, balls) -> float:
    """0.8 times the least of `_room`, half the distance to the nearest zero
    found so far and the gap to the balls placed so far, and at least 1e-3."""
    near = min((math.dist(x, z.point) for z, _ in found), default=math.inf)
    gap = min((math.dist(x, c) - r for c, r in balls), default=math.inf)
    return max(0.8 * min(_room(pp, x), 0.5 * near, gap), 1e-3)


def _boundary_degree(pp: PerturbationProblem, d: int, point_at):
    """f's degree on the region whose boundary point_at maps the boundary of
    the cube [-1, 1]^d onto, for d <= 3: the signed angle f/|f| sweeps over
    a grid of each of the 2d faces, over |S^(d-1)| = 2, 2 pi or 4 pi.  Face
    v_k = side, spanned by axes k + 1, ..., k + d - 1 (mod d), is oriented
    by side (-1)^(k (d - 1)).  The angle is f/|f| itself at the point of a
    face in 1-D, atan2(a x b, a.b) along each grid segment in 2-D, and 2
    atan2(a.(b x c), 1 + a.b + b.c + c.a) over two triangles per grid
    square in 3-D (Van Oosterom & Strackee 1983).  The grid starts at
    FACE_CELLS cells per face edge and doubles, at most BALL_DOUBLINGS
    times, until in 2-D every segment turns by less than pi/2 and in 3-D
    two successive grids agree; f is evaluated once at each point.  None
    where f vanishes at a sample or the samples cannot resolve it."""
    last, n, values = None, FACE_CELLS[d - 1], {}    # f at the cube points met again on shared edges and finer grids

    def value(v):
        if v not in values:
            values[v] = pp.evaluate(point_at(np.array(v)))
        return values[v]

    for _ in range(BALL_DOUBLINGS + 1):
        total, turn, grid = 0.0, 0.0, np.meshgrid(*[np.linspace(-1.0, 1.0, n + 1)] * (d - 1), indexing="ij")
        for k, side in ((k, side) for k in range(d) for side in (-1.0, 1.0)):
            v = np.roll(np.stack([np.full((n + 1,) * (d - 1), side), *grid], -1), k, axis=-1)    # v_k = side
            f = np.array([value(p) for p in map(tuple, v.reshape(-1, d))]).reshape(v.shape)
            norm = np.linalg.norm(f, axis=-1, keepdims=True)
            if not (np.isfinite(norm).all() and norm.all()):
                return None
            angles = u = f / norm       # in 1-D, the sign of f at the face's point
            if d == 2:
                a, b = u[:-1], u[1:]
                angles = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(-1))
                turn = max(turn, float(np.abs(angles).max()))
            elif d == 3:
                a, c = u[:-1, :-1], u[1:, 1:]
                angles = sum(2.0 * np.arctan2((a * np.cross(b, e)).sum(-1), 1.0 + (a * b + b * e + e * a).sum(-1))
                             for b, e in ((u[1:, :-1], c), (c, u[:-1, 1:])))
            total += side * (-1) ** (k * (d - 1)) * float(angles.sum())
        degree = round(total / (2.0, 2.0 * math.pi, 4.0 * math.pi)[d - 1])
        if degree == last if d == 3 else turn < 0.5 * math.pi:
            return degree
        last, n = degree, 2 * n
    return None


def _window_degree(pp: PerturbationProblem):
    """f's degree on the window; with quadrant constraints, on the window's
    part in the quadrant, since the search discards the zeros outside it."""
    lo, hi = pp.window.lo.copy(), pp.window.hi
    lo[: pp.quadrant_rank] = np.maximum(lo[: pp.quadrant_rank], 0.0)
    return _boundary_degree(pp, lo.size, lambda v: lo + 0.5 * (v + 1.0) * (hi - lo))


def _ball_zeros(pp: PerturbationProblem, s, ball, degree: int | None) -> list:
    """The zeros of f + s inside a stop ball, from BALL_STARTS Halton starts
    of the ball (of its disc in 2-D, else of the cube around it), with
    no basins, since a bump's ramp can make a sampled basin swallow a zero.
    While the signed count of these zeros misses the ball's degree, as many
    new Halton starts as were made so far search again, and their new zeros
    join the others; after BALL_DOUBLINGS doublings it raises Inconclusive,
    and `generic_perturbation` draws another s.  With no degree (d > 3, or
    zeros that are not square) one search stands.  A zero that is not
    certified ends the search at once."""
    centre, radius = ball
    d, done, count, found = centre.size, 0, BALL_STARTS, []
    for _ in range(BALL_DOUBLINGS + 1):
        u = _halton(count, d, pp.rng_seed)[done:]       # a longer draw keeps the earlier points
        if d == 2:
            r, a = radius * np.sqrt(u[:, 0]), 2.0 * math.pi * u[:, 1]
            starts = centre + np.column_stack([r * np.cos(a), r * np.sin(a)])
        else:
            starts = centre + radius * (2.0 * u - 1.0)
        for z, ok in _search(pp, s, starts, False, None, True):
            if math.dist(z.point, centre) < radius and all(
                    np.linalg.norm(z.point - y.point) >= DEDUPE_SEPARATION for y, _ in found):
                found.append((z, ok))
        if not all(ok for _, ok in found) or degree is None or sum(det_sign(z.jacobian) for z, _ in found) == degree:
            return found
        done, count = count, 2 * count
    raise Inconclusive(f"the ball of radius {radius:.3e} at {centre} has degree {degree} on its boundary, but "
                       f"{done} starts found zeros of signed count {sum(det_sign(z.jacobian) for z, _ in found)}")


@dataclass(frozen=True)
class PerturbationOutcome:
    perturbation: ScPlusSection
    zeros: tuple
    lambdas: np.ndarray
    retries: int


def _combine(bumps, lambdas, levels: int) -> ScPlusSection:
    def section(x):
        total = None
        for lam, b in zip(lambdas, bumps):
            v = lam * b(x)
            total = v if total is None else total + v
        return total

    def support(x):
        return any(b.support_contains(x) for b in bumps)

    return ScPlusSection(section=section, levels=levels, support=support)


def _bumps(pp: PerturbationProblem, rng, anchors, out_dim: int, levels: int) -> list:
    """out_dim bumps at each (anchor, radius), each of a random fiber
    direction scaled to 0.45 of the budget."""
    bumps = []
    for anchor, radius in anchors:
        for _ in range(max(1, out_dim)):
            h = rng.normal(size=out_dim)
            h /= max(pp.aux_norm(anchor, h), 1e-12)
            h *= 0.45 * pp.budget
            bumps.append(make_bump_section(anchor, h, radius, pp.budget, pp.aux_norm, levels))
    return bumps


def _settled_ball(pp: PerturbationProblem, ball, earlier, counted: bool):
    """(ball, f's degree on it), the degree read off f on the ball's
    boundary, or None unless `counted`.  A ball whose degree cannot be
    sampled is halved once.  A ball that reaches the window's edge, a
    quadrant face or one of the `earlier` balls raises RetryExhausted,
    naming its zero, since a perturbation there would reach them too."""
    centre, radius = ball
    if _room(pp, centre) < radius or any(math.dist(centre, c) < radius + r for c, r in earlier):
        raise RetryExhausted(
            f"the stop ball of radius {radius:.3e} around the degenerate zero {centre} reaches the "
            "window's edge, a face or another ball, where a perturbation may not act",
            failing_zero=centre,
        )
    if not counted:
        return ball, None
    for r in (radius, 0.5 * radius):
        degree = _boundary_degree(pp, centre.size, lambda v, r=r: centre + r * v / np.linalg.norm(v))
        if degree is not None:
            return (centre, r), degree
    raise RetryExhausted(f"f has no sampled degree on the stop ball of radius {radius:.3e} around {centre}, "
                         "nor on half of it", failing_zero=centre)


def generic_perturbation(pp: PerturbationProblem) -> PerturbationOutcome:
    """A finite bump combination making every zero of f + s transversal.

    A square zero is transversal when it passes the Kantorovich gate
    (`_certified`), a non-square one when its linearization is onto.  If
    every zero the search finds is, the zero perturbation is accepted.

    Otherwise the search has given each zero that is not transversal a stop
    ball when it found it (`_search`), so that later starts do not polish it
    again.  Only the balls are bumped, each ball being the support of its
    bumps, and the zeros outside them are kept; a ball that reaches the
    window's edge, a quadrant face or another ball raises RetryExhausted.
    A ball placed before a later zero is known can hide that zero from every
    start, and shrinks when that zero's ball would overlap it; its degree is
    then sampled again.  So for a square problem in 1-D, 2-D or 3-D, the
    signs of the kept zeros plus the balls' degrees (f's degrees on their
    boundaries, `_boundary_degree`) must add up to f's degree on the window
    (on its part in the quadrant); while they do not, the window is searched
    again from as many new Halton starts as were made so far, the balls
    stopping them, at most BALL_DOUBLINGS times.  With no degree on the
    window, in more dimensions or with zeros that are not square, the first
    search stands.  Each attempt draws lambda within the budget and searches f + s
    inside the balls alone (`_ball_zeros`); it passes when every zero is
    transversal, and the retry limit makes failures loud.
    """
    levels = pp.aux_norm.fiber_space.levels
    starts, balls = _starts(pp), []
    found = _search(pp, None, starts, True, balls, True)
    if all(ok for _, ok in found):
        # a scalar zero broadcasts against any fiber dimension
        return PerturbationOutcome(perturbation=ScPlusSection(section=lambda x: 0.0, levels=levels),
                                   zeros=tuple(z for z, _ in found), lambdas=np.zeros(0), retries=0)
    out_dim, d = found[0][0].jacobian.shape
    counted = out_dim == d <= 3
    window = _window_degree(pp) if counted else None
    settled, used, made = [], pp.grid_starts, len(starts)      # (ball, f's degree on it)
    for doubling in range(BALL_DOUBLINGS + 1):
        for i, ball in enumerate(balls):
            if i == len(settled) or settled[i][0][1] != ball[1]:     # a new ball, or one a later zero shrank
                settled[i:i + 1] = [_settled_ball(pp, ball, balls[:i], counted)]
                balls[i] = settled[i][0]
        carried = [p for p in found if all(math.dist(p[0].point, c) >= r for c, r in balls)]
        if window is None or (signed := sum(det_sign(z.jacobian) for z, _ in carried)
                              + sum(deg for _, deg in settled)) == window:
            break
        if doubling == BALL_DOUBLINGS:
            raise RetryExhausted(f"{made} starts found zeros and stop balls of signed count {signed}, "
                                 f"but f has degree {window} on the window")
        more = _search(pp, None, _window_points(pp, used, made), True, balls, True)
        found += [p for p in more
                  if all(np.linalg.norm(p[0].point - q.point) >= DEDUPE_SEPARATION for q, _ in found)]
        used, made = used + made, 2 * made
    rng = np.random.Generator(np.random.Philox(key=pp.rng_seed))
    bumps = _bumps(pp, rng, balls, out_dim, levels)
    last_fail = None
    for attempt in range(RETRY_LIMIT):
        lam = rng.uniform(-1.0, 1.0, size=len(bumps))
        lam /= max(np.sum(np.abs(lam)), 1.0)     # keep the combination inside the budget
        lam *= rng.uniform(0.2, 1.0)
        s = _combine(bumps, lam, levels)
        zeros = list(carried)
        try:
            for ball, degree in settled:
                zeros += _ball_zeros(pp, s, ball, degree)
                if not all(ok for _, ok in zeros):
                    break
        except (WindowEscape, Inconclusive) as exc:    # another s may do
            last_fail = (str(exc), None)
            continue
        bad = [z for z, ok in zeros if not ok]
        if not bad:     # an empty zero set is accepted too: x^2 + c has none for c > 0
            return PerturbationOutcome(perturbation=s, zeros=tuple(z for z, _ in sorted(zeros, key=_order)),
                                       lambdas=lam, retries=attempt)
        last_fail = (f"the zero at {bad[0].point} is not certified", bad[0].point)
    raise RetryExhausted(f"no regular value found in {RETRY_LIMIT} attempts; last failure: {last_fail[0]}",
                         failing_zero=last_fail[1])


def compute_degree(pp: PerturbationProblem,
                   reference: OrientationReference = AMBIENT_REFERENCE,
                   outcome: PerturbationOutcome | None = None) -> int:
    """Signed count of the zeros of a generic perturbation of f, by default
    `generic_perturbation`'s, whose bumps keep clear of the faces.

    Requires index 0: the linearizations at zeros must be square.  The
    result is deterministic given the problem's RNG seed.
    """
    if outcome is None:
        outcome = generic_perturbation(pp)
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
    t in [0, 1]; a grid point without a generic perturbation raises
    RetryExhausted.  Any disagreement raises InvarianceViolation with full
    diagnostics.
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
            deg = compute_degree(shifted)
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
    """Co-orientation sign: `det_sign` of [Df(Gamma(t)); tangent^T] (square),
    the tangent taken from the same Jacobian."""
    J = chart.jacobian(chart.gamma(t))
    M = np.vstack([J, _tangent(chart, J).T])
    if M.shape[0] != M.shape[1]:
        raise IndexMismatch(f"chart/section dimensions {M.shape} do not stack square")
    return det_sign(M)


# a chart covers x when its graph passes within this distance of x
COVER_TOL = 1e-7


def _covering_u(chart, x) -> float:
    """u = |t| / radius of x in the chart, t its chart coordinates, when the
    chart covers x (t lies in its domain and Gamma(t) = x); inf otherwise."""
    x = np.asarray(x, dtype=float)
    t = chart.coordinates(x)
    if not chart.domain_contains(t) or np.max(np.abs(chart.gamma(t) - x)) > COVER_TOL:
        return np.inf
    return _norm(t) / chart.radius


def _chord(chart, base, s, inverse):
    """(s, f) with f = f(base + C s) and max|f| <= CHORD_TOL, by chord steps
    s - inverse f from s, one evaluation each, inverse = (J C)^-1 of an
    earlier Jacobian; None after CHORD_STEPS steps or at a non-finite
    residual."""
    C = chart.complement_basis
    for _ in range(CHORD_STEPS + 1):
        f = chart.section_value(base + C @ s)
        res = float(np.abs(f).max())
        if res <= CHORD_TOL:
            return s, f
        if not res < math.inf:
            return None
        s = s - inverse @ f
    return None


def _chord_1d(chart, base, s, inverse):
    """`_chord` for a 1-D complement, with s, inverse and f as Python floats."""
    c = chart.complement_basis[:, 0]
    for _ in range(CHORD_STEPS + 1):
        f = chart.section_value(base + c * s).item()
        if abs(f) <= CHORD_TOL:
            return s, f
        if not abs(f) < math.inf:
            return None
        s = s - (inverse * f + 0.0)
    return None


def _ray_points(chart, ts) -> list:
    """(Gamma(t), DGamma(t)) at the nodes ts of one ray, walked in order.

    The ray's first node, and a node nearer the origin than the previous
    node, is solved by Newton from the chart's cold start s2(t), the
    second-order term of s (`_graph_solve`).  Every other node starts from
    the cubic Hermite predictor through the (s, s') of the ray's last two
    nodes, extrapolated along the ray (from the previous node's tangent
    line when the ray has only one), and takes chord steps with the
    previous node's (J C)^-1 down to CHORD_TOL, one evaluation each
    (`_chord`); should they fail, Newton solves it from the prediction
    (`_graph_solve`).  The one Jacobian J = f'(x) at a node, and one
    factorization of its J C, give its tangent K + C s', its slope
    s' = -(J C)^-1 J K for the next prediction, one polishing Newton step
    s - (J C)^-1 f(x) that takes the residual to rounding, and the next
    node's chord steps.  A chart with a 1-D kernel and a 1-D complement (a
    curve in the plane) walks its ray on Python floats (`_ray_points_1d`),
    with the same bits; every other chart on numpy arrays
    (`_ray_points_arrays`)."""
    flat = chart.kernel_basis.shape[1] == chart.complement_basis.shape[1] == 1
    return (_ray_points_1d if flat else _ray_points_arrays)(chart, ts)


def _ray_points_arrays(chart, ts) -> list:
    """`_ray_points` on numpy arrays."""
    q, K, C = chart.base_point, chart.kernel_basis, chart.complement_basis
    out, back = [], []          # (t, s, s', (J C)^-1) of the ray's last two nodes
    for t in ts:
        base = q + K @ t
        s0, solved = None, None
        if back and _norm(t - back[-1][0]) < _norm(t):
            (t0, s_0, slope0, _), (t1, s1, slope1, inverse) = back[0], back[-1]
            gap = t1 - t0       # 0 while the ray has one node: then s0 is on its tangent line
            s0 = s1 + slope1 @ (t - t1)
            if (gap2 := float(gap @ gap)) > 0:
                # the cubic Hermite through both nodes, in r = (t - t1) . gap / |gap|^2
                d0, d1, rise = slope0 @ gap, slope1 @ gap, s1 - s_0
                r = float((t - t1) @ gap) / gap2
                s0 = s1 + r * (d1 + r * (2 * d1 + d0 - 3 * rise + r * (d1 + d0 - 2 * rise)))
            solved = _chord(chart, base, s0, inverse)
        if solved is None:
            s = _graph_solve(chart, t, s0)
            solved = s, chart.section_value(base + C @ s)
        s, f = solved
        J = chart.jacobian(base + C @ s)
        inverse = _complement_inverse(J @ C)        # raises NotSurjective when J C is singular
        slope = -(inverse @ (J @ K))
        s = s - inverse @ f
        back = [*back[-1:], (t, s, slope, inverse)]
        out.append((base + C @ s, K + C @ slope))
    return out


def _ray_points_1d(chart, ts) -> list:
    """`_ray_points_arrays` for a 1-D kernel and complement, with t, s, s',
    (J C)^-1 and f as Python floats and the same bits.  A product that the
    array walk takes by a 1x1 matmul is added to 0.0, as matmul does (-0.0
    becomes +0.0); base = q + K t has no -0.0, so base + c s is base + C s."""
    q, K, C = chart.base_point, chart.kernel_basis, chart.complement_basis
    c = C[:, 0]
    out, back = [], []          # (t, s, s', (J C)^-1) of the ray's last two nodes
    for t in ts:
        base, tv = q + K @ t, t.item()
        s0, solved = None, None
        if back and math.sqrt((d := tv - back[-1][0]) * d) < math.sqrt(tv * tv):
            (t0, s_0, slope0, _), (t1, s1, slope1, inverse) = back[0], back[-1]
            gap = t1 - t0
            s0 = s1 + (slope1 * (tv - t1) + 0.0)
            if gap * gap > 0:
                d0, d1, rise = slope0 * gap + 0.0, slope1 * gap + 0.0, s1 - s_0
                r = ((tv - t1) * gap + 0.0) / (gap * gap)
                s0 = s1 + r * (d1 + r * (2 * d1 + d0 - 3 * rise + r * (d1 + d0 - 2 * rise)))
            solved = _chord_1d(chart, base, s0, inverse)
        if solved is None:
            s = _graph_solve(chart, t, None if s0 is None else np.array([s0])).item()
            solved = s, chart.section_value(base + c * s).item()
        s, f = solved
        J = chart.jacobian(base + c * s)
        inverse = _complement_inverse(J @ C).item()     # raises NotSurjective when J C is singular
        slope = -(inverse * (J @ K).item() + 0.0)
        s = s - (inverse * f + 0.0)
        back = [*back[-1:], (tv, s, slope, inverse)]
        out.append((base + c * s, K + (C * slope + 0.0)))
    return out


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
    there, or at rho_max.  The u_j along the ray come from the neighbours'
    chart coordinates t_j of x, its projections onto K_j along C_j, which
    are linear in x.  Coverage is checked only where a neighbour claims the
    ray: at rho_max, and at the crossing.  Crossings are bracketed scalar
    root solves down to a bracket of sqrt(NEWTON_TOL) rho_max, whose secant
    root is then good to about NEWTON_TOL rho_max: the chart points they are
    computed from are no more accurate than that.

    The cell solves the chart points of its brackets and corners itself
    (`point`) and keeps them for re-reads.  They never enter the chart's
    memo, whose cold starts define the chart, so a cell depends on its
    charts alone; neighbours are checked for coverage at their cold points.
    """

    def __init__(self, chart, neighbours, rho_max: float):
        self.chart = chart
        self.neighbours = neighbours
        self.rho_max = rho_max
        self.tol = np.sqrt(NEWTON_TOL) * rho_max
        self._points = {}       # quantized t -> s, as in the chart's memo
        self._last = None       # (t, s) of the last point solved

    def point(self, t):
        """Gamma(t), solved from the cell's last point when that is nearer
        t than the origin is, else from the chart's cold start s2(t)."""
        t = np.asarray(t, dtype=float)
        key = _memo_key(t)
        if key is None:     # solved cold, as by the chart
            return self.chart.gamma(t)
        s = self._points.get(key)
        if s is None:
            s0 = None
            if self._last is not None and _norm(t - self._last[0]) < _norm(t):
                s0 = self._last[1]
            s = self._points[key] = _graph_solve(self.chart, t, s0)
            self._last = (t, s)
        return self.chart.base_point + self.chart.kernel_basis @ t + self.chart.complement_basis @ s

    def excess(self, t):
        """(Gamma(t), u - u_j for every neighbour j, u_j from j's chart
        coordinates of Gamma(t))."""
        x = self.point(t)
        u = _norm(t) / self.chart.radius
        return x, np.array([u - _norm(c.coordinates(x)) / c.radius for c in self.neighbours])

    def _crossing(self, e, claims, lo: float, guess):
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
            hit = self._crossing(e, claims, lo, None)
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
        the ray e, by chart coordinates alone (rho_max for None, or where it
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
        norm = _norm(t)
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
            return float(np.clip(th, th1, th2)), _norm(t)
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
        nodes in rays of `count`, each walked away from its start.  k = 1:
        the limits of the rays t = +-rho bound one interval (a ray outside
        the domain has limit 0), integrated by `count` nodes in ascending
        order.  k = 2: the rule of `_polar` on the cell's pieces, each ray
        outward.  Should its rays find pieces the scan missed, the pieces
        are rescanned once with those rays added, so that the rule again
        splits at every corner."""
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
    times the chart's orientation sign, each ray of a cell's nodes solved by
    `_ray_points`.  A 0-dimensional chart is one node of weight sign_of_zero
    at its point.  Built once per (degree, nodes_per_axis) and kept in the
    atlas's `_rules`; it depends on the atlas alone, not on what its charts
    served before."""
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
        nodes = cell.nodes(nodes_per_axis)
        for start in range(0, len(nodes), nodes_per_axis):
            ray = nodes[start:start + nodes_per_axis]
            for (_, w), (x, tangent) in zip(ray, _ray_points(chart, [t for t, _ in ray])):
                rule.append((sign * w, x, tangent))
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
    nodes_per_axis, and a later integral only evaluates pullbacks.  Its
    nodes are solved by continuation along each ray: chord steps from a
    cubic Hermite prediction with the previous node's (J C)^-1, one
    Jacobian per node for its tangent, and a polishing Newton step
    (`_ray_points`; a curve in the plane walks on Python floats, with the
    array walk's bits); its cell boundaries from the cell's last point; the
    other points from the chart's cold start s2(t), the second-order term
    of the chart.  Each node is the chart's cold point Gamma(t) to the
    solver's tolerance.  When
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
