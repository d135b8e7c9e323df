"""Contraction germs and the parameter-dependent fixed-point machinery.

A contraction germ packages a map B(v, u) that contracts in u near the
origin at every level; the induced equation u = B(v, u) has a unique local
solution u = delta(v) obtained by Picard iteration, with derivative

    delta'(v) = (I - D2B(v, delta(v)))^(-1) D1B(v, delta(v)).

Tangent lifting doubles parameter and solution spaces and has
(delta(v), delta'(v) b) as its solution; lifting j times gives order j.
`shrink_to_contraction` certifies a set of levels on shared samples.

User-supplied maps must be pure functions of their arguments; under that
contract every operation here is safe for concurrent use (SolutionGerm's
cache only ever stores values a recomputation would reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import as_vector, fd_jacobian, rank
from .errors import NonConvergence, SingularLinearization
from .spaces import GradedSpace

DEFAULT_MAX_ITER = 10_000
DEFAULT_TOL = 1e-12
# slack over exact monotone decay to tolerate roundoff near the floating floor
RATIO_SLACK = 1e-12
# the sampled ratio below which shrink_to_contraction certifies a radius
TARGET_RATIO = 0.9
# radius halvings shrink_to_contraction tries before it gives up
MAX_BISECTIONS = 40
# entries a SolutionGerm memo keeps; past it the oldest goes.  Selftest
# misses about 100 times in all, so none of its hits is lost
SOLUTION_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ContractionGerm:
    """The map B(v, u) with per-level contraction certificates.

    B takes (v, u) as 1-d float arrays and returns a solution_space vector.
    contraction_schedule maps level m -> (rho_m, r_m) with 0 < rho_m < 1 and
    neighborhood radius r_m > 0.  The Jacobians d1B and d2B are central
    finite differences.
    """

    parameter_space: GradedSpace
    solution_space: GradedSpace
    B: object
    contraction_schedule: dict = field(default_factory=dict)

    def __post_init__(self):
        for m, (rho, r) in self.contraction_schedule.items():
            self.solution_space.check_level(m)
            if not 0.0 < rho < 1.0:
                raise ValueError(f"contraction factor at level {m} must be in (0,1), got {rho}")
            if r <= 0.0:
                raise ValueError(f"neighborhood radius at level {m} must be positive, got {r}")

    def evaluate(self, v, u):
        out = as_vector(self.B(np.asarray(v, float), np.asarray(u, float)))
        if out.shape != (self.solution_space.dim,):
            raise ValueError(f"B returned shape {out.shape}, expected ({self.solution_space.dim},)")
        return out

    def d1B(self, v, u):
        """Jacobian of B in the parameter slot, shape (solution_dim, parameter_dim)."""
        return fd_jacobian(lambda vv: self.evaluate(vv, u), np.asarray(v, float)).reshape(
            self.solution_space.dim, self.parameter_space.dim
        )

    def d2B(self, v, u):
        """Jacobian of B in the solution slot, shape (solution_dim, solution_dim)."""
        return fd_jacobian(lambda uu: self.evaluate(v, uu), np.asarray(u, float)).reshape(
            self.solution_space.dim, self.solution_space.dim
        )

    def radius(self, m: int) -> float:
        if m in self.contraction_schedule:
            return self.contraction_schedule[m][1]
        return np.inf


def solve_germ(germ: ContractionGerm, v, m: int = 0, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER):
    """Unique local solution u of u = B(v, u) by Picard iteration from u = 0.

    Returns u with level_norm(u - B(v, u), m) <= tol.  Raises NonConvergence
    if max_iter is exhausted or the empirical step ratio reaches 1 before
    convergence, which signals that the map is not a contraction at (v, m).
    """
    germ.solution_space.check_level(m)
    v = np.asarray(v, dtype=float)
    r = germ.radius(m)
    level_v = min(m, germ.parameter_space.levels)
    if np.isfinite(r) and germ.parameter_space.dim and germ.parameter_space.level_norm(v, level_v) > r:
        raise NonConvergence(
            f"parameter point outside level-{m} neighborhood radius {r}", residual=None, iterations=0
        )
    u = np.zeros(germ.solution_space.dim)
    if germ.solution_space.dim == 0:
        return u
    prev_step = None
    for it in range(max_iter):
        u_next = germ.evaluate(v, u)
        step = germ.solution_space.level_norm(u - u_next, m)
        if step <= tol:
            return u_next
        if prev_step is not None and prev_step > 10.0 * tol and step > prev_step * (1.0 + RATIO_SLACK):
            raise NonConvergence(
                f"empirical contraction ratio {step / prev_step:.4f} >= 1 at iteration {it}",
                residual=step,
                iterations=it,
            )
        prev_step = step
        u = u_next
    raise NonConvergence(
        f"no fixed point after {max_iter} iterations (residual {prev_step:.3e})",
        residual=prev_step,
        iterations=max_iter,
    )


def germ_derivative(germ: ContractionGerm, v, tol: float = DEFAULT_TOL):
    """delta'(v) = (I - D2B(v, delta(v)))^(-1) D1B(v, delta(v)), with delta(v)
    solved at level 0.

    Returned as a (solution_dim, parameter_dim) matrix, i.e. it acts on
    parameter increments by matrix-vector product.
    """
    v = np.asarray(v, dtype=float)
    u = solve_germ(germ, v, tol=tol)
    D2 = germ.d2B(v, u)
    dim = germ.solution_space.dim
    if dim == 0:
        return np.zeros((0, germ.parameter_space.dim))
    L = np.eye(dim) - D2
    if rank(L) < dim:
        raise SingularLinearization("I - D2B numerically singular; contraction certificate violated")
    D1 = germ.d1B(v, u)
    return np.linalg.solve(L, D1)


@dataclass(frozen=True)
class SolutionGerm:
    """Cached evaluators v -> delta(v) and v -> delta'(v) for a germ, at level 0."""

    germ: ContractionGerm
    tol: float = DEFAULT_TOL
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _key(self, v):
        return tuple(np.round(np.asarray(v, dtype=float), 12))

    def _memo(self, key, compute, v):
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = compute(self.germ, v, tol=self.tol)
            if len(self._cache) > SOLUTION_CACHE_SIZE:
                del self._cache[next(iter(self._cache))]
        return hit

    def __call__(self, v):
        return self._memo(self._key(v), solve_germ, v)

    def derivative(self, v):
        return self._memo(("d", self._key(v)), germ_derivative, v)


def _doubled_space(space: GradedSpace) -> GradedSpace:
    return GradedSpace(
        dim=2 * space.dim,
        levels=space.levels,
        weights=np.concatenate([space.weights, space.weights]),
        quadrant_rank=space.quadrant_rank,
    )


def tangent_germ(germ: ContractionGerm, solution: SolutionGerm | None = None) -> ContractionGerm:
    """Lift to doubled spaces: B1((v,b),(u,w)) = (B(v,u), DB(v,delta(v))(b,w)).

    The derivative block is evaluated at the solution delta(v), so the lifted
    germ contracts with the same per-level factors and its solution equals
    (delta(v), delta'(v) b).
    """
    if solution is None:
        solution = SolutionGerm(germ)
    pdim = germ.parameter_space.dim
    sdim = germ.solution_space.dim

    def lifted(vb, uw):
        v, b = vb[:pdim], vb[pdim:]
        u, w = uw[:sdim], uw[sdim:]
        du = germ.evaluate(v, u)
        ustar = solution(v)
        dw = germ.d1B(v, ustar) @ b + germ.d2B(v, ustar) @ w
        return np.concatenate([du, dw])

    M = germ.solution_space.levels
    schedule = {}
    for m, (rho, r) in germ.contraction_schedule.items():
        rho_up = germ.contraction_schedule.get(min(m + 1, M), (rho, r))[0]
        # the tangent direction enters linearly, so the parameter-radius
        # guard cannot be expressed in the doubled norm; the contraction
        # factor is inherited, the radius is left unguarded
        schedule[m] = (max(rho, rho_up), np.inf)
    return ContractionGerm(
        parameter_space=_doubled_space(germ.parameter_space),
        solution_space=_doubled_space(germ.solution_space),
        B=lifted,
        contraction_schedule=schedule,
    )


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling grid for empirical contraction certificates."""

    parameter_samples: int = 8
    pair_samples: int = 32
    radius_scale: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class ContractionReport:
    level: int
    max_ratio: float
    samples: int
    radius: float
    passed: bool


def verify_contraction(germ: ContractionGerm, m: int = 0, grid: SamplingPlan | None = None) -> ContractionReport:
    """Empirical Lipschitz-in-u ratio of B at level m over a sampled grid.

    Reports max ||B(v,u) - B(v,u')||_m / ||u - u'||_m over parameter and pair
    samples inside the level-m ball; passes iff the maximum is < 1.
    """
    germ.solution_space.check_level(m)
    return _sampled_ratios(germ, (m,), germ.radius(m), grid or SamplingPlan())[m]


def _sampled_ratios(germ: ContractionGerm, levels, radius: float, grid: SamplingPlan) -> dict:
    """{m: ContractionReport} of every level in `levels` at one radius (1
    when not finite), from one set of samples and B evaluations.

    Each parameter sample v and its pairs (u, u') come from one uniform draw
    of pdim + 2 * pair_samples * sdim values, which the Generator fills one
    double at a time, so they equal v, u, u', u, u', ... drawn one by one.
    B is called, one pair at a time, only for the pairs with
    ||u - u'||_top >= 1e-14 at the top level of `levels`; the level norms
    are nested, so these are all the pairs any level keeps.  Numerators
    and denominators are stacked level norms.
    """
    rng = np.random.Generator(np.random.Philox(key=grid.seed))
    r = (radius if np.isfinite(radius) else 1.0) * grid.radius_scale
    space = germ.solution_space
    pdim, sdim = germ.parameter_space.dim, space.dim
    top = max(levels)
    max_ratio = dict.fromkeys(levels, 0.0)
    count = dict.fromkeys(levels, 0)
    nq = germ.parameter_space.quadrant_rank
    for _ in range(grid.parameter_samples):
        draws = rng.uniform(-r, r, size=pdim + 2 * grid.pair_samples * sdim)
        v = draws[:pdim]
        v[:nq] = np.abs(v[:nq])
        pairs = draws[pdim:].reshape(grid.pair_samples, 2, sdim)
        steps = pairs[:, 0] - pairs[:, 1]
        kept = np.flatnonzero(~(space.level_norm(steps, top) < 1e-14))
        if not kept.size:
            continue
        diffs = np.array([germ.evaluate(v, pairs[j, 0]) - germ.evaluate(v, pairs[j, 1]) for j in kept])
        for m in levels:
            dens = space.level_norm(steps[kept], m)
            sel = ~(dens < 1e-14)
            # fmax skips NaN ratios, as the running max over single pairs did
            ratios = space.level_norm(diffs[sel], m) / dens[sel]
            max_ratio[m] = float(np.fmax.reduce(ratios, initial=max_ratio[m]))
            count[m] += int(sel.sum())
    return {m: ContractionReport(level=m, max_ratio=max_ratio[m], samples=count[m], radius=r,
                                 passed=max_ratio[m] < 1.0) for m in levels}


def shrink_to_contraction(germ: ContractionGerm, levels, start_radius: float, max_bisections: int,
                          grid: SamplingPlan | None):
    """Bisect the sampling radius until the empirical ratio of each level in
    `levels` is below TARGET_RATIO.

    Pending levels share each radius and its samples and B evaluations
    (`_sampled_ratios`).  Returns (the germ with every level's schedule
    entry set, {m: report}); neither depends on the other levels.  A level
    fails after max_bisections, or as soon as its ratios stall above the
    target: their changes decay geometrically, too fast to take them below
    it.  Raises the NonConvergence of the lowest failed level, with its last
    ratio as residual; levels above it stop.
    """
    for m in levels:
        germ.solution_space.check_level(m)
    base = grid or SamplingPlan()
    radius = start_radius
    ratios = {m: [] for m in levels}
    schedule, reports, failed = {}, {}, {}
    pending = sorted(levels)
    for _ in range(max_bisections):
        for m, report in _sampled_ratios(germ, pending, radius, base).items():
            if report.max_ratio < TARGET_RATIO:
                schedule[m] = (max(min(report.max_ratio, 0.999), 1e-12), radius)
                reports[m] = report
                continue
            ratios[m].append(report.max_ratio)
            floor = _ratio_floor(ratios[m])
            if floor is not None and floor >= TARGET_RATIO:
                failed[m] = NonConvergence(
                    f"contraction ratio stalled at {ratios[m][-1]:.6g} after {len(ratios[m])} bisections: "
                    f"its decaying changes keep it above {floor:.6g} >= {TARGET_RATIO}",
                    residual=ratios[m][-1],
                )
        pending = [m for m in pending if m not in reports and m < min(failed, default=np.inf)]
        if not pending:
            break
        radius /= 2.0
    for m in pending:
        failed[m] = NonConvergence(
            f"no radius with contraction ratio < {TARGET_RATIO} found after {max_bisections} bisections",
            residual=ratios[m][-1] if ratios[m] else None,
        )
    if failed:
        raise failed[min(failed)]
    return replace(germ, contraction_schedule={**germ.contraction_schedule, **schedule}), reports


def _ratio_floor(ratios):
    """The lowest value the sampled ratios can reach if the sizes of their
    changes go on decaying geometrically by a factor q per bisection:
    last - |d| q / (1 - q), d the last change.  q is the slower of the last
    two measured decay factors, and no faster than 1/2: halving the radius
    halves a change linear in it, and a faster-decaying term (r**2, r**3)
    that still drives the changes would give a too fast q.  With q >= 1/2
    the floor is at most last - |d|, below the limit of any ratio
    L + sum c_a r**a, a >= 1, with coefficients of one sign.  None while
    fewer than three changes are known or they do not decay (q >= 1)."""
    if len(ratios) < 4:
        return None
    d = np.abs(np.diff(ratios[-4:]))
    q = max([0.5] + [later / earlier if earlier else np.inf for earlier, later in zip(d, d[1:]) if later])
    return ratios[-1] - d[-1] * q / (1 - q) if q < 1 else None
