"""The acceptance battery: one function per criterion, shared by the CLI
selftest command and the pytest acceptance module.

Every function returns a CriterionResult with named metrics; thresholds are
pinned here, not in the callers.  The checks a criterion shares with the
CLI's solve-germ, parametrize, cones and degree commands are defined once
below; they take the model and, where they sample, an rng and a sample
count, so each caller keeps its own seed and count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cones, registry
from ._linalg import newton
from .errors import GermforgeError
from .degree import (
    DifferentialForm,
    compute_degree,
    enumerate_zeros,
    integrate_form,
    invariance_suite,
)
from .fredholm import BasicGerm, ScPlusSection, fredholm_index, index_from_linearization, perturb_normal_form
from .germs import SamplingPlan, SolutionGerm, germ_derivative, solve_germ, tangent_germ, verify_contraction
from .orientation import build_transport, continue_orientation, determinant_line, stabilize
from .solution import SolutionAtlas, build_boundary_parametrization, build_parametrization, recentre, transition_map
from .spaces import GradedSpace
from .splicing import degeneracy_index, linearize_filled

# frozen Picard oracle for u = 0.25 cos(u), iterated far past 1e-12
COS_GERM_DELTA0 = 0.2426746806408902


@dataclass
class CriterionResult:
    name: str
    passed: bool
    metrics: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.metrics.items()))
        return f"{status} {self.name}: {parts}"


def level_residuals(germ) -> list:
    """level_norm(u - B(0, u), m) of the Picard solution u at each level m."""
    v0 = np.zeros(germ.parameter_space.dim)
    residuals = []
    for m in range(germ.solution_space.levels + 1):
        u = solve_germ(germ, v0, m=m, tol=1e-12)
        residuals.append(germ.solution_space.level_norm(u - germ.evaluate(v0, u), m))
    return residuals


def derivative_fd_check(germ):
    """delta'(0), and the relative error of its first column against a
    central difference of delta in the first parameter."""
    v0 = np.zeros(germ.parameter_space.dim)
    d = germ_derivative(germ, v0, tol=1e-13)
    h = 1e-6
    e0 = np.zeros_like(v0)
    e0[0] = h
    fd = (solve_germ(germ, e0, tol=1e-13) - solve_germ(germ, -e0, tol=1e-13)) / (2 * h)
    return d, float(np.max(np.abs(d[:, 0] - fd)) / max(np.max(np.abs(fd)), 1e-30))


def tangent_coherence_error(germ, rng, samples: int) -> float:
    """Worst gap between the tangent germ's solution and (delta(v),
    delta'(v) b) over samples v in [-0.2, 0.2], b in [-1, 1]."""
    sol = SolutionGerm(germ, tol=1e-13)
    lifted = tangent_germ(germ, sol)
    pdim = germ.parameter_space.dim
    worst = 0.0
    for _ in range(samples):
        v = rng.uniform(-0.2, 0.2, size=pdim)
        b = rng.uniform(-1.0, 1.0, size=pdim)
        got = solve_germ(lifted, np.concatenate([v, b]), tol=1e-13)
        want = np.concatenate([sol(v), sol.derivative(v) @ b])
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def circle_charts() -> list:
    """Charts of the unit circle at (1, 0), (0, 1), (-1, 0), (0, -1)."""
    bg = registry.circle_basic_germ()
    bases = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    return [build_parametrization(bg, q, radius=0.75) for q in bases]


def a_error(chart) -> float:
    """|A(0.6) - (-0.2, 0)| on the circle chart at (1, 0): Gamma(0.6) = (0.8, 0.6)."""
    return float(np.max(np.abs(chart.a_vector(np.array([0.6])) - np.array([-0.2, 0.0]))))


def transition_mismatch(chart) -> float:
    """Worst mismatch of the transition from a chart to its recentring at 0.4."""
    rec = recentre(chart, np.array([0.4]))
    tm = transition_map(chart, rec, rec.base_point)
    return max(tm.mismatch(np.array([t])) for t in np.linspace(-0.05, 0.05, 9))


def circumference(atlas) -> float:
    """Integral of -y dx + x dy over the atlas: 2 pi on the unit circle."""
    return integrate_form(atlas, DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]])))


def corner_accounting(chart, samples) -> bool:
    """At every sample t of a corner chart, Gamma(t) has as many vanishing
    constrained coordinates as n = K t has active quadrant constraints."""
    amb = GradedSpace(dim=chart.base_point.size, quadrant_rank=chart.ambient_rank)
    for t in samples:
        s = chart.structure.to_standard @ (chart.kernel_basis @ t)
        active = int(np.sum(np.abs(s[: chart.structure.quadrant_count]) <= 1e-9))
        if degeneracy_index(chart.gamma(t), amb) != active:
            return False
    return True


def krein_milman_residual(rays, rng, samples: int) -> float:
    """Worst cone-membership residual of random nonnegative ray combinations."""
    worst = 0.0
    for _ in range(samples):
        lam = np.abs(rng.normal(size=len(rays)))
        p = sum(l * r for l, r in zip(lam, rays))
        worst = max(worst, cones.cone_membership_residual(p, rays))
    return worst


def round_trip_error(sub, rng, samples: int) -> float:
    """Worst from_standard(to_standard(x)) - x over random cone points x."""
    qs = cones.quadrant_structure(sub)
    worst = 0.0
    for _ in range(samples):
        lam = np.abs(rng.normal(size=len(qs.rays)))
        x = sum(l * r for l, r in zip(lam, qs.rays))
        worst = max(worst, float(np.max(np.abs(qs.from_standard @ (qs.to_standard @ x) - x))))
    return worst


def sigma_counts_ok(sub, rays) -> bool:
    """Each extreme ray of a good-position cone has dim - 1 vanishing
    constraints."""
    return all(len(cones.sigma_set(r, sub.n, tol=1e-8)) == sub.dim - 1 for r in rays)


def cubic_homotopy_shift(t, x):
    """The shift 0.05 t along which the degree of x^3 - x must not change."""
    return np.array([0.05 * t])


def criterion_1_germ_solver() -> CriterionResult:
    """Residuals at every level, sampled contraction ratio, oracle values."""
    germ = registry.cos_germ()
    worst_res = max(level_residuals(germ))
    # the sampled certificate solve-germ reports as contraction_ratio
    worst_ratio = max(verify_contraction(germ, m).max_ratio
                      for m in range(germ.solution_space.levels + 1))
    delta0 = solve_germ(germ, np.array([0.0]), m=0, tol=1e-13)[0]
    _, rel_err = derivative_fd_check(germ)
    metrics = {
        "max_residual": worst_res,
        "max_ratio": worst_ratio,
        "delta0_error": abs(delta0 - COS_GERM_DELTA0),
        "derivative_rel_error": rel_err,
    }
    passed = (worst_res <= 1e-10 and worst_ratio <= 0.3
              and metrics["delta0_error"] <= 1e-9 and rel_err <= 1e-6)
    return CriterionResult("1-germ-solver", passed, metrics)


def criterion_2_tangent_coherence() -> CriterionResult:
    """Lifted germ solution equals (delta(v), delta'(v) b) at 100 samples."""
    rng = np.random.Generator(np.random.Philox(key=21))
    worst = tangent_coherence_error(registry.cos_germ(), rng, 100)
    passed = worst <= 1e-8
    return CriterionResult("2-tangent-coherence", passed, {"max_error": worst})


def criterion_3_filler_equivalence() -> CriterionResult:
    """Zero sets of the spliced and filled sections agree; block structure."""
    fs = registry.rotating_line_filled_section()
    model = fs.model
    rng = np.random.Generator(np.random.Philox(key=33))
    worst_forward = 0.0   # every core zero fills to a filled zero
    worst_backward = 0.0  # every polished filled zero lies on the core with f = 0
    mag = lambda v: 1.0 + 0.3 * np.sin(v)
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, size=1)
        c = mag(v[0]) * np.array([np.cos(v[0]), np.sin(v[0])])
        worst_forward = max(worst_forward, float(np.max(np.abs(fs.evaluate(v, c)))))

    def guarded(x):
        # keep Newton inside the splicing parameter region
        if abs(x[0]) >= 1.15:
            return np.array([1e3, 1e3])
        return fs.evaluate_flat(x)

    for _ in range(200):
        x0 = np.concatenate([rng.uniform(-0.9, 0.9, size=1), rng.normal(size=2)])
        x, res, ok = newton(guarded, x0)
        if not ok or res > 1e-11 or abs(x[0]) > 1.1:
            continue
        v, e = x[:1], x[1:]
        core_defect = float(np.max(np.abs(model.projection(v) @ e - e)))
        section_val = float(np.max(np.abs(fs.section_value(v, e))))
        worst_backward = max(worst_backward, core_defect, section_val)
    v0 = np.array([0.3])
    q = np.concatenate([v0, mag(0.3) * np.array([np.cos(0.3), np.sin(0.3)])])
    rep = linearize_filled(fs, q)
    metrics = {
        "zero_forward": worst_forward,
        "zero_backward": worst_backward,
        "off_diagonal": rep.off_diagonal_norm,
        "index_filled": rep.filled_index,
        "index_section": rep.section_index,
    }
    passed = (worst_forward <= 1e-9 and worst_backward <= 1e-9
              and rep.off_diagonal_norm <= 1e-9
              and rep.filled_index == rep.section_index
              and rep.filled_surjective == rep.section_surjective)
    return CriterionResult("3-filler-equivalence", passed, metrics)


def _random_linear_basic_germ(rng, n=3, N=1, wdim=2, scale=0.2) -> BasicGerm:
    W = GradedSpace(dim=wdim, levels=2, weights=np.ones(wdim))
    M = rng.normal(size=(N + wdim, n + wdim)) * scale
    M[N:, n:] += np.eye(wdim)

    def g(x, M=M):
        return M @ x

    return BasicGerm(n=n, k=min(1, n), N=N, W=W, g=g,
                     contraction_schedule={m: (0.6, 1.0) for m in range(3)})


def criterion_4_index_stability() -> CriterionResult:
    """Index n - N against SVD on 20 germs; normal form preserves it."""
    rng = np.random.Generator(np.random.Philox(key=44))
    index_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, n + 1))
        wdim = int(rng.integers(1, 3))
        bg = _random_linear_basic_germ(rng, n=n, N=N, wdim=wdim)
        if index_from_linearization(bg.jacobian_at_zero()) != fredholm_index(bg):
            index_ok = False
    stability_ok = True
    worst_ratio = 0.0
    for _ in range(20):
        bg = _random_linear_basic_germ(rng, scale=0.08)
        A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
        Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05

        def s_map(x, A=A, Q=Q):
            return A @ x + Q @ (x * x)

        s = ScPlusSection(section=s_map, levels=bg.W.levels)
        out, rep = perturb_normal_form(bg, s)
        worst_ratio = max(worst_ratio, rep.contraction_ratio)
        if fredholm_index(out) != fredholm_index(bg):
            stability_ok = False
        check = verify_contraction(out.inner, 0, SamplingPlan(seed=7))
        if check.max_ratio >= 0.9:
            stability_ok = False
            worst_ratio = max(worst_ratio, check.max_ratio)
    metrics = {"index_ok": index_ok, "stability_ok": stability_ok, "worst_ratio": worst_ratio}
    return CriterionResult("4-index-stability", index_ok and stability_ok and worst_ratio < 0.9, metrics)


def criterion_5_cones() -> CriterionResult:
    rng = np.random.Generator(np.random.Philox(key=55))
    # neat => good position with c = 1 on 10^4-sample grids
    neat_ok = True
    for sub in registry.neat_instances():
        res = cones.is_neat(sub)
        if not res.neat:
            neat_ok = False
            continue
        bad = cones.check_position_pair(sub, res.complement, 1.0, grid=10_000, seed=3)
        if bad is not None:
            neat_ok = False
    # Krein-Milman reconstruction on registry pointed cones
    km_worst = max(krein_milman_residual(cones.extreme_rays(sub), rng, 1000)
                   for sub in (registry.diag_plane_subspace(), registry.diagonal_in_square(),
                               registry.circular_cone_subspace()))
    # quadrant recognition
    quad_ok = True
    for t in range(20):
        T = rng.normal(size=(3, 3))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.normal(size=(3, 3))
        amb = GradedSpace(dim=3, levels=2, weights=np.ones(3), quadrant_rank=3)
        sub = cones.SubspaceInQuadrant(ambient=amb, basis=np.linalg.inv(T))
        if not cones.is_quadrant(sub).is_quadrant:
            quad_ok = False
    ice_ok = not cones.is_quadrant(registry.circular_cone_subspace()).is_quadrant
    # sigma invariant on good-position instances
    good = (registry.diag_plane_subspace(), registry.diagonal_in_square())
    sigma_ok = all(sigma_counts_ok(sub, cones.extreme_rays(sub)) for sub in good)
    # round trips
    rt_worst = max(round_trip_error(sub, rng, 200) for sub in good)
    metrics = {
        "neat_ok": neat_ok, "km_worst": km_worst, "quad_ok": quad_ok,
        "ice_ok": ice_ok, "sigma_ok": sigma_ok, "round_trip": rt_worst,
    }
    passed = neat_ok and km_worst <= 1e-8 and quad_ok and ice_ok and sigma_ok and rt_worst <= 1e-10
    return CriterionResult("5-cones", passed, metrics)


def criterion_6_parametrization() -> CriterionResult:
    charts = circle_charts()
    a_err = a_error(charts[0])
    worst_res = 0.0
    worst_da0 = 0.0
    for c in charts:
        for t in c.domain_samples(25, seed=9):
            worst_res = max(worst_res, c.residual(t))
        for j in range(c.dim):
            e = np.zeros(c.dim)
            e[j] = 1e-5
            da = (c.a_vector(e) - c.a_vector(-e)) / 2e-5
            worst_da0 = max(worst_da0, float(np.max(np.abs(da))))
    trans_worst = transition_mismatch(charts[0])

    # boundary chart on y - x^2 at the corner
    bchart = build_boundary_parametrization(registry.parabola_corner_germ(), np.zeros(2), radius=0.4)
    samples = bchart.domain_samples(40, seed=13)
    parab_worst = max(abs(g[1] - g[0] ** 2) for g in map(bchart.gamma, samples))
    # the corner itself has one vanishing constrained coordinate
    corner_ok = (corner_accounting(bchart, samples)
                 and degeneracy_index(bchart.gamma(np.zeros(1)), GradedSpace(dim=2, quadrant_rank=1)) == 1)
    metrics = {
        "circle_a_error": a_err, "max_residual": worst_res, "max_da0": worst_da0,
        "transition_worst": trans_worst, "parabola_error": parab_worst, "corner_ok": corner_ok,
    }
    passed = (a_err <= 1e-9 and worst_res <= 1e-8 and worst_da0 <= 1e-6
              and trans_worst <= 1e-8 and parab_worst <= 1e-8 and corner_ok)
    return CriterionResult("6-parametrization", passed, metrics)


def criterion_7_orientation() -> CriterionResult:
    # worked stabilization example
    dl = determinant_line(np.diag([1.0, 0.0]))
    hand = stabilize(dl, np.diag([1.0, 0.0])).sign
    # projection independence against dense determinant oracle
    from .orientation import bordered_sign

    rng = np.random.Generator(np.random.Philox(key=77))
    proj_ok = True
    for _ in range(20):
        n = 4
        A = rng.normal(size=(n, n))
        U, s, Vt = np.linalg.svd(A)
        s[-1] = 0.0
        T = U @ np.diag(s) @ Vt
        dlT = determinant_line(T)
        signs, oracles = [], []
        while len(signs) < 2:
            w = rng.normal(size=n)
            w /= np.linalg.norm(w)
            P = np.eye(n) - np.outer(w, w)
            try:
                st = stabilize(dlT, P)
            except GermforgeError:      # a projection that does not work: draw another
                continue
            signs.append(st.sign)
            oracles.append(bordered_sign(P @ T, st.kernel_basis, st.complement_basis))
        if signs[0] * signs[1] != oracles[0] * oracles[1]:
            proj_ok = False
    # spectral flow and refinement stability
    flow_signs = []
    for count in (17, 33, 65):
        ts = np.linspace(0.0, 1.0, count)
        ops = [np.diag([1.0, 2 * t - 1.0]) for t in ts]
        tr = build_transport(ops, grid=ts)
        flow_signs.append(continue_orientation(tr, 1))
    rot_signs = []
    for count in (17, 33, 65):
        ts = np.linspace(0.0, 1.0, count)
        ops = [np.array([[np.cos(np.pi * t), -np.sin(np.pi * t)],
                         [np.sin(np.pi * t), np.cos(np.pi * t)]]) for t in ts]
        rot_signs.append(continue_orientation(build_transport(ops, grid=ts), 1))
    metrics = {
        "hand_sign": hand, "projection_ok": proj_ok,
        "flow_signs": tuple(flow_signs), "rotation_signs": tuple(rot_signs),
    }
    passed = (hand == 1 and proj_ok and all(s == -1 for s in flow_signs)
              and all(s == 1 for s in rot_signs))
    return CriterionResult("7-orientation", passed, metrics)


def criterion_8_degree() -> CriterionResult:
    cubic = registry.cubic_problem(seed=8)
    deg_cubic = compute_degree(cubic)
    sq = registry.square_minus_one_problem(seed=9)
    deg_sq = compute_degree(sq)
    violations = 0
    try:
        rep = invariance_suite(cubic, trials=50, homotopy_shift=cubic_homotopy_shift)
        trials_deg = rep.degree
    except GermforgeError:
        violations = 1
        trials_deg = None
    metrics = {"deg_cubic": deg_cubic, "deg_square": deg_sq,
               "violations": violations, "suite_degree": trials_deg}
    passed = deg_cubic == 1 and deg_sq == 0 and violations == 0 and trials_deg == 1
    return CriterionResult("8-degree", passed, metrics)


def criterion_9_form_integration() -> CriterionResult:
    atlas = SolutionAtlas(charts=tuple(circle_charts()))
    circ = circumference(atlas)
    exact = DifferentialForm(degree=1, coeff=lambda x: np.array([x[1], x[0]]))
    zero = integrate_form(atlas, exact)
    metrics = {"circumference_error": abs(circ - 2 * np.pi), "exact_form": abs(zero)}
    passed = metrics["circumference_error"] <= 1e-6 and metrics["exact_form"] <= 1e-8
    return CriterionResult("9-form-integration", passed, metrics)


def _determinism_probe(seed: int) -> str:
    """A canonical metric table formatted to full precision."""
    germ = registry.cos_germ()
    rows = []
    delta0 = solve_germ(germ, np.array([0.0]), tol=1e-13)[0]
    rows.append(("delta0", repr(delta0)))
    rows.append(("derivative", repr(germ_derivative(germ, np.array([0.0]))[0, 0])))
    pp = registry.cubic_problem(seed=seed)
    rows.append(("degree", repr(compute_degree(pp))))
    zs = enumerate_zeros(pp)
    for i, z in enumerate(zs):
        rows.append((f"zero{i}", repr(float(z.point[0]))))
    rep = verify_contraction(germ, 0, SamplingPlan(seed=seed))
    rows.append(("ratio", repr(rep.max_ratio)))
    return "\n".join(f"{k},{v}" for k, v in rows)


def criterion_10_determinism() -> CriterionResult:
    a = _determinism_probe(123)
    b = _determinism_probe(123)
    passed = a.encode() == b.encode()
    return CriterionResult("10-determinism", passed, {"bytes_equal": passed})


ALL_CRITERIA = (
    criterion_1_germ_solver,
    criterion_2_tangent_coherence,
    criterion_3_filler_equivalence,
    criterion_4_index_stability,
    criterion_5_cones,
    criterion_6_parametrization,
    criterion_7_orientation,
    criterion_8_degree,
    criterion_9_form_integration,
    criterion_10_determinism,
)


def run_all(echo=None) -> list:
    """Each criterion's result, with its wall time set; echo gets each line."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.time()
        res = fn()
        res.wall_time = time.time() - t0
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
