from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import registry
from germforge.degree import (
    AuxiliaryNorm,
    DifferentialForm,
    PerturbationProblem,
    Window,
    atlas_covers_points,
    compute_degree,
    enumerate_zeros,
    generic_perturbation,
    integrate_form,
    invariance_suite,
    make_bump_section,
    smooth_plateau,
)
from germforge.degree import _Cell, _chart_orientation_sign, _covering_u
from germforge.errors import BudgetExceeded, DimensionUnsupported, IndexMismatch, WindowEscape
from germforge.orientation import OrientationReference
from germforge.solution import SolutionAtlas, build_boundary_parametrization, build_parametrization
from germforge.spaces import GradedSpace

FIBER = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))


def problem(f, lo, hi, seeds=(), seed=0, budget=1.0, rank=0):
    return PerturbationProblem(
        section=f,
        window=Window(lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float)),
        aux_norm=AuxiliaryNorm(fiber_space=FIBER),
        budget=budget,
        seeds=tuple(np.asarray(s, dtype=float) for s in seeds),
        rng_seed=seed,
        quadrant_rank=rank,
    )


def test_plateau_shape():
    assert smooth_plateau(0.0) == 1.0
    assert smooth_plateau(0.5) == 1.0
    assert smooth_plateau(1.0) == 0.0
    assert 0.0 < smooth_plateau(0.75) < 1.0
    vals = [smooth_plateau(u) for u in np.linspace(0.5, 1.0, 50)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bump_section_zero_value():
    aux = AuxiliaryNorm(fiber_space=FIBER)
    s = make_bump_section(np.zeros(1), np.zeros(1), 1.0, 0.5, aux, levels=3)
    for x in np.linspace(-2, 2, 11):
        assert np.max(np.abs(s(np.array([x])))) == 0.0


def test_bump_section_exact_value_and_support():
    aux = AuxiliaryNorm(fiber_space=FIBER)
    x0 = np.array([0.2])
    h0 = np.array([0.5])
    s = make_bump_section(x0, h0, 1.0, 0.6, aux, levels=3)
    assert np.allclose(s(x0), h0)
    assert s.output_level(0) == 1
    assert np.max(np.abs(s(np.array([2.0])))) == 0.0
    # the plateau never exceeds 1, so the budget norm is dominated by h0's
    for x in np.linspace(-1.5, 1.5, 41):
        assert aux(np.array([x]), s(np.array([x]))) <= aux(x0, h0) + 1e-15


def test_bump_section_budget_guard():
    aux = AuxiliaryNorm(fiber_space=FIBER)
    with pytest.raises(BudgetExceeded):
        make_bump_section(np.zeros(1), np.array([2.0]), 1.0, 0.5, aux, levels=3)


def test_bump_section_respects_fiber_projection():
    fiber2 = GradedSpace(dim=2, levels=3)
    aux = AuxiliaryNorm(fiber_space=fiber2)
    model = registry.rotating_line_model()
    rho = lambda y: model.projection(y[:1])
    x0 = np.array([0.3, 0.0, 0.0])
    h0 = model.projection(np.array([0.3])) @ np.array([1.0, 0.3])
    s = make_bump_section(x0, h0, 0.5, 5.0, aux, levels=3, fiber_projection=rho)
    assert np.max(np.abs(s(x0) - h0)) < 1e-12
    for _ in range(20):
        y = x0 + np.random.default_rng(5).normal(size=3) * 0.1
        val = s(y)
        assert np.max(np.abs(rho(y) @ val - val)) < 1e-12


def test_enumerate_zeros_identity():
    pp = problem(lambda x: np.array([x[0]]), [-2], [2], seeds=([0.5],))
    zs = enumerate_zeros(pp)
    assert len(zs) == 1
    assert abs(zs[0].point[0]) < 1e-12


def test_enumerate_zeros_cubic_matches_bisection_oracle():
    f = lambda x: np.array([x[0] ** 3 - x[0]])
    pp = problem(f, [-2], [2], seeds=([-1.5], [0.2], [1.4]))
    zs = enumerate_zeros(pp)
    # bisection oracle on sign changes over the window
    xs = np.linspace(-2, 2, 400)
    oracle = []
    for a, b in zip(xs, xs[1:]):
        fa, fb = f(np.array([a]))[0], f(np.array([b]))[0]
        if fa == 0.0:
            oracle.append(a)
        if fa * fb < 0:
            lo, hi = a, b
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(np.array([lo]))[0] * f(np.array([mid]))[0] <= 0:
                    hi = mid
                else:
                    lo = mid
            oracle.append(0.5 * (lo + hi))
    assert len(zs) == len(oracle) == 3
    for z, o in zip(zs, sorted(oracle)):
        assert abs(z.point[0] - o) < 1e-8
        assert z.residual <= 1e-10


def test_enumerate_zeros_empty_for_positive_function():
    pp = problem(lambda x: np.array([x[0] ** 2 + 1.0]), [-2], [2])
    assert enumerate_zeros(pp) == []


def test_window_escape_detected():
    # zero at 3.0 sits outside the declared window: the model is not proper on it
    pp = problem(lambda x: np.array([x[0] - 3.0]), [-2], [2], seeds=([1.9],))
    with pytest.raises(WindowEscape):
        enumerate_zeros(pp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_enumerate_zeros_skips_starts_off_the_domain_without_warnings():
    # inf on x <= 0.25: a grid start there stops at its residual, before an
    # FD Jacobian would take inf - inf
    pp = replace(problem(lambda x: np.array([x[0] - 1.0 if x[0] > 0.25 else np.inf]), [-2], [2]),
                 grid_starts=16)
    assert [z.point for z in enumerate_zeros(pp)] == [np.array([1.0])]


def test_generic_perturbation_accepts_transversal_sections():
    pp = problem(lambda x: np.array([x[0] ** 3 - x[0]]), [-2], [2], seeds=([-1.5], [0.2], [1.4]))
    out = generic_perturbation(pp)
    assert out.lambdas.size == 0
    assert len(out.zeros) == 3


def test_generic_perturbation_splits_degenerate_zero():
    pp = problem(lambda x: np.array([x[0] ** 2]), [-1], [1], seeds=([0.0],), budget=0.1, seed=5)
    out = generic_perturbation(pp)
    # x^2 + c either splits into two transversal zeros or has none
    assert len(out.zeros) in (0, 2)
    for z in out.zeros:
        assert z.surjective
    assert compute_degree(pp) == 0


def test_boundary_avoiding_perturbation_support():
    # degenerate interior zero on a quadrant problem: the fix must not touch
    # the boundary face
    f = lambda x: np.array([(x[0] - 0.5) ** 2])
    pp = problem(f, [0.0], [1.0], seeds=([0.5],), budget=0.2, rank=1, seed=6)
    out = generic_perturbation(pp, mode="interior_only")
    s = out.perturbation
    for eps in (1e-4, 1e-3, 0.05):
        assert not s.support_contains(np.array([eps]))
        assert np.max(np.abs(s(np.array([eps])))) == 0.0


def test_boundary_avoiding_fails_loud_for_degenerate_boundary_zero():
    from germforge.errors import RetryExhausted

    f = lambda x: np.array([x[0] ** 2])
    pp = problem(f, [0.0], [1.0], seeds=([0.0],), budget=0.2, rank=1, seed=7)
    with pytest.raises(RetryExhausted):
        generic_perturbation(pp, mode="interior_only")


def test_boundary_mode_corner_transversality():
    pp = registry.boundary_parabola_problem()
    out = generic_perturbation(pp, mode="full_boundary")
    assert out.zeros
    for z in out.zeros:
        assert z.surjective
    corner = [z for z in out.zeros if abs(z.point[0]) <= 1e-9]
    assert corner
    # kernel at the corner is transversal to the boundary tangent
    z = corner[0]
    tangent = np.eye(2)[:, 1:]
    stacked = np.hstack([z.kernel_basis, tangent])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2


def test_degree_examples():
    assert compute_degree(problem(lambda x: np.array([x[0]]), [-2], [2], seeds=([0.5],))) == 1
    assert compute_degree(problem(lambda x: np.array([x[0] ** 3 - x[0]]), [-2], [2],
                                  seeds=([-1.5], [0.2], [1.4]))) == 1
    assert compute_degree(problem(lambda x: np.array([x[0] ** 2 - 1.0]), [-2], [2],
                                  seeds=([-1.3], [1.3]))) == 0
    assert compute_degree(problem(lambda x: np.array([-x[0]]), [-2], [2], seeds=([0.5],))) == -1


def test_degree_deterministic_given_seed():
    a = compute_degree(registry.cubic_problem(seed=7))
    b = compute_degree(registry.cubic_problem(seed=7))
    assert a == b == 1


def test_degree_index_mismatch():
    f = lambda x: np.array([x[0]])  # 1 output, 2 inputs
    pp = problem(f, [-1, -1], [1, 1], seeds=([0.5, 0.5],))
    with pytest.raises(IndexMismatch):
        compute_degree(pp)


def test_degree_with_base_zero_reference():
    pp = registry.cubic_problem(seed=3)
    ref = OrientationReference(kind="base_zero", base_point=np.array([-1.0]))
    assert compute_degree(pp, reference=ref) == 1


def test_invariance_suite_linear():
    pp = registry.identity_problem(seed=2)
    rep = invariance_suite(pp, trials=10)
    assert rep.degree == 1
    assert all(d == 1 for d in rep.trial_degrees)


def test_invariance_suite_cubic_with_homotopy():
    pp = registry.cubic_problem(seed=4, budget=0.1)
    rep = invariance_suite(pp, trials=50, homotopy_shift=lambda t, x: np.array([0.05 * t]))
    assert rep.degree == 1
    assert len(rep.trial_degrees) == 50
    assert all(d == 1 for d in rep.trial_degrees)
    assert rep.homotopy_degrees and all(d == 1 for _, d in rep.homotopy_degrees)


class _CountedSection:
    """A basic germ's section that counts its evaluations."""

    def __init__(self, g):
        self.g = g
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.g(x)


def counted_circle_atlas():
    """The four axis charts of the unit circle, and their counted section."""
    section = _CountedSection(registry.circle_section)
    bg = replace(registry.circle_basic_germ(), g=section)
    bases = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    return SolutionAtlas(charts=tuple(build_parametrization(bg, q, radius=0.75) for q in bases)), section


def circle_atlas():
    return counted_circle_atlas()[0]


def test_atlas_covers_circle():
    atlas = circle_atlas()
    pts = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 73)]
    assert atlas_covers_points(atlas, pts)


def test_circle_cells_partition_the_circle():
    # every sample point lies in exactly one chart's cell: the chart covers it
    # and it sits inside that cell's ray limit
    charts = circle_atlas().charts
    cells = [_Cell(c, charts[:i] + charts[i + 1:], 0.95 * c.radius) for i, c in enumerate(charts)]
    for a in np.linspace(0, 2 * np.pi, 37):
        x = np.array([np.cos(a), np.sin(a)])
        owners = 0
        for cell in cells:
            t = cell.chart.kernel_basis.T @ (x - cell.chart.base_point)
            e = np.where(t >= 0, 1.0, -1.0)
            if np.isfinite(_covering_u(cell.chart, x)) and abs(t[0]) < cell.limit(e)[0]:
                owners += 1
        assert owners == 1


def cubic_point_atlas():
    """The 0-dimensional atlas of the zeros of the cubic x^3 - x."""
    pp = registry.cubic_problem(seed=1)
    from germforge.solution import GoodParametrization

    return SolutionAtlas(charts=tuple(GoodParametrization(
        base_point=z.point, kernel_basis=np.zeros((1, 0)), complement_basis=np.eye(1), radius=0.1,
        section=pp.section, a_map=lambda t: np.zeros(1)) for z in enumerate_zeros(pp)))


def test_zero_form_counts_signed_points():
    # 0-dimensional atlas from the cubic's zeros: Phi([1]) = degree
    one = DifferentialForm(degree=0, coeff=lambda x: 1.0)
    val = integrate_form(cubic_point_atlas(), one)
    assert val == pytest.approx(compute_degree(registry.cubic_problem(seed=1)))


def test_circumference_integral():
    atlas = circle_atlas()
    omega = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
    val = integrate_form(atlas, omega)
    assert abs(val - 2 * np.pi) <= 1e-6


def test_exact_form_integrates_to_zero():
    atlas = circle_atlas()
    d_xy = DifferentialForm(degree=1, coeff=lambda x: np.array([x[1], x[0]]))
    assert abs(integrate_form(atlas, d_xy)) <= 1e-8


def test_circle_cells_converge_spectrally():
    # Gauss-Legendre on each smooth cell: 16 nodes per chart reach 1e-10
    omega = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
    assert abs(integrate_form(circle_atlas(), omega, nodes_per_axis=16) - 2 * np.pi) <= 1e-10


def test_sphere_cell_is_a_cube_face():
    # the six axis charts of the unit sphere cut it like the faces of a cube,
    # so the cell of the chart at (0, 0, 1) has area 4 pi / 6; its corners
    # split the circle of rays into four pieces
    from germforge.fredholm import BasicGerm

    bg = BasicGerm(n=3, k=0, N=1, W=GradedSpace(dim=0, levels=3), g=lambda x: np.array([x @ x - 1.0]))
    bases = [np.array(b, dtype=float) for b in
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    charts = [build_parametrization(bg, q, radius=0.9) for q in bases]
    cell = _Cell(charts[4], charts[:4] + charts[5:], 0.95 * 0.9)
    pieces = cell.pieces(32)
    assert len(pieces) == 4 and {label for _, _, label, _ in pieces} == {0, 1, 2, 3}   # the +-x, +-y charts
    area = DifferentialForm(degree=2, coeff=lambda p: np.array(
        [[0.0, p[2], -p[1]], [-p[2], 0.0, p[0]], [p[1], -p[0], 0.0]]))
    val = sum(w * area.pullback(cell.chart.gamma(t), cell.chart.kernel_transport(t)) for t, w in cell.nodes(32))
    assert abs(abs(val) - 4 * np.pi / 6) <= 1e-8


def test_cell_with_a_corner_piece_the_scan_misses():
    # on the plane z = 0 the charts are flat and equal radii make the cells
    # Voronoi cells: a pentagon of neighbours at 1.2 from the centre, and a
    # sixth at 1.44 towards a pentagon vertex cuts a corner off it.  The cut
    # spans 4.7 degrees, less than the scan's 30 degree step, so the scan
    # misses it; the rays that land in it find it, and the rule splits there
    from germforge.fredholm import BasicGerm

    bg = BasicGerm(n=3, k=0, N=1, W=GradedSpace(dim=0, levels=3), g=lambda x: np.array([x[2]]))
    centre = build_parametrization(bg, np.zeros(3), radius=1.0)
    spots = [d * np.array([np.cos(a), np.sin(a)]) for a, d in
             [(np.deg2rad(a), 1.2) for a in (0, 72, 144, 216, 288)] + [(np.deg2rad(36), 1.44)]]
    cell = _Cell(centre, [build_parametrization(bg, centre.kernel_basis @ p, radius=1.0) for p in spots], 0.95)
    assert 5 not in {label for _, _, label, _ in cell.pieces(48)}
    # the cell is the polygon {t : p . t <= |p|^2 / 2}, all its vertices well inside rho_max
    ring = sorted(spots, key=lambda p: np.arctan2(p[1], p[0]))
    corners = np.array([np.linalg.solve(np.array([p, q]), [p @ p / 2, q @ q / 2])
                        for p, q in zip(ring, ring[1:] + ring[:1])])
    area = 0.5 * abs(np.sum(corners[:, 0] * np.roll(corners[:, 1], -1) - corners[:, 1] * np.roll(corners[:, 0], -1)))
    assert abs(sum(w for _, w in cell.nodes(48)) - area) <= 1e-8


def test_quadrature_refinement_stable():
    atlas = circle_atlas()
    omega = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
    a = integrate_form(atlas, omega, nodes_per_axis=320)
    b = integrate_form(atlas, omega, nodes_per_axis=640)
    assert abs(a - b) < 1e-6


def test_sphere_area_two_form():
    # f(x) = |x|^2 - 1 in R^3: a 2-dimensional zero set; the area form
    # p . (u x v) integrates to 4 pi (divergence-theorem oracle)
    from germforge.fredholm import BasicGerm

    W = GradedSpace(dim=0, levels=3)
    bg = BasicGerm(n=3, k=0, N=1, W=W, g=lambda x: np.array([x @ x - 1.0]))
    bases = [np.array(b, dtype=float) for b in
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    atlas = SolutionAtlas(charts=tuple(build_parametrization(bg, q, radius=0.9) for q in bases))
    rng = np.random.default_rng(0)
    pts = []
    for _ in range(200):
        p = rng.normal(size=3)
        pts.append(p / np.linalg.norm(p))
    assert atlas_covers_points(atlas, pts)

    def area_coeff(p):
        return np.array([[0.0, p[2], -p[1]], [-p[2], 0.0, p[0]], [p[1], -p[0], 0.0]])

    omega = DifferentialForm(degree=2, coeff=area_coeff)
    val = integrate_form(atlas, omega, nodes_per_axis=32)
    assert abs(val - 4 * np.pi) < 2e-2


def test_exact_form_on_the_parabola_corner_chart():
    # the corner chart of y = x^2 on x >= 0 has the x-axis as kernel and the
    # y-axis as complement, so its cell is the arc from the corner to
    # (rho, rho^2), rho = 0.95 r; the co-orientation runs the arc towards the
    # corner, so d(phi) integrates to phi(0, 0) - phi(rho, rho^2)
    chart = build_boundary_parametrization(registry.parabola_corner_germ(), np.zeros(2), radius=0.4)
    rho = 0.95 * chart.radius
    d_phi = DifferentialForm(degree=1, coeff=lambda x: np.array([x[1] + np.cos(x[0]), x[0] + 2 * x[1]]))
    val = integrate_form(SolutionAtlas(charts=(chart,)), d_phi)
    assert abs(val + (rho**3 + rho**4 + np.sin(rho))) <= 1e-12


def test_area_of_the_quadrant_plane_corner_chart():
    # the corner chart of z = x + y on x, y >= 0 has isometric coordinates on
    # the plane, and its domain is the sector between the edges (1, 0, 1) and
    # (0, 1, 1), of angle pi / 3: the cell is that sector out to rho = 0.95 r,
    # and the area form about the normal (-1, -1, 1) / sqrt(3) integrates to
    # pi rho^2 / 6
    chart = build_boundary_parametrization(registry.quadrant_plane_germ(), np.zeros(3), radius=0.4)
    rho = 0.95 * chart.radius
    n = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
    area = np.array([[0.0, n[2], -n[1]], [-n[2], 0.0, n[0]], [n[1], -n[0], 0.0]])
    val = integrate_form(SolutionAtlas(charts=(chart,)), DifferentialForm(degree=2, coeff=lambda x: area))
    assert abs(val - np.pi * rho**2 / 6) <= 1e-12


def test_form_degree_guard():
    atlas = circle_atlas()
    with pytest.raises(DimensionUnsupported):
        integrate_form(atlas, DifferentialForm(degree=3, coeff=lambda x: None))


def test_incomplete_atlas_detected():
    from germforge.errors import AtlasIncomplete

    full = circle_atlas()
    holed = SolutionAtlas(charts=full.charts[:3])  # drop the bottom chart
    omega = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
    pts = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 73)]
    with pytest.raises(AtlasIncomplete):
        integrate_form(holed, omega, cover_points=pts, nodes_per_axis=8)
    # the full atlas passes the same coverage gate
    val = integrate_form(full, omega, cover_points=pts)
    assert abs(val - 2 * np.pi) <= 1e-6


def test_mismatched_degree_contributes_zero():
    atlas = circle_atlas()  # 1-dimensional charts
    zero_form = DifferentialForm(degree=0, coeff=lambda x: 1.0)
    assert integrate_form(atlas, zero_form) == 0.0


ROTATION = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
D_XY = DifferentialForm(degree=1, coeff=lambda x: np.array([x[1], x[0]]))
PLANE_AREA = DifferentialForm(degree=2, coeff=lambda x: np.array(
    [[0.0, 1.0, 1.0], [-1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]) / np.sqrt(3.0))
PLANE_TWIST = DifferentialForm(degree=2, coeff=lambda x: np.array(
    [[0.0, x[0], x[1]], [-x[0], 0.0, x[2]], [-x[1], -x[2], 0.0]]))


def quadrant_plane_atlas():
    return SolutionAtlas(charts=(build_boundary_parametrization(registry.quadrant_plane_germ(), np.zeros(3),
                                                                radius=0.4),))


def test_second_integral_over_an_atlas_makes_no_section_evaluation():
    atlas, section = counted_circle_atlas()
    integrate_form(atlas, ROTATION)
    before = section.calls
    integrate_form(atlas, D_XY)
    assert section.calls == before


def test_orientation_sign_takes_one_jacobian():
    atlas, section = counted_circle_atlas()
    chart = atlas.charts[0]
    chart.gamma(np.zeros(1))            # Gamma(0) is memoized since the chart's invariant check
    before = section.calls
    _chart_orientation_sign(chart, np.zeros(1))
    assert section.calls - before == 2 * chart.base_point.size


@pytest.mark.parametrize("build, first, second", [
    (circle_atlas, ROTATION, D_XY),
    (quadrant_plane_atlas, PLANE_AREA, PLANE_TWIST),
    (cubic_point_atlas, DifferentialForm(degree=0, coeff=lambda x: 1.0),
     DifferentialForm(degree=0, coeff=lambda x: float(x[0] ** 2 + 0.5))),
])
def test_integral_over_a_reused_rule_equals_the_fresh_integral(build, first, second):
    atlas = build()
    integrate_form(atlas, first)
    assert integrate_form(atlas, second) == integrate_form(build(), second)


def test_each_node_count_and_degree_builds_its_own_rule():
    atlas, section = counted_circle_atlas()
    integrate_form(atlas, ROTATION)
    before = section.calls
    coarse = integrate_form(atlas, ROTATION, nodes_per_axis=16)
    assert section.calls > before
    assert coarse == integrate_form(circle_atlas(), ROTATION, nodes_per_axis=16)
    assert integrate_form(atlas, DifferentialForm(degree=0, coeff=lambda x: 1.0)) == 0.0
    assert set(atlas._rules) == {(1, 32), (1, 16), (0, 32)}


def test_replaced_atlas_starts_without_rules():
    atlas, _ = counted_circle_atlas()
    full = integrate_form(atlas, ROTATION)
    holed = replace(atlas, charts=atlas.charts[:3])
    assert holed._rules == {} and set(atlas._rules) == {(1, 32)}
    assert integrate_form(holed, ROTATION) != full


def _counted_cubic():
    base = registry.cubic_problem()
    calls = [0]

    def section(x):
        calls[0] += 1
        return base.section(x)

    return replace(base, section=section), calls


def test_compute_degree_signs_zeros_from_held_jacobians():
    pp, calls = _counted_cubic()
    outcome = generic_perturbation(pp)
    assert len(outcome.zeros) == 3
    calls[0] = 0
    assert compute_degree(pp, outcome=outcome) == 1
    assert calls[0] == 0


def test_compute_degree_evaluates_base_zero_jacobian_at_most_once():
    pp, calls = _counted_cubic()
    outcome = generic_perturbation(pp)
    ambient = compute_degree(pp, outcome=outcome)
    # a reference at a held zero reuses that zero's linearization
    calls[0] = 0
    at_zero = OrientationReference(kind="base_zero", base_point=np.array([-1.0]))
    assert compute_degree(pp, reference=at_zero, outcome=outcome) == ambient
    assert calls[0] == 0
    # any other reference point costs one central-difference Jacobian (1-D)
    calls[0] = 0
    elsewhere = OrientationReference(kind="base_zero", base_point=np.array([1.5]))
    assert compute_degree(pp, reference=elsewhere, outcome=outcome) == ambient
    assert calls[0] == 2


# ------------------------------------------------------------ Newton basins

def enumerate_zeros_oracle(pp, s=None):
    """The multi-start loop without Newton basins: every start runs `newton`
    to the end and duplicates are dropped at the separation tolerance."""
    from scipy.stats import qmc

    from germforge._linalg import fd_jacobian, newton, svd_split
    from germforge.degree import DEDUPE_SEPARATION, WINDOW_MARGIN, ZERO_RESIDUAL

    extra = (lambda x: s(x)) if s is not None else None

    def func(x):
        return pp.evaluate(x, extra)

    starts = [np.asarray(p, dtype=float) for p in pp.seeds]
    if pp.grid_starts:
        sampler = qmc.Halton(d=pp.window.dim, scramble=True, seed=pp.rng_seed)
        starts.extend(qmc.scale(sampler.random(pp.grid_starts), pp.window.lo, pp.window.hi))
    zeros = []
    for x0 in starts:
        x, res, ok = newton(func, x0)
        if not ok or res > ZERO_RESIDUAL:
            continue
        nq = pp.quadrant_rank
        if nq:
            if np.any(x[:nq] < -WINDOW_MARGIN):
                continue
            x = x.copy()
            x[:nq] = np.where(np.abs(x[:nq]) <= 1e-12, 0.0, x[:nq])
        if not pp.window.contains(x, margin=WINDOW_MARGIN):
            raise WindowEscape("escaped", point=x)
        if any(np.linalg.norm(x - z[0]) < DEDUPE_SEPARATION for z in zeros):
            continue
        J = fd_jacobian(func, x)
        _, kernel, coker, sv = svd_split(J)
        zeros.append((x, res, J, sv, coker.shape[1] == 0, kernel))
    zeros.sort(key=lambda z: tuple(np.round(z[0], 9)))
    return [(x.tobytes(), res, J.tobytes(), sv.tobytes(), surj, kernel.tobytes())
            for x, res, J, sv, surj, kernel in zeros]


def report_bytes(zeros):
    return [(z.point.tobytes(), z.residual, z.jacobian.tobytes(), z.singular_values.tobytes(),
             z.surjective, z.kernel_basis.tobytes()) for z in zeros]


@pytest.mark.parametrize("model", ["cubic", "square-minus-one", "identity", "boundary-parabola"])
def test_basins_keep_the_zero_reports_of_the_degree_models(model):
    pp = registry.build(model)
    zs = enumerate_zeros(pp)
    assert report_bytes(zs) == enumerate_zeros_oracle(pp)
    square = zs[0].jacobian.shape[0] == zs[0].jacobian.shape[1]
    assert all((z.basin_radius > 0) == square for z in zs)


def test_basins_keep_the_zero_reports_of_a_perturbed_section():
    pp = problem(lambda x: np.array([x[0] ** 2]), [-1], [1], seeds=([0.0],), budget=0.1, seed=5)
    s = generic_perturbation(pp).perturbation
    assert report_bytes(enumerate_zeros(pp, s)) == enumerate_zeros_oracle(pp, s)


def test_basins_cut_the_section_evaluations_of_the_cubic():
    # without basins every one of the 67 starts is polished to 1e-13
    # (1,096 evaluations); each zero's basin costs 2 or 4 FD Jacobians of 2
    # evaluations.  The radii are 2/(3 beta L) with L = |J(z +- r) - J(z)| / r
    pp, calls = _counted_cubic()
    zs = enumerate_zeros(pp)
    assert calls[0] == 377
    assert [z.basin_radius for z in zs] == pytest.approx([4 / 27, 1 / 9, 4 / 27])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_basin_radius_of_a_degenerate_zero_is_zero_without_warnings():
    pp = problem(lambda x: np.array([x[0] ** 2]), [-1], [1], seeds=([0.0],), budget=0.1, seed=5)
    assert [z.basin_radius for z in enumerate_zeros(pp)] == [0.0]
    out = generic_perturbation(pp)
    assert all(np.isfinite(z.basin_radius) for z in out.zeros)
    assert compute_degree(pp) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_basin_of_a_linear_map_is_the_window_ball_without_warnings():
    # the samples give L = 0: the radius stays at the window margin, with no
    # division by L
    assert [z.basin_radius for z in enumerate_zeros(registry.identity_problem())] == [2.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("outside", [np.inf, np.nan])
def test_basin_radius_is_zero_when_a_ball_sample_leaves_the_domain(outside):
    # defined on x > 0.25 only; the ball of radius margin 1.5 around the zero
    # 0.5 reaches x = -1, its second sample (a NaN must not be lost in the
    # max).  One seed and no grid: Newton from 0.6 stays inside the domain
    def f(x):
        return np.array([x[0] ** 2 - 0.25]) if x[0] > 0.25 else np.array([outside])

    pp = replace(problem(f, [-2], [2], seeds=([0.6],)), grid_starts=0)
    zs = enumerate_zeros(pp)
    assert [z.point[0] for z in zs] == pytest.approx([0.5])
    assert zs[0].basin_radius == 0.0
    assert report_bytes(zs) == enumerate_zeros_oracle(pp)


def polynomial_problem(coeff, simple, double=(), seed=0):
    roots, dbl = np.array(simple), np.array(double)

    def section(x):
        return np.array([coeff * np.prod(x[0] - roots) * np.prod((x[0] - dbl) ** 2)])

    return replace(problem(section, [-2], [2], seed=seed), grid_starts=32)


def plane_problem(section, seed=0):
    return PerturbationProblem(section=section, window=Window(lo=np.full(2, -2.0), hi=np.full(2, 2.0)),
                               aux_norm=AuxiliaryNorm(fiber_space=GradedSpace(dim=2, levels=3)),
                               budget=0.1, rng_seed=seed, grid_starts=32)


def complex_section(phase, holo, anti):
    h_arr, a_arr = np.array(holo, dtype=complex), np.array(anti, dtype=complex)

    def section(x):
        w = phase * np.prod(complex(x[0], x[1]) - h_arr) * np.prod(np.conj(complex(x[0], x[1]) - a_arr))
        return np.array([w.real, w.imag])

    return section


def complex_problem(phase, holo, anti, seed=0):
    return plane_problem(complex_section(phase, holo, anti), seed)


@st.composite
def polynomials(draw, doubles=True):
    """(coefficient, simple roots, double roots) of a 1-D polynomial on [-2, 2]."""
    roots = draw(st.lists(st.floats(-1.6, 1.6), min_size=1, max_size=4))
    roots = [r for i, r in enumerate(roots) if all(abs(r - q) >= 0.2 for q in roots[:i])]
    n_double = draw(st.integers(0, min(1, len(roots) - 1))) if doubles else 0
    coeff = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.5))
    return coeff, roots[n_double:], roots[:n_double]


@st.composite
def complex_maps(draw):
    """(phase, holomorphic roots, antiholomorphic roots) in the disc of radius 1.5."""
    pts = draw(st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=3))
    pts = [r * np.exp(1j * a) for r, a in pts]
    pts = [p for i, p in enumerate(pts) if all(abs(p - q) >= 0.3 for q in pts[:i])]
    n_holo = draw(st.integers(0, len(pts)))
    phase = np.exp(1j * draw(st.floats(0.0, 2 * np.pi))) * draw(st.floats(0.5, 1.5))
    return complex(phase), pts[:n_holo], pts[n_holo:]


BASIN_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@BASIN_SETTINGS
@given(polynomials(), st.integers(0, 2**31 - 1))
def test_basins_keep_the_zero_reports_of_polynomials(poly, seed):
    pp = polynomial_problem(*poly, seed=seed)
    assert report_bytes(enumerate_zeros(pp)) == enumerate_zeros_oracle(pp)


@BASIN_SETTINGS
@given(complex_maps(), st.integers(0, 2**31 - 1))
def test_basins_keep_the_zero_reports_of_complex_maps(cmap, seed):
    pp = complex_problem(*cmap, seed=seed)
    assert report_bytes(enumerate_zeros(pp)) == enumerate_zeros_oracle(pp)


def zeros_or_escape(pp):
    """(reports, oracle reports), either one the point of its WindowEscape."""
    out = []
    for run in (lambda: report_bytes(enumerate_zeros(pp)), lambda: enumerate_zeros_oracle(pp)):
        try:
            out.append(run())
        except WindowEscape as exc:
            out.append(("escape", exc.point.tobytes()))
    return out


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


@st.composite
def bilinear_sections(draw):
    """u -> M u + c + u_0 u_1 w: the only curvature is in the mixed term."""
    def entries(n, bound):
        return np.array(draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n)))

    M, c, w = entries(4, 1.5).reshape(2, 2), entries(2, 0.5), entries(2, 3.0)
    return lambda x: M @ x + c + x[0] * x[1] * w


@st.composite
def linear_changes(draw):
    """(A, B): a rotation times a shear of the domain, a rotation times an
    unequal scale of the values, so that no curvature stays on the axes."""
    angles = st.floats(0.0, 2 * np.pi)
    A = rotation(draw(angles)) @ np.array([[1.0, draw(st.floats(-0.5, 0.5))], [0.0, 1.0]])
    B = rotation(draw(angles)) @ np.diag([draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))])
    return A, B


def test_basins_keep_both_zeros_of_a_map_curved_only_in_its_mixed_term():
    # (x + 2xy, y + 2xy) has the zeros (0, 0), det +1, and (-1/2, -1/2),
    # det -1, 0.71 apart.  Its second differences along the axes vanish, but
    # its Jacobian moves along them: L = 4 and both radii are 1/6
    pp = plane_problem(lambda x: np.array([x[0] + 2 * x[0] * x[1], x[1] + 2 * x[0] * x[1]]))
    zs = enumerate_zeros(pp)
    assert report_bytes(zs) == enumerate_zeros_oracle(pp)
    np.testing.assert_allclose([z.point for z in zs], [[-0.5, -0.5], [0.0, 0.0]], atol=1e-12)
    assert [z.basin_radius for z in zs] == pytest.approx([1 / 6] * 2)
    assert compute_degree(pp) == 0


@BASIN_SETTINGS
@given(bilinear_sections(), st.integers(0, 2**31 - 1))
def test_basins_keep_the_zero_reports_of_bilinear_maps(section, seed):
    reports, oracle = zeros_or_escape(plane_problem(section, seed))
    assert reports == oracle


@BASIN_SETTINGS
@given(complex_maps(), linear_changes(), st.integers(0, 2**31 - 1))
def test_basins_keep_the_zero_reports_of_complex_maps_in_linear_coordinates(cmap, change, seed):
    # y -> B f(A y): the zeros A^-1 z stay inside the window, |A^-1| < 1.3
    f, (A, B) = complex_section(*cmap), change
    reports, oracle = zeros_or_escape(plane_problem(lambda y: B @ f(A @ y), seed))
    assert reports == oracle


@BASIN_SETTINGS
@given(st.one_of(polynomials(doubles=False).map(lambda p: polynomial_problem(*p)),
                 complex_maps().map(lambda c: complex_problem(*c))),
       st.data())
def test_degree_is_invariant_under_orientation_preserving_affine_maps(pp, data):
    # A(y) = D y + t with D > 0 diagonal maps the window A^-1(W) onto W, so
    # f o A has the zeros A^-1(z) with Jacobians J D: beta scales by 1/min D,
    # L by D^2, and the signs of det stay
    d = pp.window.dim
    scale = np.array(data.draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d)))
    shift = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    pulled = replace(pp, section=lambda y: pp.section(scale * y + shift),
                     window=Window(lo=(pp.window.lo - shift) / scale, hi=(pp.window.hi - shift) / scale))
    assert compute_degree(pulled) == compute_degree(pp)
