from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import degree, registry
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
from germforge.degree import SUPPORT_SCALE, _Cell, _chart_orientation_sign, _covering_u, _quadrature_rule
from germforge.errors import (AtlasIncomplete, BudgetExceeded, DimensionUnsupported, IndexMismatch,
                              InvarianceViolation, NonConvergence, NotSurjective, RetryExhausted, WindowEscape)
from germforge.orientation import OrientationReference
from germforge.solution import (
    GoodParametrization,
    SolutionAtlas,
    _memo_key,
    _tangent,
    build_boundary_parametrization,
    build_parametrization,
)
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


def test_bump_section_has_the_bits_of_the_linalg_norm_form():
    # the distance is sqrt(d . d), which is np.linalg.norm(d) for a real d
    rng = np.random.default_rng(25)
    for d in (1, 2, 3):
        aux = AuxiliaryNorm(fiber_space=GradedSpace(dim=d, levels=3))
        x0, h0, radius = rng.normal(size=d), 0.1 * rng.normal(size=d), 10.0 ** rng.uniform(-3, 0)
        s = make_bump_section(x0, h0, radius, 5.0, aux, levels=3)
        for y in [x0 + radius * rng.uniform(0.3, 1.1) * rng.normal(size=d) for _ in range(300)]:
            u = float(np.linalg.norm(y - x0)) / radius
            assert s(y).tobytes() == (smooth_plateau(u) * h0).tobytes()
            assert s.support_contains(y) == (float(np.linalg.norm(y - x0)) < radius)


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
    out = generic_perturbation(pp)
    s = out.perturbation
    assert out.lambdas.size     # the zero at the seed is bumped
    for eps in (1e-4, 1e-3, 0.05):
        assert not s.support_contains(np.array([eps]))
        assert np.max(np.abs(s(np.array([eps])))) == 0.0


def test_boundary_avoiding_fails_loud_for_degenerate_boundary_zero():
    from germforge.errors import RetryExhausted

    f = lambda x: np.array([x[0] ** 2])
    pp = problem(f, [0.0], [1.0], seeds=([0.0],), budget=0.2, rank=1, seed=7)
    with pytest.raises(RetryExhausted):
        generic_perturbation(pp)


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
    pp = registry.cubic_problem(seed=4)
    rep = invariance_suite(pp, trials=50, homotopy_shift=lambda t, x: np.array([0.05 * t]))
    assert rep.degree == 1
    assert len(rep.trial_degrees) == 50
    assert all(d == 1 for d in rep.trial_degrees)
    assert rep.homotopy_degrees and all(d == 1 for _, d in rep.homotopy_degrees)


def test_invariance_suite_names_the_trial_whose_degree_differs(monkeypatch):
    pp = problem(lambda x: x, [-1.0], [1.0], seed=3)
    second = int(np.random.SeedSequence((3, 1)).generate_state(1)[0])     # trial 1's stream
    monkeypatch.setattr(degree, "compute_degree", lambda p: 2 if p.rng_seed == second else 1)
    with pytest.raises(InvarianceViolation, match="trial 1 gave degree 2 != 1") as exc:
        invariance_suite(pp, trials=3)
    assert exc.value.details == {"trial": 1, "seed": second}


def test_invariance_suite_names_the_homotopy_point_whose_degree_differs(monkeypatch):
    pp = problem(lambda x: x, [-1.0], [1.0], seed=3)
    monkeypatch.setattr(degree, "compute_degree", lambda p: 0 if p.rng_seed == 3 + 1000 + 2 else 1)
    t = float(np.linspace(0.0, 1.0, degree.HOMOTOPY_GRID)[2])
    with pytest.raises(InvarianceViolation, match=f"homotopy t={t:.3f} gave degree 0 != 1") as exc:
        invariance_suite(pp, trials=2, homotopy_shift=lambda t, x: np.zeros(1))
    assert exc.value.details == {"t": t}


def test_a_stop_ball_with_no_degree_on_it_nor_on_half_of_it_is_exhausted():
    # f vanishes exactly at x = +-1/2 and x = +-1/4, the ends of the ball of
    # radius 1/2 around 0 and of its half, so no end sign is sampled
    pp = problem(lambda x: (x ** 2 - 0.25) * (x ** 2 - 0.0625), [-2.0], [2.0])
    with pytest.raises(RetryExhausted, match="nor on half of it") as exc:
        degree._settled_ball(pp, (np.array([0.0]), 0.5), [], True)
    assert exc.value.failing_zero.tolist() == [0.0]


def test_integrate_form_refuses_an_empty_atlas():
    with pytest.raises(AtlasIncomplete, match="empty atlas"):
        integrate_form(SolutionAtlas(charts=()), DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]])))


def test_invariance_suite_raises_where_a_homotopy_point_has_no_generic_perturbation():
    # (x - a)^2 + 1 - t has no zero for t < 1; at t = 1 the seed is a double
    # root 5e-4 from the window's edge, whose stop ball would reach the edge
    a = 2.0 - 5e-4
    pp = problem(lambda x: np.array([(x[0] - a) ** 2 + 1.0]), [-2], [2], seeds=([a],), budget=0.2)
    assert invariance_suite(pp, trials=1).degree == 0
    with pytest.raises(RetryExhausted, match="edge"):
        invariance_suite(pp, trials=1, homotopy_shift=lambda t, x: np.array([-t]))


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


def counted_sphere_atlas():
    """The six axis charts of the unit sphere |x|^2 = 1 in R^3, and their
    counted section."""
    from germforge.fredholm import BasicGerm

    section = _CountedSection(lambda x: np.array([x @ x - 1.0]))
    bg = BasicGerm(n=3, k=0, N=1, W=GradedSpace(dim=0, levels=3), g=section)
    bases = [np.array(b, dtype=float) for b in
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    return SolutionAtlas(charts=tuple(build_parametrization(bg, q, radius=0.9) for q in bases)), section


def sphere_atlas():
    return counted_sphere_atlas()[0]


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
        base_point=z.point, kernel_basis=np.zeros((1, 0)), complement_basis=np.zeros((1, 0)), radius=0.1,
        section=pp.section) for z in enumerate_zeros(pp)))


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
    charts = list(sphere_atlas().charts)
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
    atlas, section = counted_sphere_atlas()
    rng = np.random.default_rng(0)
    pts = []
    for _ in range(200):
        p = rng.normal(size=3)
        pts.append(p / np.linalg.norm(p))
    assert atlas_covers_points(atlas, pts)

    def area_coeff(p):
        return np.array([[0.0, p[2], -p[1]], [-p[2], 0.0, p[0]], [p[1], -p[0], 0.0]])

    omega = DifferentialForm(degree=2, coeff=area_coeff)
    before = section.calls
    val = integrate_form(atlas, omega, nodes_per_axis=32)
    # 5.7e-10 at 75,216 evaluations; cold solves from s = 0 and second-order
    # node predictions took 79,728
    assert abs(val - 4 * np.pi) <= 1e-9 and section.calls - before == 75216


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


def arc_atlas():
    """The compact arc (x - 1/2)^2 + y^2 = 1 on [0, inf) x R: corner charts
    at its ends (0, +-sqrt(3/4)), whose complements are oblique to their
    kernels, and interior charts at the angles 0, +-0.9 and +-pi/2 around
    (1/2, 0)."""
    from germforge.fredholm import BasicGerm

    bg = BasicGerm(n=2, k=1, N=1, W=GradedSpace(dim=0, levels=3),
                   g=lambda x: np.array([(x[0] - 0.5) ** 2 + x[1] ** 2 - 1.0]))
    end = np.sqrt(0.75)
    charts = [build_boundary_parametrization(bg, np.array([0.0, y]), radius=0.8) for y in (end, -end)]
    charts += [build_parametrization(bg, np.array([0.5 + np.cos(a), np.sin(a)]), radius=r)
               for a, r in ((0.0, 0.6), (0.9, 0.6), (-0.9, 0.6), (np.pi / 2, 0.45), (-np.pi / 2, 0.45))]
    return SolutionAtlas(charts=tuple(charts))


@pytest.mark.parametrize("nodes_per_axis", [8, 32])
def test_the_arc_meets_stokes_at_its_corners(nodes_per_axis):
    # the integral of dg over the arc is g(end) - g(start); neighbouring
    # cells split the arc only when every chart reads a point's coordinates
    # along its own complement
    g = lambda x: x[0] ** 2 * x[1] + x[1] ** 3 + np.sin(x[0])
    dg = DifferentialForm(degree=1, coeff=lambda x: np.array([2 * x[0] * x[1] + np.cos(x[0]),
                                                              x[0] ** 2 + 3 * x[1] ** 2]))
    arc_length = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0] - 0.5]))
    atlas = arc_atlas()
    end = np.array([0.0, np.sqrt(0.75)])
    stokes = g(end) - g(end * [1, -1])
    assert abs(integrate_form(atlas, dg, nodes_per_axis=nodes_per_axis) - stokes) <= 1e-9
    assert abs(integrate_form(atlas, arc_length, nodes_per_axis=nodes_per_axis) - 4 * np.pi / 3) <= 1e-9
    angles = np.linspace(-2 * np.pi / 3 + 0.01, 2 * np.pi / 3 - 0.01, 41)
    assert atlas_covers_points(atlas, [np.array([0.5 + np.cos(a), np.sin(a)]) for a in angles])


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


def parabola_corner_atlas():
    return SolutionAtlas(charts=(build_boundary_parametrization(registry.parabola_corner_germ(), np.zeros(2),
                                                                radius=0.4),))


def spied_rule(monkeypatch, atlas, degree_, nodes_per_axis):
    """The rule, and the (chart, t) of its nodes in rule order."""
    seen, walk = [], degree._ray_points

    def spy(chart, ts):
        seen.extend((chart, t) for t in ts)
        return walk(chart, ts)

    monkeypatch.setattr(degree, "_ray_points", spy)
    return _quadrature_rule(atlas, degree_, nodes_per_axis), seen


def cold_rule(atlas, degree_, nodes_per_axis):
    """The rule with every chart point, of the cells and of the nodes, read
    from the chart's memo, which solves each from its cold start s2(t)."""
    rule = []
    charts = [c for c in atlas.charts if c.dim == degree_]
    for i, chart in enumerate(charts):
        sign = _chart_orientation_sign(chart, np.zeros(degree_))
        cell = _Cell(chart, charts[:i] + charts[i + 1:], SUPPORT_SCALE * chart.radius)
        cell.point = chart.gamma
        for t, w in cell.nodes(nodes_per_axis):
            x = chart.gamma(t)
            rule.append((sign * w, x, _tangent(chart, chart.jacobian(x))))
    return rule


def same_rule(a, b) -> bool:
    return len(a) == len(b) and all(
        w1 == w2 and np.array_equal(x1, x2) and np.array_equal(d1, d2) for (w1, x1, d1), (w2, x2, d2) in zip(a, b))


@pytest.mark.parametrize("build, degree_, nodes_per_axis", [
    (circle_atlas, 1, 32), (sphere_atlas, 2, 8), (parabola_corner_atlas, 1, 32), (quadrant_plane_atlas, 2, 32),
], ids=["circle", "sphere", "parabola-corner", "quadrant-plane"])
def test_rule_nodes_are_the_cold_chart_points(monkeypatch, build, degree_, nodes_per_axis):
    # each node is solved by chord steps from a prediction off the ray's
    # earlier nodes and polished by one Newton step with its tangent's
    # Jacobian: it is the chart point Gamma(t), which the chart solves from
    # its cold start, to the solver's tolerance, and a zero of f to rounding
    rule, seen = spied_rule(monkeypatch, build(), degree_, nodes_per_axis)
    assert len(seen) == len(rule) > 0
    for (chart, t), (_, x, _) in zip(seen, rule):
        assert np.max(np.abs(chart.gamma(t) - x)) <= 1e-12
        assert np.max(np.abs(chart.section_value(x))) <= 1e-14


def _serve_a_coarse_rule_and_a_coverage_check(atlas):
    integrate_form(atlas, ROTATION, nodes_per_axis=16)
    assert atlas_covers_points(atlas, [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 37)])
    return atlas


@pytest.mark.parametrize("used", [
    lambda: _serve_a_coarse_rule_and_a_coverage_check(circle_atlas()),
    lambda: replace(_serve_a_coarse_rule_and_a_coverage_check(circle_atlas())),
], ids=["served", "replaced-copy"])
def test_a_rule_does_not_depend_on_what_its_charts_served_before(monkeypatch, used):
    # the cells and the nodes solve their own points and never read or fill
    # the charts' memo, which earlier calls have filled
    served = _quadrature_rule(used(), 1, 32)
    rule, seen = spied_rule(monkeypatch, circle_atlas(), 1, 32)
    assert same_rule(served, rule) and len(seen) == 128
    assert not any(_memo_key(t) in chart._cache for chart, t in seen)


def test_a_warm_start_that_fails_is_solved_again_from_zero(monkeypatch):
    # every node's chord steps are made to fail, and so is every Newton
    # start taken off earlier points (a NaN start stalls Newton at once):
    # each point is then solved again from the chart's cold start, and the
    # rule is the rule of cold chart points
    solve, warm, chords = degree._graph_solve, [], []

    def failing(chart, t, s0):
        if s0 is not None:
            warm.append(t)
            s0 = np.full_like(s0, np.nan)
        return solve(chart, t, s0)

    def no_chord(chart, base, s, inverse):
        chords.append(base)
        return None

    monkeypatch.setattr(degree, "_graph_solve", failing)
    monkeypatch.setattr(degree, "_chord_1d", no_chord)
    rule = _quadrature_rule(circle_atlas(), 1, 32)
    oracle = cold_rule(circle_atlas(), 1, 32)
    # 4 intervals of 32 nodes, each solved cold at its first node and at the
    # two nodes nearest its chart's origin, and the cells' own boundary points
    assert len(chords) == 4 * 29 and len(warm) > len(chords) and len(rule) == len(oracle)
    for (w1, x1, d1), (w2, x2, d2) in zip(rule, oracle):
        assert abs(w1 - w2) <= 1e-12 and np.max(np.abs(x1 - x2)) <= 1e-12 and np.max(np.abs(d1 - d2)) <= 1e-12


def test_a_chord_step_that_meets_a_non_finite_residual_gives_way_to_newton(monkeypatch):
    # the section is NaN at every chord iterate but the first: each warm
    # node then takes the chord's start to Newton, and the rule still ends
    # on the cold chart points
    atlas = circle_atlas()
    chords, newton_starts, chord = [], [], degree._chord_1d
    solve = degree._graph_solve

    def spoilt(chart, base, s, inverse):
        calls = []

        def section(x):
            calls.append(x)
            return chart.section(x) if len(calls) == 1 else np.full(1, np.nan)

        chords.append(chord(replace(chart, section=section), base, s, inverse))
        return chords[-1]

    def spy(chart, t, s0):
        if s0 is not None:
            newton_starts.append(s0.copy())
        return solve(chart, t, s0)

    monkeypatch.setattr(degree, "_chord_1d", spoilt)
    monkeypatch.setattr(degree, "_graph_solve", spy)
    rule = _quadrature_rule(atlas, 1, 32)
    oracle = cold_rule(circle_atlas(), 1, 32)
    assert len(chords) == 4 * 29 and all(solved is None for solved in chords)
    assert sum(bool(s0.any()) for s0 in newton_starts) >= len(chords)
    for (w1, x1, d1), (w2, x2, d2) in zip(rule, oracle):
        assert w1 == w2 and np.max(np.abs(x1 - x2)) <= 1e-12


def test_continuation_cuts_the_section_evaluations_of_the_circle_rule():
    # solved from s = 0 the rule took 2,920 evaluations, and 2,212 when each
    # warm node took about two Newton iterations from its predicted start;
    # chord steps with the previous node's (J C)^-1 cost one evaluation each,
    # so a warm node's only Jacobian is the one its tangent needs (1,896);
    # cold points start from the second-order term s2(t) and warm nodes from
    # the cubic Hermite predictor
    atlas, section = counted_circle_atlas()
    before = section.calls
    integrate_form(atlas, ROTATION)
    assert section.calls - before == 1700


# ------------------------------------- the ray walk of a planar curve on floats

def walk_log(walk, chart, ts):
    """One walk on a copy of the chart that logs the bytes of each point its
    section sees: (the bytes of each node's x and tangent, or the error's
    type and text; the log)."""
    log = []

    def section(x):
        log.append((x.dtype.str, x.shape, x.tobytes()))
        return chart.section(x)

    try:
        with np.errstate(all="ignore"):
            out = [(x.dtype.str, x.shape, x.tobytes(), d.dtype.str, d.shape, d.tobytes())
                   for x, d in walk(replace(chart, section=section), ts)]
    except (NotSurjective, NonConvergence) as e:
        out = (type(e), str(e))
    return out, log


def assert_float_walk_is_the_array_walk(chart, ts):
    """`_ray_points` on a planar chart (the float walk) and `_ray_points_arrays`:
    the same bits of every node and tangent, or the same error, and the same
    points passed to the section, in order."""
    flat, flat_log = walk_log(degree._ray_points, chart, ts)
    assert (flat, flat_log) == walk_log(degree._ray_points_arrays, chart, ts)
    return flat


def turned(v, angle):
    """v / |v|, turned by angle, as a 2 x 1 column."""
    c, s = np.cos(angle), np.sin(angle)
    v = v / np.linalg.norm(v)
    return np.array([[c * v[0] - s * v[1]], [s * v[0] + c * v[1]]])


@st.composite
def planar_rays(draw):
    """(chart, ts): a chart of a random planar curve and the nodes of one ray.
    The curve is an ellipse with random centre, radii and base point (a
    circle when the radii agree) or the cubic graph y = b + c1 u + c2 u^2 +
    c3 u^3, u = x - a, based at (a, b).  Its section is scaled by 10^k, k = 0
    or |k| <= 300, so that |f| and |J| leave CLOSED_FORM_RANGE, and is inf or
    NaN off a disk around the base point or not.  K and C are the curve's
    tangent and normal there, each turned by 0 or by up to 0.3; ts are 1 to
    10 nodes in [-reach, reach], reach the smaller radius of an ellipse and
    1.5 for a cubic, ascending, descending or unsorted."""
    real = st.floats(-2.0, 2.0, allow_subnormal=False)
    a, b, reach = draw(real), draw(real), 1.5
    if draw(st.booleans()):
        r1 = draw(st.floats(0.3, 3.0))
        r2 = draw(st.one_of(st.just(r1), st.floats(0.3, 3.0)))
        reach = min(r1, r2)
        theta = draw(st.one_of(st.sampled_from([0.0, np.pi]), st.floats(-np.pi, np.pi)))
        q = np.array([a + r1 * np.cos(theta), b + r2 * np.sin(theta)])
        tangent, normal = np.array([-r1 * np.sin(theta), r2 * np.cos(theta)]), np.array([np.cos(theta) / r1,
                                                                                          np.sin(theta) / r2])

        def value(x):
            return ((x[0] - a) / r1) ** 2 + ((x[1] - b) / r2) ** 2 - 1.0
    else:
        c1, c2, c3 = draw(real), draw(real), draw(real)
        q, tangent, normal = np.array([a, b]), np.array([1.0, c1]), np.array([-c1, 1.0])

        def value(x):
            u = x[0] - a
            return x[1] - b - ((c3 * u + c2) * u + c1) * u
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-300, 300)))
    disk = draw(st.one_of(st.none(), st.floats(0.05, 2.0)))
    bad = draw(st.sampled_from([np.inf, -np.inf, np.nan]))

    def section(x):
        if disk is not None and (x - q) @ (x - q) > disk * disk:
            return np.array([bad])
        return np.array([scale * value(x)])

    turn = st.one_of(st.just(0.0), st.floats(-0.3, 0.3))
    chart = GoodParametrization(base_point=q, kernel_basis=turned(tangent, draw(turn)),
                                complement_basis=turned(normal, draw(turn)), radius=1.5, section=section)
    ts = draw(st.lists(st.floats(-reach, reach), min_size=1, max_size=10))
    order = draw(st.sampled_from(["ascending", "descending", "unsorted"]))
    if order != "unsorted":
        ts = sorted(ts, reverse=order == "descending")
    return chart, [np.array([t]) for t in ts]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(planar_rays())
def test_a_planar_ray_walks_on_floats_with_the_bits_of_the_array_walk(case):
    assert_float_walk_is_the_array_walk(*case)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_planar_ray_walk_at_a_jacobian_that_is_not_finite_raises_not_surjective(bad):
    # the line y = 0, not finite off the unit disk: the node t = 1 is on the
    # disk's edge, so its central differences read off it, and the SVD of
    # the non-finite J C raised numpy's LinAlgError in both walks
    def section(x):
        return np.array([bad if x @ x > 1.0 else x[1]])

    chart = GoodParametrization(base_point=np.zeros(2), kernel_basis=np.array([[1.0], [0.0]]),
                                complement_basis=np.array([[-0.0], [1.0]]), radius=1.5, section=section)
    flat = assert_float_walk_is_the_array_walk(chart, [np.array([1.0])])
    assert flat[0] is NotSurjective


def walk_branches(monkeypatch, walk, chart, ts):
    """The walk's chord walks and Newton solves, in order: ("chord", the
    residuals of its steps, solved or not) and ("newton", warm or not)."""
    events = []

    def spied_chord(chord):
        def spied(chart, base, s, inverse):
            residuals = []

            def section(x):
                y = chart.section(x)
                residuals.append(float(np.abs(y).max()))
                return y

            solved = chord(replace(chart, section=section), base, s, inverse)
            events.append(("chord", residuals, solved is not None))
            return solved
        return spied

    def spied_solve(solve):
        def spied(chart, t, s0):
            events.append(("newton", s0 is not None))
            return solve(chart, t, s0)
        return spied

    with monkeypatch.context() as m:
        m.setattr(degree, "_chord", spied_chord(degree._chord))
        m.setattr(degree, "_chord_1d", spied_chord(degree._chord_1d))
        m.setattr(degree, "_graph_solve", spied_solve(degree._graph_solve))
        try:
            walk(chart, ts)
        except NotSurjective:
            events.append(("raised", "NotSurjective"))
    return events


def poisoned(chart, ts, monkeypatch, step=1, value=np.nan):
    """The chart with a section that is `value` at the point of the given
    step of the ray's first chord walk."""
    points = []
    chord = degree._chord_1d

    def logged(chart, base, s, inverse):
        def section(x):
            points.append(x.tobytes())
            return chart.section(x)
        return chord(replace(chart, section=section), base, s, inverse)

    with monkeypatch.context() as m:
        m.setattr(degree, "_chord_1d", logged)
        degree._ray_points(chart, ts)
    spot = points[step]
    return replace(chart, section=lambda x: np.full(1, value) if x.tobytes() == spot else chart.section(x))


def folded_section(x):
    """(y - x^2)(1 - x^2): 0 on the line x = 1, where J C of the chart below vanishes."""
    return np.array([(x[1] - x[0] ** 2) * (1.0 - x[0] ** 2)])


def folded_chart(monkeypatch):
    """The chart of folded_section at the origin: K = (1, 0), C = (0, 1)."""
    return GoodParametrization(base_point=np.zeros(2), kernel_basis=np.array([[1.0], [0.0]]),
                               complement_basis=np.array([[0.0], [1.0]]), radius=1.5, section=folded_section)


def unit_circle_chart(monkeypatch):
    """The circle atlas's chart at (1, 0): K = (0, 1), C = (1, 0)."""
    return circle_atlas().charts[0]


def finite(residuals):
    return all(np.isfinite(residuals))


@pytest.mark.parametrize("chart, ts, branches", [
    (unit_circle_chart, [0.3], [("newton", False)]),
    (unit_circle_chart, [0.5, 0.1], [("newton", False)] * 2),
    (unit_circle_chart, [0.1, 0.2, 0.3],
     [("newton", False), ("chord", finite, True), ("chord", finite, True)]),
    (unit_circle_chart, [0.05, 0.6],
     [("newton", False), ("chord", lambda r: len(r) == degree.CHORD_STEPS + 1 and finite(r), False),
      ("newton", True)]),
    (lambda m: poisoned(unit_circle_chart(m), [np.array([t]) for t in (0.1, 0.2)], m), [0.1, 0.2],
     [("newton", False), ("chord", lambda r: len(r) == 2 and np.isfinite(r[0]) and np.isnan(r[1]), False),
      ("newton", True)]),
    (lambda m: poisoned(unit_circle_chart(m), [np.array([t]) for t in (0.1, 0.2)], m, 0, degree.CHORD_TOL),
     [0.1, 0.2], [("newton", False), ("chord", lambda r: r == [degree.CHORD_TOL], True)]),
    (folded_chart, [0.5, 1.0],
     [("newton", False), ("chord", finite, True), ("raised", "NotSurjective")]),
], ids=["cold-first-node", "nearer-the-origin", "chord-solves", "chord-out-of-steps", "chord-meets-nan",
        "chord-stops-at-its-tolerance", "singular-jc"])
def test_a_planar_ray_walk_takes_each_branch_as_the_array_walk(monkeypatch, chart, ts, branches):
    chart, ts = chart(monkeypatch), [np.array([t]) for t in ts]
    flat = walk_branches(monkeypatch, degree._ray_points, chart, ts)
    assert repr(flat) == repr(walk_branches(monkeypatch, degree._ray_points_arrays, chart, ts))     # NaN != NaN
    assert len(flat) == len(branches)
    for event, branch in zip(flat, branches):
        assert event[0] == branch[0] and event[-1] == branch[-1]
        if event[0] == "chord":
            assert branch[1](event[1])
    out = assert_float_walk_is_the_array_walk(chart, ts)
    if branches[-1][0] == "raised":
        assert out[0] is NotSurjective
    else:
        assert len(out) == len(ts)


def bits_of(rule):
    return [(np.float64(w).tobytes(), x.tobytes(), d.tobytes()) for w, x, d in rule]


@pytest.mark.parametrize("build", [circle_atlas, parabola_corner_atlas], ids=["circle", "parabola-corner"])
def test_a_planar_rule_has_the_bits_of_the_array_walk(monkeypatch, build):
    rule = _quadrature_rule(build(), 1, 32)
    monkeypatch.setattr(degree, "_ray_points_1d", degree._ray_points_arrays)
    assert bits_of(rule) == bits_of(_quadrature_rule(build(), 1, 32))


def test_a_planar_rule_walks_on_floats_and_the_sphere_rule_on_arrays(monkeypatch):
    calls = {name: 0 for name in ("_ray_points_1d", "_ray_points_arrays", "_chord_1d", "_chord")}

    def counted(name):
        original = getattr(degree, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(degree, name, counted(name))
    _quadrature_rule(circle_atlas(), 1, 32)
    assert calls == {"_ray_points_1d": 4, "_ray_points_arrays": 0, "_chord_1d": 4 * 29, "_chord": 0}
    calls.update(dict.fromkeys(calls, 0))
    _quadrature_rule(sphere_atlas(), 2, 8)
    assert calls["_ray_points_1d"] == calls["_chord_1d"] == 0
    assert calls["_ray_points_arrays"] > 0 and calls["_chord"] > 0


def test_a_space_curve_integrates_on_the_array_walk(monkeypatch):
    # the curve x^2 + y^2 = 1, z = -0.3 x y in R^3: its charts have a 1-D
    # kernel and a 2-D complement, so each ray walks on arrays.  Oriented by
    # det[f1'; f2'; tangent] > 0 it runs clockwise seen from above
    from germforge.fredholm import BasicGerm

    bg = BasicGerm(n=3, k=0, N=2, W=GradedSpace(dim=0, levels=3),
                   g=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[2] + 0.3 * x[0] * x[1]]))
    bases = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    atlas = SolutionAtlas(charts=tuple(build_parametrization(bg, np.array(q), radius=0.8) for q in bases))
    walks = {"_ray_points_1d": 0, "_ray_points_arrays": 0}

    def counted(name):
        original = getattr(degree, name)

        def spy(*args):
            walks[name] += 1
            return original(*args)
        return spy

    for name in walks:
        monkeypatch.setattr(degree, name, counted(name))
    rotation = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0], 0.0]))
    dz = DifferentialForm(degree=1, coeff=lambda x: np.array([0.0, 0.0, 1.0]))
    d_xy = DifferentialForm(degree=1, coeff=lambda x: np.array([x[1], x[0], 0.0]))
    assert abs(integrate_form(atlas, rotation) + 2 * np.pi) <= 1e-9
    assert walks == {"_ray_points_1d": 0, "_ray_points_arrays": 4}
    assert abs(integrate_form(atlas, dz)) <= 1e-9
    assert abs(integrate_form(atlas, d_xy)) <= 1e-9


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
def test_halton_starts_are_the_points_of_scipys_scrambled_halton(d, seed, count):
    from scipy.stats import qmc

    expected = qmc.Halton(d=d, scramble=True, seed=seed).random(count)
    assert degree._halton(count, d, seed).tobytes() == expected.tobytes()


def test_enumerate_zeros_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import germforge

    env = dict(os.environ, PYTHONPATH=str(Path(germforge.__file__).resolve().parents[1]))
    code = ("import sys; from germforge import registry; from germforge.degree import enumerate_zeros; "
            "assert len(enumerate_zeros(registry.build('cubic'))) == 3; sys.exit(int('scipy.stats' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def test_a_gated_zero_gets_a_lipschitz_constant_only_when_certified():
    # (x, y^2) at y = 5e-8: sigma_min / sigma_max = 1e-7 is below
    # BASIN_GATE, so there is no basin either way; the L of the Kantorovich
    # gate is sampled only for a certificate, and enumerate_zeros asks for none
    calls = []

    def func(x):
        calls.append(x)
        return np.array([x[0], x[1] ** 2])

    x, J, sv = np.array([0.0, 5e-8]), np.diag([1.0, 1e-7]), np.array([1.0, 1e-7])
    radius, lipschitz = degree._basin_radius(func, x, J, sv, 1.0, False)
    assert (radius, calls) == (0.0, []) and np.isnan(lipschitz)
    radius, lipschitz = degree._basin_radius(func, x, J, sv, 1.0, True)
    assert radius == 0.0 and np.isfinite(lipschitz) and calls


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


# ------------------------------------------------- Kantorovich gate and stop balls

def poly_degree(coeff, simple, double):
    """(sign f(2) - sign f(-2)) / 2 for f = coeff prod(x - r) prod(x - d)^2."""
    def f(x):
        return coeff * np.prod([x - r for r in simple]) * np.prod([(x - d) ** 2 for d in double])

    return int((np.sign(f(2.0)) - np.sign(f(-2.0))) // 2)


def complex_degree(holo, anti):
    """#holo - #anti for z -> prod(z - r_i) prod conj(z - s_j), multiplicities counted."""
    return len(holo) - len(anti)


def local_searches(monkeypatch, hide):
    """Record the starts of every search of f + s, s != 0, which here are
    the searches inside stop balls; `hide` (call number, found pairs) -> the
    pairs that search returns."""
    calls, search = [], degree._search

    def spied(pp, s, starts, *flags):
        found = search(pp, s, starts, *flags)
        if s is None:
            return found
        calls.append(np.asarray(starts))
        return hide(len(calls), found)

    monkeypatch.setattr(degree, "_search", spied)
    return calls


def test_a_1d_double_root_is_bumped_in_its_ball():
    # (x - 1/2)^2 (x + 1): Newton stops about 3e-7 short of 1/2, where
    # h = beta L eta is 1/2; the simple zero -1 is carried over unchanged
    pp = polynomial_problem(1.0, [-1.0], [0.5])
    out = generic_perturbation(pp)
    assert out.lambdas.size == 1 and not out.perturbation.support_contains(np.array([-1.0]))
    assert [z.point[0] for z in out.zeros][0] == -1.0
    assert len(out.zeros) in (1, 3)
    assert compute_degree(pp) == 1


def test_a_2d_double_root_is_bumped_in_its_ball():
    # (z - r)^2 conj(z - s): local degree 2 at r, -1 at s
    pp = complex_problem(1.0, [0.3 + 0.4j, 0.3 + 0.4j], [-0.8 + 0.1j])
    out = generic_perturbation(pp)
    assert out.lambdas.size == 2 and out.perturbation.support_contains(np.array([0.3, 0.4]))
    assert compute_degree(pp) == 1


@pytest.mark.parametrize("section, seed, expected", [
    (lambda x: np.array([(x[0] - 0.5) ** 2 * (x[0] + 1.0)]), [0.5], 1),
    (lambda x: np.array([x[0] ** 3]), [0.0], 1),
    (complex_section(1.0, [0.3 + 0.4j, 0.3 + 0.4j], [-0.8 + 0.1j]), [0.3, 0.4], 1),
])
def test_a_seed_on_a_degenerate_zero_still_gets_a_ball(section, seed, expected):
    # Newton stops at the seed with residual 0, where h = beta L eta is 0
    # whatever sigma_min; the rank test keeps the zero uncertified
    base = problem(section, [-2], [2], budget=0.1, seed=3) if len(seed) == 1 else plane_problem(section, 3)
    pp = replace(base, seeds=(np.array(seed, dtype=float),), grid_starts=32)
    out = generic_perturbation(pp)
    assert out.lambdas.size and out.perturbation.support_contains(np.asarray(seed))
    assert compute_degree(pp) == expected


def test_a_degenerate_zero_of_a_map_that_is_not_square_is_bumped_without_a_count():
    # x^2 + y^2 on the square: the seed lies on the zero 0, where f' = 0 is
    # not onto.  f has no degree, so its ball is bumped with no count, and
    # f + s has a circle of zeros in it, or none
    pp = problem(lambda x: np.array([x[0] ** 2 + x[1] ** 2]), [-1, -1], [1, 1], seeds=([0.0, 0.0],))
    out = generic_perturbation(pp)
    assert out.lambdas.size == 1 and out.perturbation.support_contains(np.zeros(2))
    assert all(z.surjective for z in out.zeros)


def test_an_attempt_whose_ball_holds_an_uncertified_zero_draws_another_perturbation(monkeypatch):
    # x^3 + s has one zero in the ball for every s; the first attempt's ball
    # search reports it uncertified, so that attempt fails and the next passes
    calls = local_searches(monkeypatch, lambda call, found: [(z, ok and call > 1) for z, ok in found])
    pp = replace(problem(lambda x: np.array([x[0] ** 3]), [-2], [2], seeds=([0.0],), budget=0.1), grid_starts=32)
    out = generic_perturbation(pp)
    assert out.retries == 1 and len(calls) == 2 and len(out.zeros) == 1


def double_root_before_a_simple_zero():
    # (x - 1/2)^2 (x - 0.2) (x + 1.8), degree 0; the seed 0.6 finds the double
    # root first, so its ball has radius 0.8 times its window margin 1.5 and
    # holds the simple zero 0.2, which no later start reaches
    roots = np.array([0.2, -1.8])

    def section(x):
        return np.array([(x[0] - 0.5) ** 2 * np.prod(x[0] - roots)])

    return replace(problem(section, [-2], [2], seeds=([0.6],), budget=0.1), grid_starts=32)


def test_a_stop_ball_that_holds_a_simple_zero_finds_it_again():
    pp = double_root_before_a_simple_zero()
    out = generic_perturbation(pp)
    assert out.perturbation.support_contains(np.array([0.2]))
    assert any(abs(z.point[0] - 0.2) < 0.1 for z in out.zeros)
    assert compute_degree(pp) == 0


def test_a_ball_whose_first_search_misses_a_zero_is_searched_again(monkeypatch):
    # the first search inside the ball loses the zero near 0.2; the ball's
    # signed count then misses its degree +1, and as many new starts find it
    def hide(call, found):
        return [p for p in found if call > 1 or abs(p[0].point[0] - 0.2) >= 0.1]

    calls = local_searches(monkeypatch, hide)
    out = generic_perturbation(double_root_before_a_simple_zero())
    assert [len(starts) for starts in calls[:2]] == [degree.BALL_STARTS, degree.BALL_STARTS]
    assert np.unique(np.concatenate(calls[:2]), axis=0).shape[0] == 2 * degree.BALL_STARTS
    assert any(abs(z.point[0] - 0.2) < 0.1 for z in out.zeros)


def test_a_ball_whose_count_never_matches_its_degree_fails_loud(monkeypatch):
    # each attempt's searches end in Inconclusive after BALL_DOUBLINGS
    # doublings; another s is drawn, up to the retry limit
    def hide(call, found):
        return [p for p in found if abs(p[0].point[0] - 0.2) >= 0.1]

    calls = local_searches(monkeypatch, hide)
    monkeypatch.setattr(degree, "RETRY_LIMIT", 2)
    with pytest.raises(RetryExhausted, match="signed count"):
        generic_perturbation(double_root_before_a_simple_zero())
    # each doubling searches only the new starts: 8, then 8, 16 and 32 more
    new = [degree.BALL_STARTS] + [degree.BALL_STARTS * 2 ** i for i in range(degree.BALL_DOUBLINGS)]
    assert [len(starts) for starts in calls] == 2 * new


def test_a_quadrant_problem_whose_window_runs_past_the_face_bumps_only_its_ball(monkeypatch):
    # (x - 1/2)^2 (x + 1/2) on [-1, 1] with x >= 0: the search discards the
    # zero -1/2, so the count is checked against f's degree on [0, 1], and
    # the window is not searched again
    pp = replace(problem(lambda x: np.array([(x[0] - 0.5) ** 2 * (x[0] + 0.5)]), [-1], [1],
                         budget=0.1, rank=1), grid_starts=32)
    calls = local_searches(monkeypatch, lambda call, found: found)
    out = generic_perturbation(pp)
    assert out.lambdas.size == 1 and [len(starts) for starts in calls] == [degree.BALL_STARTS]


@st.composite
def complex_maps_with_a_double_root(draw):
    phase, holo, anti = draw(complex_maps())
    if holo and (not anti or draw(st.booleans())):
        return phase, holo + holo[:1], anti
    return phase, holo, anti + anti[:1]


@BASIN_SETTINGS
@given(polynomials(doubles=True), st.integers(0, 2**31 - 1))
def test_degree_of_polynomials_with_double_roots_is_the_closed_form(poly, seed):
    assert compute_degree(polynomial_problem(*poly, seed=seed)) == poly_degree(*poly)


@BASIN_SETTINGS
@given(complex_maps_with_a_double_root(), st.integers(0, 2**31 - 1))
def test_degree_of_complex_maps_with_a_double_root_is_the_closed_form(cmap, seed):
    assert compute_degree(complex_problem(*cmap, seed=seed)) == complex_degree(*cmap[1:])


def test_a_ball_that_would_reach_the_face_fails_loud():
    # the double root 5e-4 lies 5e-4 from the face x = 0, inside the least
    # ball radius 1e-3: a bump there would act on the face
    f = lambda x: np.array([(x[0] - 5e-4) ** 2])
    pp = problem(f, [0.0], [1.0], seeds=([5e-4],), budget=0.2, rank=1, seed=6)
    with pytest.raises(RetryExhausted, match="face") as exc:
        generic_perturbation(pp)
    assert exc.value.failing_zero == pytest.approx([5e-4], abs=1e-6)


@pytest.mark.parametrize("cmap, seed", [
    # the 32 starts miss the simple zero near 0.80 + 0.02i: the window's
    # count shows it, and 32 new starts find it
    ((0.2942351285550152 + 0.9095083628216725j, [-0.012879 + 0.273369j],
      [1.464846 + 0.10287j, 0.797896 + 0.02298j, 1.464846 + 0.10287j]), 924353119),
    # the boundaries of these balls pass too near a simple zero for the
    # winding number; the halved balls have a degree
    ((-0.5224450824774295 + 0.021659136036463314j, [], [-0.021102 - 0.27661j, -0.629364 + 0.961553j,
                                                        -0.021102 - 0.27661j]), 1531370878),
    ((-0.45080192896499527 - 0.45360545968460664j, [-1.161381 - 0.040136j],
      [0.189316 + 0.579556j, 1.323202 + 0.610506j, 0.189316 + 0.579556j]), 34304193),
], ids=["missed-zero", "unsampled-ball-3", "unsampled-ball-2"])
def test_degree_of_complex_maps_with_a_double_root_found_by_a_sweep(cmap, seed):
    assert compute_degree(complex_problem(*cmap, seed=seed)) == complex_degree(*cmap[1:])


def test_a_window_whose_count_never_matches_is_searched_again_then_fails_loud(monkeypatch):
    # (x - 1/2)^2 (x + 1) with the simple zero -1 hidden from every window
    # search: the window's count misses it, and each new search starts from
    # as many new Halton points as were made so far
    calls, search = [], degree._search

    def spied(pp, s, starts, *flags):
        found = search(pp, s, starts, *flags)
        if s is None:
            calls.append(np.asarray(starts))
            found = [p for p in found if abs(p[0].point[0] + 1.0) >= 0.1]
        return found

    monkeypatch.setattr(degree, "_search", spied)
    with pytest.raises(RetryExhausted, match="signed count"):
        generic_perturbation(polynomial_problem(1.0, [-1.0], [0.5]))
    assert [len(starts) for starts in calls] == [32 * 2 ** max(i - 1, 0) for i in range(degree.BALL_DOUBLINGS + 1)]
    assert np.unique(np.concatenate(calls), axis=0).shape[0] == 32 * 2 ** degree.BALL_DOUBLINGS


@pytest.mark.parametrize("f, lo, hi, rank", [
    # the zero 0 on the face x = 0 is carried with sign +1, and the ball at 1/2 has degree 0
    (lambda x: np.array([x[0] * (x[0] - 0.5) ** 2]), 0.0, 1.0, 1),
    # the simple zero -2 is the window's end
    (lambda x: np.array([(x[0] + 2.0) * (x[0] - 0.5) ** 2]), -2.0, 2.0, 0),
], ids=["face-zero", "end-zero"])
def test_a_window_without_a_degree_is_not_counted(f, lo, hi, rank):
    # f vanishes on the window's boundary, so the window has no degree to
    # check the balls against, and they are bumped as they are
    pp = problem(f, [lo], [hi], seeds=([0.5],), budget=0.2, rank=rank)
    assert degree._window_degree(pp) is None
    out = generic_perturbation(pp)
    assert out.lambdas.size
    assert compute_degree(pp, outcome=out) == 1


def cube_problem(section, seed=0):
    return PerturbationProblem(section=section, window=Window(lo=-np.ones(3), hi=np.ones(3)),
                               aux_norm=AuxiliaryNorm(fiber_space=GradedSpace(dim=3, levels=3)),
                               budget=0.1, seeds=(np.full(3, 0.1),), grid_starts=32, rng_seed=seed)


@pytest.mark.parametrize("power, expected", [(3, 1), (2, 0)])
def test_a_3d_degenerate_zero_is_bumped_in_one_ball(power, expected):
    # (x^p, y, z): every start polishes the zero at 0 to a different point
    # short of it; the first one's ball stops the others, and its three bumps
    # are the perturbation's only ones
    pp = cube_problem(lambda x: np.array([x[0] ** power, x[1], x[2]]))
    out = generic_perturbation(pp)
    assert out.lambdas.size == 3
    assert compute_degree(pp, outcome=out) == expected


@pytest.mark.parametrize("seed", [0, 3, 5, 9])
def test_degree_of_a_3d_map_with_double_roots_is_the_closed_form(seed):
    # A (p(x), q(y), r(z)) with p = 0.6 (x - 0.8)(x - 0.5)^2: the six zeros
    # include three double roots at x = 0.5.  The first ball, fixed before
    # its neighbours are found, can hold another zero; its degree, the
    # signed solid angle of f on its sphere, counts that zero, and the
    # zeros and balls must add up to f's degree on the window.  Degree
    # 1 * (-1) * (-1) * sign det A.
    A = np.array([[0.2, 1.7, -0.7], [1.2, -0.4, -1.0], [1.2, -0.4, -0.4]])

    def f(x):
        return A @ np.array([0.6 * (x[0] - 0.8) * (x[0] - 0.5) ** 2,
                             -0.8 * (x[1] - 0.75) * (x[1] - 0.5) * (x[1] - 0.15), -0.8 * (x[2] + 0.1)])

    assert compute_degree(cube_problem(f, seed)) == -1


def roadmap_map(seed):
    """A rounded map A (p(x), q(y), r(z)) of a sweep, by its rng seed: 27
    and 51 of a draw made like `bench/run.py`'s `cube_map`, 58 of `cube_map`
    from default_rng(2024) and 92 of its draw from default_rng(7)."""
    p, q, r, A = {
        27: ((0.583392, [-0.261067, 0.080949, 0.080949]), (-0.562025, [-0.599979, -0.324828, 0.271871]),
             (0.729402, [-0.669305]),
             [[-1.076108, -1.426966, 0.308461], [-0.663885, -1.988295, 2.483483], [-0.834854, -1.255509, 1.239788]]),
        51: ((-0.877996, [-0.747467, -0.160643, -0.160643, 0.476517]),
             (1.293575, [-0.180055, 0.173253, 0.542158]), (1.061820, [-0.539781, -0.338929, 0.332672]),
             [[0.036086, 0.147825, 1.763003], [-0.04285, 0.800355, 0.055702], [-0.457185, -0.456809, -0.820401]]),
        58: ((-1.051754, [0.631846, -0.438889, -0.688124, 0.631846]), (-1.021386, [0.032335, -0.262917, 0.614527]),
             (0.565767, [0.404445, -0.207273, -0.734127]),
             [[-0.229322, -0.985646, -0.365206], [0.302128, -0.711734, 0.931201], [-1.955941, 1.952807, -0.137436]]),
        92: ((0.964433, [-0.693087, -0.185373, 0.719379, -0.693087]), (0.747418, [-0.448913, 0.749115, -0.16552]),
             (-1.113756, [0.169063, 0.450151, -0.03225]),
             [[-0.412063, -0.304288, -2.991673], [1.000986, 0.818449, 0.799019], [0.978406, 1.691, -0.046002]]),
    }[seed]
    A = np.array(A)

    def f(x):
        return A @ np.array([c * np.prod(x[i] - np.array(roots)) for i, (c, roots) in enumerate((p, q, r))])

    return cube_problem(f, seed)


def test_a_3d_ball_whose_first_search_finds_one_zero_of_a_split_pair_is_searched_again():
    # in a stop ball the first 8 starts find one zero of the pair its bumps
    # split; the ball's degree, 0, sends new starts, which find the other.
    # sign det A = 1, so the degree is 1 * (-1) * 1 = -1
    assert compute_degree(roadmap_map(27)) == -1


def test_a_3d_zero_that_no_start_reaches_outside_the_balls_fails_loud():
    # the closed form is 0; 264 starts miss simple zeros outside the balls,
    # and the window's count shows the miss
    with pytest.raises(RetryExhausted, match="signed count -1, but f has degree 0"):
        compute_degree(roadmap_map(51))


@pytest.mark.parametrize("seed", [58, 92])
def test_a_3d_ball_placed_before_a_nearby_degenerate_zero_shrinks_clear_of_it(seed):
    # a degenerate zero lies just outside the stop ball of an earlier one,
    # so its own ball would get the least radius 1e-3 and overlap that ball;
    # the earlier ball shrinks to 0.4 times their distance instead, and its
    # degree is sampled again.  The closed form is 0
    assert compute_degree(roadmap_map(seed)) == 0


LINEAR_3D = np.array([[0.3, -1.2, 0.4], [1.1, 0.2, -0.7], [0.5, 0.8, 1.3]])
CENTRE, RADIUS = np.array([0.1, -0.2, 0.3]), 0.6
REGIONS_3D = {      # f's degree on the region, and whether the region holds x
    "window": (degree._window_degree, lambda x: np.max(np.abs(x)) < 1.0),
    "ball": (lambda pp: degree._boundary_degree(pp, 3, lambda v: CENTRE + RADIUS * v / np.linalg.norm(v)),
             lambda x: np.linalg.norm(x - CENTRE) < RADIUS),
}


@pytest.mark.parametrize("region", REGIONS_3D)
@pytest.mark.parametrize("flip", [1.0, -1.0])
@pytest.mark.parametrize("x0", [(0.2, -0.1, 0.35), (0.5, 0.4, -0.6), (1.3, 0.2, 0.1)])
def test_boundary_degree_of_a_3d_affine_map_is_the_sign_of_its_determinant(region, flip, x0):
    boundary_degree, holds = REGIONS_3D[region]
    A, x0 = LINEAR_3D * np.array([flip, 1.0, 1.0]), np.array(x0)
    expected = int(np.sign(np.linalg.det(A))) if holds(x0) else 0
    assert boundary_degree(cube_problem(lambda x: A @ (x - x0))) == expected


@pytest.mark.parametrize("region", REGIONS_3D)
@pytest.mark.parametrize("first, expected", [(lambda u: u ** 3 - 0.1 * u, 1), (lambda u: u ** 2 - 0.1, 0)])
def test_boundary_degree_of_a_3d_map_with_several_zeros(region, first, expected):
    # the zeros (0 and +-sqrt(0.1), 0, 0) lie in the window and the ball
    boundary_degree, _ = REGIONS_3D[region]
    assert boundary_degree(cube_problem(lambda x: np.array([first(x[0]), x[1], x[2]]))) == expected


@pytest.mark.parametrize("region, vertex", [("window", np.array([1.0, 0.0, 0.0])),
                                            ("ball", CENTRE + RADIUS * np.array([0.0, 0.0, 1.0]))])
def test_boundary_degree_is_none_where_f_vanishes_at_a_grid_vertex(region, vertex):
    boundary_degree, _ = REGIONS_3D[region]
    assert boundary_degree(cube_problem(lambda x: x - vertex)) is None


@pytest.mark.parametrize("region", REGIONS_3D)
def test_boundary_degree_refines_its_grid_until_two_grids_agree(region):
    # (Re w^14, Im w^14, z), w = x + iy, has degree 14; with 8 squares per
    # face edge the image of a square can turn by more than pi, and the
    # first grid's count is off
    def f(x):
        w = complex(x[0], x[1]) ** 14
        return np.array([w.real, w.imag, x[2]])

    boundary_degree, _ = REGIONS_3D[region]
    assert boundary_degree(cube_problem(f)) == 14


def test_a_window_without_a_dimension_is_rejected():
    # it was accepted, and compute_degree then failed inside numpy
    with pytest.raises(ValueError):
        Window(lo=np.zeros(0), hi=np.zeros(0))


# The four interval problems as they were written out, one literal each
OLD_INTERVAL_PROBLEMS = {
    "cubic": (lambda x: np.array([x[0] ** 3 - x[0]]), 0.1, (-1.5, 0.1, 1.5)),
    "square-minus-one": (lambda x: np.array([x[0] ** 2 - 1.0]), 0.1, (-1.3, 1.3)),
    "double-root": (lambda x: np.array([(x[0] - 0.5) ** 2 * (x[0] + 1.0)]), 0.1, (-1.5, 1.5)),
    "identity": (lambda x: np.array([x[0]]), 1.0, (0.3,)),
}


@pytest.mark.parametrize("name", sorted(OLD_INTERVAL_PROBLEMS))
def test_interval_problems_match_their_literal_definitions(name):
    section, budget, seeds = OLD_INTERVAL_PROBLEMS[name]
    fiber = GradedSpace(dim=1, levels=registry.LEVELS, weights=np.array([1.0]))
    old = PerturbationProblem(section=section, window=Window(lo=np.array([-2.0]), hi=np.array([2.0])),
                              aux_norm=AuxiliaryNorm(fiber_space=fiber), budget=budget,
                              seeds=tuple(np.array([x]) for x in seeds), rng_seed=5)
    new = registry.build(name, seed=5)
    assert np.array_equal(new.window.lo, old.window.lo) and np.array_equal(new.window.hi, old.window.hi)
    assert len(new.seeds) == len(old.seeds) and all(np.array_equal(a, b) for a, b in zip(new.seeds, old.seeds))
    assert (new.budget, new.rng_seed, new.quadrant_rank, new.grid_starts) == (
        old.budget, old.rng_seed, old.quadrant_rank, old.grid_starts)
    space = new.aux_norm.fiber_space
    assert (space.dim, space.levels, space.quadrant_rank) == (fiber.dim, fiber.levels, fiber.quadrant_rank)
    assert np.array_equal(space.weights, fiber.weights)
    for x in np.linspace(-2.0, 2.0, 41):
        assert np.array_equal(new.section(np.array([x])), old.section(np.array([x])))
