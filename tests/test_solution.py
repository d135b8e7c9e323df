import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from germforge import registry, solution
from germforge._linalg import (CLOSED_FORM_RANGE, SV_RELATIVE_CUTOFF, fd_jacobian, newton, orthonormal_columns,
                               subspace_intersection, svd_split)
from germforge.errors import NonConvergence, NoOverlap, NotSurjective, PositionNotCertified, SingularLinearization
from germforge.fredholm import BasicGerm
from germforge.germs import ContractionGerm, SolutionGerm, germ_derivative
from germforge.solution import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SUPPORT_SCALE,
    BundleIso,
    GoodParametrization,
    SolutionAtlas,
    _complement_inverse,
    _graph_solve,
    _graph_system,
    build_boundary_parametrization,
    build_parametrization,
    recentre,
    transform,
    transition_map,
)
from germforge.spaces import DEFAULT_TOL, GradedSpace
from germforge.splicing import degeneracy_index


def linear_germ():
    W = GradedSpace(dim=0, levels=3)
    return BasicGerm(n=2, k=0, N=1, W=W, g=lambda x: np.array([x[0] + 2 * x[1] - 0.0]))


def circle_chart(radius=0.75):
    return build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]), radius=radius)


def test_linear_section_gives_affine_chart():
    bg = linear_germ()
    chart = build_parametrization(bg, np.zeros(2), radius=0.5)
    for t in chart.domain_samples(20, seed=1):
        assert np.max(np.abs(chart.a_vector(t))) < 1e-10
        g = chart.gamma(t)
        assert abs(g[0] + 2 * g[1]) < 1e-10


def test_circle_chart_closed_form():
    chart = circle_chart()
    a = chart.a_vector(np.array([0.6]))
    assert np.max(np.abs(a - np.array([-0.2, 0.0]))) < 1e-9
    for t in np.linspace(-0.7, 0.7, 15):
        g = chart.gamma(np.array([t]))
        assert abs(g[0] - np.sqrt(1 - t**2)) < 1e-9
        assert abs(g[1] - t) < 1e-12


def test_chart_invariants():
    chart = circle_chart()
    d = chart.dim
    assert np.linalg.norm(chart.a_vector(np.zeros(d))) < 1e-10
    e = np.zeros(d)
    e[0] = 1e-5
    da = (chart.a_vector(e) - chart.a_vector(-e)) / 2e-5
    assert np.max(np.abs(da)) < 1e-6
    for t in chart.domain_samples(30, seed=3):
        assert chart.residual(t) < 1e-8


def test_kernel_transport_isomorphism():
    chart = circle_chart()
    from germforge._linalg import svd_split

    for t in chart.domain_samples(10, seed=4):
        K = chart.kernel_transport(t)
        J = chart.jacobian(chart.gamma(t))
        _, ker, _, _ = svd_split(J)
        assert ker.shape[1] == K.shape[1] == 1
        # transported vector lies in the kernel and is nonzero
        proj = K - ker @ (ker.T @ K)
        assert np.max(np.abs(proj)) < 1e-5
        assert np.linalg.norm(K) > 0.5


def test_not_surjective_raises():
    W = GradedSpace(dim=0, levels=3)
    bg = BasicGerm(n=2, k=0, N=2, W=W,
                   g=lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
    with pytest.raises(NotSurjective):
        build_parametrization(bg, np.zeros(2), radius=0.3)


def test_a_linearization_below_the_rank_cutoff_is_not_surjective():
    # f'(q) = 1e-9 (2, 0) has rank 0 at svd_split's cutoff; the chart used to
    # get a 2-column kernel and halve its radius until NonConvergence
    W = GradedSpace(dim=0, levels=3)
    bg = BasicGerm(n=2, k=0, N=1, W=W, g=lambda x: 1e-9 * registry.circle_section(x))
    with pytest.raises(NotSurjective):
        build_parametrization(bg, np.array([1.0, 0.0]), radius=0.5)


def test_a_linearization_that_is_not_finite_is_not_surjective():
    # x^2 + y^2 - 1, NaN beyond x = 1: the central difference of f'(1, 0)
    # along x reads NaN, and the SVD of that J raised numpy's LinAlgError
    W = GradedSpace(dim=0, levels=3)
    bg = BasicGerm(n=2, k=0, N=1, W=W, g=lambda x: np.array([x @ x - 1.0 if x[0] <= 1.0 else np.nan]))
    with pytest.raises(NotSurjective):
        build_parametrization(bg, np.array([1.0, 0.0]))


def test_recentre_origin_keeps_chart():
    chart = circle_chart()
    rec = recentre(chart, np.zeros(1))
    assert np.allclose(rec.base_point, chart.base_point, atol=1e-12)
    # the transported kernel at n0 = 0 is ker f'(q) again, up to its sign
    sign = np.sign(chart.kernel_basis.T @ rec.kernel_basis)
    for t in rec.domain_samples(10, seed=5):
        assert rec.residual(t) < 1e-9
        assert np.max(np.abs(rec.gamma(t) - chart.gamma(sign @ t))) < 1e-10


def test_recentre_circle_closed_form():
    chart = circle_chart()
    rec = recentre(chart, np.array([0.6]))
    assert np.allclose(rec.base_point, [0.8, 0.6], atol=1e-10)
    assert np.max(np.abs(rec.a_vector(np.zeros(1)))) < 1e-10
    for t in rec.domain_samples(10, seed=6):
        g = rec.gamma(t)
        assert abs(g[0] ** 2 + g[1] ** 2 - 1.0) < 1e-9


def test_recentre_linear_chart_stays_affine():
    bg = linear_germ()
    chart = build_parametrization(bg, np.zeros(2), radius=0.5)
    rec = recentre(chart, np.array([0.2]))
    for t in rec.domain_samples(10, seed=7):
        assert np.max(np.abs(rec.a_vector(t))) < 1e-9


def test_recentre_image_inside_original():
    chart = circle_chart()
    rec = recentre(chart, np.array([0.4]))
    for t in rec.domain_samples(20, seed=8):
        p = rec.gamma(t)
        # the point is hit by the original chart: its kernel coordinate is in range
        s = chart.kernel_basis.T @ (p - chart.base_point)
        assert chart.domain_contains(s)
        assert np.max(np.abs(chart.gamma(s) - p)) < 1e-8


def test_transform_identity():
    chart = circle_chart()
    out = transform(chart, BundleIso(base=lambda x: x, base_inv=lambda y: y))
    assert np.allclose(out.base_point, chart.base_point)
    for t in out.domain_samples(10, seed=9):
        assert out.residual(t) < 1e-9


def test_transform_rotation():
    chart = circle_chart()
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = transform(chart, BundleIso(base=lambda x: R @ x, base_inv=lambda y: R.T @ y))
    assert np.allclose(out.base_point, [0.0, 1.0], atol=1e-12)
    # pushforward zeros stay on the rotated circle
    for t in out.domain_samples(15, seed=10):
        g = out.gamma(t)
        assert abs(g[0] ** 2 + g[1] ** 2 - 1.0) < 1e-8
    # kernel rotated: at (0,1) the circle tangent is horizontal
    assert abs(abs(out.kernel_basis[0, 0]) - 1.0) < 1e-8


def test_transform_anisotropic_scaling_of_linear_chart():
    bg = linear_germ()
    chart = build_parametrization(bg, np.zeros(2), radius=0.5)
    S = np.diag([2.0, 1.0])
    out = transform(chart, BundleIso(base=lambda x: S @ x, base_inv=lambda y: np.linalg.solve(S, y)))
    for t in out.domain_samples(10, seed=11):
        assert np.max(np.abs(out.a_vector(t))) < 1e-8


def test_transition_identity_charts():
    chart = circle_chart()
    tm = transition_map(chart, chart, chart.base_point)
    for t in np.linspace(-0.3, 0.3, 7):
        s = tm(np.array([t]))
        assert abs(s[0] - t) < 1e-10
        assert tm.mismatch(np.array([t])) < 1e-10


def test_transition_chart_vs_recentring():
    chart = circle_chart()
    rec = recentre(chart, np.array([0.5]))
    tm = transition_map(chart, rec, rec.base_point)
    for t in np.linspace(-0.05, 0.05, 11):
        tv = np.array([t])
        if not rec.domain_contains(tv):
            continue
        assert tm.mismatch(tv) < 1e-8
        # closed-form arc reparametrization: sigma(t) = sin(asin(0.5-ish)+...)
        s = tm(tv)
        p = rec.gamma(tv)
        assert abs(s[0] - p[1]) < 1e-9  # kernel coordinate of chart 1 is the y-coordinate
    D = fd_jacobian(tm, np.zeros(1))
    assert D.shape == (1, 1)
    # smoothness surrogate: bounded second differences
    h = 1e-3
    second = (tm(np.array([h])) - 2 * tm(np.zeros(1)) + tm(np.array([-h]))) / h**2
    assert np.max(np.abs(second)) < 10.0


def test_coordinates_project_along_the_chart_complement():
    # x = q + K t + C s gives back t, for an oblique complement too
    rec = recentre(circle_chart(), np.array([0.4]))
    assert abs(float((rec.kernel_basis.T @ rec.complement_basis)[0, 0])) > 0.3
    rng = np.random.default_rng(3)
    for _ in range(5):
        t, s = rng.normal(size=1), rng.normal(size=1)
        x = rec.base_point + rec.kernel_basis @ t + rec.complement_basis @ s
        assert np.max(np.abs(rec.coordinates(x) - t)) <= 1e-14


def test_a_recentred_chart_covers_its_own_points():
    # the recentred circle chart keeps the complement (0, 1) of the chart at
    # (1, 0) while its kernel turns: K^T (x - q) misses its own point Gamma(t)
    from germforge.degree import _covering_u

    rec = recentre(circle_chart(), np.array([0.4]))
    for t in (-0.1, 0.05, 0.1):
        x = rec.gamma(np.array([t]))
        assert _covering_u(rec, x) == pytest.approx(abs(t) / rec.radius, abs=1e-14)


@pytest.mark.parametrize("shared", [0.4, 0.45], ids=["at-the-recentred-base", "off-it"])
def test_a_transition_into_a_recentred_chart_matches_off_the_shared_zero(shared):
    chart = circle_chart()
    rec = recentre(chart, np.array([0.4]))
    tm = transition_map(rec, chart, chart.gamma(np.array([shared])))
    for t in np.linspace(0.35, 0.5, 7):
        assert tm.mismatch(np.array([t])) <= 1e-10


def test_a_transition_into_a_corner_chart_matches_off_the_shared_zero():
    # the corner chart of the arc at (0, sqrt(3/4)) has the oblique
    # complement of its good-position certificate
    bg, corner, cosine = _arc_charts()
    assert cosine > 0.3
    interior = build_parametrization(bg, np.array([0.5 + np.cos(1.6), np.sin(1.6)]), radius=0.45)
    tm = transition_map(corner, interior, interior.base_point)
    for t in np.linspace(-0.1, 0.1, 9):
        if corner.domain_contains(tm(np.array([t]))):
            assert tm.mismatch(np.array([t])) <= 1e-10


def _arc_charts():
    """(germ, corner chart, its complement's cosine with its kernel) of the
    arc (x - 1/2)^2 + y^2 = 1 on [0, inf) x R at its corner (0, sqrt(3/4))."""
    bg = BasicGerm(n=2, k=1, N=1, W=GradedSpace(dim=0, levels=3),
                   g=lambda x: np.array([(x[0] - 0.5) ** 2 + x[1] ** 2 - 1.0]))
    corner = build_boundary_parametrization(bg, np.array([0.0, np.sqrt(0.75)]), radius=0.8)
    return bg, corner, float(np.abs(corner.kernel_basis.T @ corner.complement_basis).max())


def test_transition_linear_charts_with_rotated_kernels():
    bg = linear_germ()
    c1 = build_parametrization(bg, np.zeros(2), radius=0.5)
    c2 = recentre(c1, np.array([0.1]))
    tm = transition_map(c1, c2, c2.base_point)
    # affine zero set: the transition is affine-linear; second differences vanish
    h = 1e-3
    second = (tm(np.array([h])) - 2 * tm(np.zeros(1)) + tm(np.array([-h]))) / h**2
    assert np.max(np.abs(second)) < 1e-6


def test_transition_requires_overlap():
    chart = circle_chart()
    far = build_parametrization(registry.circle_basic_germ(), np.array([-1.0, 0.0]), radius=0.75)
    with pytest.raises(NoOverlap):
        transition_map(chart, far, np.array([1.0, 0.0]))


def test_boundary_diagonal_line_neat_kernel():
    bg = registry.diagonal_line_germ()
    chart = build_boundary_parametrization(bg, np.zeros(2), radius=0.5)
    assert chart.is_boundary
    assert chart.structure.quadrant_count == 1
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    for t in chart.domain_samples(15, seed=12):
        g = chart.gamma(t)
        assert abs(g[1] - g[0]) < 1e-10
        assert g[0] >= -1e-9
        assert np.max(np.abs(chart.a_vector(t))) < 1e-10
    k = chart.kernel_basis[:, 0]
    assert np.allclose(np.abs(k), u, atol=1e-10)


def test_boundary_parabola_closed_form():
    bg = registry.parabola_corner_germ()
    chart = build_boundary_parametrization(bg, np.zeros(2), radius=0.4)
    amb = GradedSpace(dim=2, levels=3, quadrant_rank=1)
    for t in chart.domain_samples(40, seed=13):
        g = chart.gamma(t)
        assert abs(g[1] - g[0] ** 2) < 1e-8
        assert g[0] >= -1e-9
        n = chart.kernel_basis @ t
        s = chart.structure.to_standard @ n
        active = int(np.sum(np.abs(s[: chart.structure.quadrant_count]) <= 1e-9))
        assert degeneracy_index(g, amb) == active
    assert degeneracy_index(chart.gamma(np.zeros(1)), amb) == 1


def test_boundary_corner_plane():
    bg = registry.quadrant_plane_germ()
    chart = build_boundary_parametrization(bg, np.zeros(3), radius=0.4)
    assert chart.structure.quadrant_count == 2
    amb = GradedSpace(dim=3, levels=3, quadrant_rank=2)
    for t in chart.domain_samples(30, seed=14):
        g = chart.gamma(t)
        assert abs(g[2] - g[0] - g[1]) < 1e-9
        n = chart.kernel_basis @ t
        s = chart.structure.to_standard @ n
        active = int(np.sum(np.abs(s[: chart.structure.quadrant_count]) <= 1e-9))
        assert degeneracy_index(g, amb) == active
    # order-2 corner at the origin
    assert degeneracy_index(chart.gamma(np.zeros(2)), amb) == 2


def test_boundary_surjectivity_propagates():
    bg = registry.parabola_corner_germ()
    chart = build_boundary_parametrization(bg, np.zeros(2), radius=0.4)
    for t in chart.domain_samples(15, seed=15):
        assert svd_split(chart.jacobian(chart.gamma(t)))[2].shape[1] == 0


def test_position_certificate_is_honored():
    bg = registry.parabola_corner_germ()

    class FakeCert:
        ok = False
        complement = None

    with pytest.raises(PositionNotCertified):
        build_boundary_parametrization(bg, np.zeros(2), position_certificate=FakeCert())


def test_a_certificate_whose_complement_is_the_kernel_is_rejected():
    # the parabola's kernel at the corner is span{(1, 0)}; a "complement"
    # equal to it would let every t solve to the corner itself
    bg = registry.parabola_corner_germ()

    class KernelCert:
        ok = True
        complement = np.array([[1.0], [0.0]])

    with pytest.raises(PositionNotCertified):
        build_boundary_parametrization(bg, np.zeros(2), position_certificate=KernelCert())


def test_a_singular_fiber_block_raises_a_library_error():
    # g = (v2 - v1 + w, v1 + w^2): f'(0) is onto, but J_ww = 0
    W = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    bg = BasicGerm(n=2, k=1, N=1, W=W, g=lambda x: np.array([x[1] - x[0] + x[2], x[0] + x[2] ** 2]),
                   contraction_schedule={m: (0.25, 1.0) for m in range(4)})
    with pytest.raises(SingularLinearization):
        build_boundary_parametrization(bg, np.zeros(3), radius=0.3)


def test_fibred_corner_chart_reads_its_kernel_and_complement_from_f_prime():
    bg = _fibred_corner_germ()
    chart = build_boundary_parametrization(bg, np.zeros(3), radius=0.3)
    J = chart.jacobian(np.zeros(3))
    assert np.max(np.abs(J @ chart.kernel_basis)) < 1e-8
    C = chart.complement_basis
    fiber = np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(C @ (C.T @ fiber) - fiber)) < 1e-12
    assert np.linalg.matrix_rank(np.hstack([chart.kernel_basis, C])) == 3


def test_boundary_chart_guards():
    from germforge.errors import GermforgeError

    bg = registry.parabola_corner_germ()
    chart = build_boundary_parametrization(bg, np.zeros(2), radius=0.4)
    with pytest.raises(GermforgeError):
        recentre(chart, np.zeros(1))  # corner point sits on a boundary stratum
    with pytest.raises(GermforgeError):
        transform(chart, BundleIso(base=lambda x: x, base_inv=lambda y: y))
    # recentring to an interior point yields an interior chart on the parabola
    t0 = chart.domain_samples(1, seed=20)[0]
    if np.linalg.norm(t0) > 1e-3:
        rec = recentre(chart, t0)
        assert not rec.is_boundary
        for t in rec.domain_samples(5, seed=21):
            g = rec.gamma(t)
            assert abs(g[1] - g[0] ** 2) < 1e-8


def test_interior_chart_with_fiber_solver():
    # rotating-line filled map e - c(v): n=1, N=0, W=R^2; the chart pipeline
    # runs the fixed-point solver for the fiber part
    bg = registry.rotating_line_basic_germ()
    v0 = 0.2
    mag = 1.0 + 0.3 * np.sin(v0)
    q = np.array([v0, mag * np.cos(v0), mag * np.sin(v0)])
    chart = build_parametrization(bg, q, radius=0.3)
    assert chart.dim == 1
    for t in chart.domain_samples(100, seed=16):
        g = chart.gamma(t)
        assert chart.residual(t) < 1e-9
        # image stays on the zero curve (v, c(v))
        m = 1.0 + 0.3 * np.sin(g[0])
        want = m * np.array([np.cos(g[0]), np.sin(g[0])])
        assert np.max(np.abs(g[1:] - want)) < 1e-8


def test_boundary_chart_with_fiber_solver():
    # n=2 (one constrained), N=1, W=R: both the fiber fixed point and the
    # quadrant machinery are active
    W = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))

    def g(x):
        v1, v2, w = x
        return np.array([v2 - v1 + w**2, w - 0.2 * np.sin(v1 + w)])

    bg = BasicGerm(n=2, k=1, N=1, W=W, g=g,
                   contraction_schedule={m: (0.25, 1.0) for m in range(4)})
    chart = build_boundary_parametrization(bg, np.zeros(3), radius=0.3)
    assert chart.is_boundary
    assert chart.structure.quadrant_count == 1
    amb = GradedSpace(dim=3, levels=3, quadrant_rank=1)
    for t in chart.domain_samples(15, seed=17):
        p = chart.gamma(t)
        assert np.max(np.abs(g(p))) < 1e-9
        assert p[0] >= -1e-9
    assert degeneracy_index(chart.gamma(np.zeros(1)), amb) == 1


def test_atlas_transition_consistency():
    bg = registry.circle_basic_germ()
    c1 = build_parametrization(bg, np.array([1.0, 0.0]), radius=0.75)
    c2 = build_parametrization(bg, np.array([0.0, 1.0]), radius=0.75)
    shared = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    atlas = SolutionAtlas(charts=(c1, c2), overlaps=((0, 1, shared),))
    assert atlas.verify_transitions()


def _counted(g):
    calls = [0]

    def section(x):
        calls[0] += 1
        return g(x)

    return section, calls


def test_a_circle_chart_build_takes_131_section_evaluations():
    # f(q) and f'(q) (5), the second-order term (J C and two second
    # differences along K, 5), A(0) (1), and at each of 12 samples one cold
    # solve and the graph system's J C (2); the former check took the full
    # f'(Gamma(t)) (4) and re-evaluated the residual, from solves started at
    # s = 0, in 198 evaluations
    section, calls = _counted(registry.circle_section)
    bg = registry.circle_basic_germ()
    chart = build_parametrization(BasicGerm(n=bg.n, k=bg.k, N=bg.N, W=bg.W, g=section), np.array([1.0, 0.0]),
                                  radius=0.75)
    assert chart.radius == 0.75 and calls[0] == 131


def test_the_cold_start_is_the_second_order_term_of_a_quadratic_graph():
    # z = x^2 - 3 x y + 2 y^2 over the (x, y)-plane is its own second-order
    # term, mixed part included: C s2(t) is the chart's A(t)
    bg = BasicGerm(n=3, k=0, N=1, W=GradedSpace(dim=0, levels=3),
                   g=lambda x: np.array([x[2] - x[0] ** 2 + 3 * x[0] * x[1] - 2 * x[1] ** 2]))
    chart = build_parametrization(bg, np.zeros(3), radius=0.5)
    for t in chart.domain_samples(12, seed=5):
        x, y = (chart.kernel_basis @ t)[:2]
        want = np.array([0.0, 0.0, x**2 - 3 * x * y + 2 * y**2])
        assert np.max(np.abs(chart.complement_basis @ chart.cold_start(t) - want)) <= 1e-10
        assert np.max(np.abs(chart.a_vector(t) - want)) <= 1e-12


def test_a_chart_whose_complement_turns_tangent_inside_its_radius_shrinks():
    # the x-axis, the complement of the circle's chart at (1, 0), is tangent
    # to the circle at t = +-1: asked for radius 1.3 the chart halves to
    # 0.65, where the graph system's J C = 2 x stays invertible
    assert circle_chart(radius=1.3).radius == 0.65


def test_a_chart_that_halves_its_radius_computes_its_second_order_term_once(monkeypatch):
    # the term depends on (f, q, K, C) alone, so each halving carries it over
    # and saves its 5 evaluations on the circle
    radii, term = [], GoodParametrization.__dict__["_second_order"].func

    def counted(chart):
        radii.append(chart.radius)
        return term(chart)

    prop = cached_property(counted)
    prop.__set_name__(GoodParametrization, "_second_order")
    monkeypatch.setattr(GoodParametrization, "_second_order", prop)
    chart = circle_chart(radius=1.3)
    assert chart.radius == 0.65 and radii == [1.3]


def test_a_chart_shrinks_where_the_graph_systems_j_c_vanishes():
    # f = y (1 - 4 x^2)_+^2 vanishes on |x| >= 1/2, so a solve there stops at
    # once, at a point where f' = 0 and J C = 0: radius 0.8 halves to 0.4
    bg = BasicGerm(n=2, k=0, N=1, W=GradedSpace(dim=0, levels=3),
                   g=lambda x: np.array([x[1] * max(0.0, 1.0 - 4.0 * x[0] ** 2) ** 2]))
    assert build_parametrization(bg, np.zeros(2), radius=0.8).radius == 0.4


def arc_germ(k=1):
    """The circle (x - 1/2)^2 + y^2 = 1, on [0, inf) x R for k = 1."""
    return BasicGerm(n=2, k=k, N=1, W=GradedSpace(dim=0, levels=3),
                     g=lambda x: np.array([(x[0] - 0.5) ** 2 + x[1] ** 2 - 1.0]))


def test_an_interior_chart_keeps_every_point_the_rule_reaches_in_the_quadrant():
    # at radius 0.6 the chart at angle -pi/2 - 0.024 reaches
    # Gamma(0.57) = (-0.0896, -0.8077) inside the cell clip, off the germ's
    # domain x >= 0; it halves to 0.3.  Without the constraint it keeps 0.6
    a = -np.pi / 2 - 0.024
    q = np.array([0.5 + np.cos(a), np.sin(a)])
    chart = build_parametrization(arc_germ(), q, radius=0.6)
    assert chart.radius == 0.3
    for t in np.linspace(-SUPPORT_SCALE, SUPPORT_SCALE, 41) * chart.radius:
        assert chart.gamma(np.array([t]))[0] >= -DEFAULT_TOL
    assert build_parametrization(arc_germ(k=0), q, radius=0.6).radius == 0.6


def test_chart_solve_without_zero_raises_nonconvergence_with_residual():
    chart = circle_chart()
    # the line x = 1 + s, y = 1.5 misses the unit circle: |f| >= 1.25 on it
    with pytest.raises(NonConvergence) as info:
        chart.a_map(np.array([1.5]))
    assert info.value.residual is not None
    assert info.value.residual >= 1.25 - 1e-9


def test_a_vector_of_a_non_finite_point_skips_the_memo():
    chart = circle_chart()
    before = dict(chart._cache)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            chart.a_vector(np.array([np.nan]))
    with warnings.catch_warnings():
        # a_map itself forms inf * 0 in `kernel @ t`; only the memo key is at issue
        warnings.filterwarnings("error", message="invalid value encountered in cast")
        warnings.filterwarnings("ignore", message="invalid value encountered in matmul")
        with pytest.raises(NonConvergence):
            chart.a_vector(np.array([np.inf]))
    assert chart._cache.keys() == before.keys()


def test_the_memo_key_is_the_quantized_coordinates_and_none_off_the_finite_points():
    rng = np.random.default_rng(25)
    points = [rng.normal(size=d) * 10.0 ** rng.uniform(-14, 2) for d in (1, 2, 3) for _ in range(200)]
    points += [np.array([-0.0]), np.array([5e-13, -5e-13]), np.zeros(0)]
    for t in points:
        key = solution._memo_key(t)
        assert key == tuple(np.round(t / solution.CACHE_QUANTUM).astype(np.int64))
        assert all(type(k) is np.int64 for k in key)
    for t in ([np.nan], [0.0, np.inf], [-np.inf, 1.0, 2.0]):
        assert solution._memo_key(np.array(t)) is None


# Reference: the paper's staged construction of the graph map A (fiber fixed
# point delta, Newton on the remainder G(v) = f(v, delta(v))_N, then
# reparametrization over the kernel), which the bordered solve replaced.  By
# local uniqueness of A in the chart complement both must agree.

def _solve(func, x0):
    x, res, converged = newton(func, x0, NEWTON_TOL, NEWTON_MAX_ITER)
    assert converged, f"oracle solve stalled at residual {res:.3e}"
    return x


def _staged_pieces(bg, q):
    def shifted(x):
        return bg.evaluate(q + x)

    inner = None
    if bg.W.dim:
        inner = ContractionGerm(
            parameter_space=bg.parameter_space, solution_space=bg.W,
            B=lambda v, w: w - bg.project_W(shifted(np.concatenate([v, w]))),
            contraction_schedule=dict(bg.contraction_schedule),
        )
    delta = SolutionGerm(inner) if inner else (lambda v: np.zeros(0))

    def G(v):
        return shifted(np.concatenate([v, delta(v)]))[: bg.N]

    return shifted, inner, delta, G


def staged_interior_a_map(bg, q, kernel):
    n = bg.n
    _, _, delta, G = _staged_pieces(bg, q)
    DG0 = fd_jacobian(G, np.zeros(n)) if bg.N else np.zeros((0, n))
    _, Kc, _, _ = svd_split(DG0) if bg.N else (0, np.eye(n), None, None)
    Cp = orthonormal_columns(np.eye(n) - Kc @ Kc.T) if Kc.shape[1] < n else np.zeros((n, 0))

    def c_of_r(r):
        if Cp.shape[1] == 0:
            return np.zeros(0)
        return _solve(lambda z: G(Kc @ r + Cp @ z), np.zeros(Cp.shape[1]))

    def beta(r):
        v = Kc @ r + (Cp @ c_of_r(r) if Cp.shape[1] else 0.0)
        return np.concatenate([v, delta(v)])

    Dbeta0_pinv = np.linalg.pinv(fd_jacobian(beta, np.zeros(Kc.shape[1])))

    def alpha(t):
        return beta(Dbeta0_pinv @ (kernel @ t))

    def a_map(t_target):
        t = _solve(lambda t: kernel.T @ alpha(t) - t_target, t_target)
        pt = alpha(t)
        return pt - kernel @ (kernel.T @ pt)

    return a_map


def staged_corner_a_map(bg, q, kernel, complement):
    n, wdim = bg.n, bg.W.dim
    _, inner, delta, G = _staged_pieces(bg, q)
    DG0 = fd_jacobian(G, np.zeros(n)) if bg.N else np.zeros((0, n))
    _, Nprime, _, _ = svd_split(DG0) if bg.N else (0, np.eye(n), None, None)
    T_inv = np.eye(bg.domain_dim)
    if wdim:
        T_inv[n:, :n] = -germ_derivative(inner, np.zeros(n))
    param_block = np.zeros((bg.domain_dim, n))
    param_block[:n, :n] = np.eye(n)
    M = orthonormal_columns(subspace_intersection(T_inv @ complement, param_block)[: n, :])
    if M.shape[1] != n - Nprime.shape[1]:
        M = orthonormal_columns(np.eye(n) - Nprime @ Nprime.T)

    def a_map(t):
        nvec = kernel @ t
        r = (T_inv @ nvec)[:n]
        z = _solve(lambda z: G(r + M @ z), np.zeros(M.shape[1])) if M.shape[1] else np.zeros(0)
        v = r + M @ z
        return np.concatenate([v, delta(v)]) - nvec

    return a_map


# Reference: the constructions that recentre and transform replaced, both
# built on the old chart's Gamma.  Recentring mapped new-kernel coefficients
# back to old-kernel increments through a lift; pushforward inverted the
# projection of the transported image onto the new kernel by a second Newton
# solve.  Each yields zeros q' + K' t + c with c in the new chart's
# complement, so by local uniqueness both agree with its graph solve.

def lift_recentre_a_map(gp, n0, kernel):
    q0 = gp.gamma(n0)
    lift = np.linalg.pinv(gp.kernel_transport(n0)) @ kernel

    def a_map(t):
        return gp.gamma(n0 + lift @ t) - q0 - kernel @ t

    return a_map


def nested_transform_a_map(gp, phi, kernel):
    qp = phi.base(gp.base_point)
    Tphi = fd_jacobian(phi.base, gp.base_point)
    sigma = np.linalg.pinv(Tphi @ gp.kernel_basis) @ kernel

    def curve(tp):
        return phi.base(gp.gamma(sigma @ tp))

    def a_map(tp):
        t_inv = _solve(lambda z: kernel.T @ (curve(z) - qp) - tp, tp)
        offset = curve(t_inv) - qp
        return offset - kernel @ (kernel.T @ offset)

    return a_map


R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
BASE_MAPS = {
    "rotation": BundleIso(base=lambda x: R90 @ x, base_inv=lambda y: R90.T @ y),
    "shear": BundleIso(base=lambda x: np.array([x[0] + 0.3 * x[1] ** 2, x[1]]),
                       base_inv=lambda y: np.array([y[0] - 0.3 * y[1] ** 2, y[1]])),
}


@pytest.mark.parametrize("case", sorted(BASE_MAPS))
def test_transform_matches_the_nested_inversion(case):
    chart = circle_chart()
    out = transform(chart, BASE_MAPS[case])
    oracle = nested_transform_a_map(chart, BASE_MAPS[case], out.kernel_basis)
    samples = out.domain_samples(12, seed=32)
    assert len(samples) == 12
    for t in samples:
        assert np.max(np.abs(out.a_vector(t) - oracle(t))) <= 1e-10


def _parabola_corner_chart():
    return build_boundary_parametrization(registry.parabola_corner_germ(), np.zeros(2), radius=0.4)


def zero_start_a_map(chart, t):
    """A(t) by Newton from s = 0, where every cold chart solve started
    before the second-order term s2(t)."""
    C = chart.complement_basis
    base = chart.base_point + chart.kernel_basis @ t
    return C @ _solve(lambda s: chart.section(base + C @ s), np.zeros(C.shape[1]))


def _sphere_chart():
    bg = BasicGerm(n=3, k=0, N=1, W=GradedSpace(dim=0, levels=3), g=lambda x: np.array([x @ x - 1.0]))
    return build_parametrization(bg, np.array([0.0, 0.0, 1.0]), radius=0.9)


def _recentred_circle_chart():
    chart = circle_chart()
    return recentre(chart, chart.kernel_basis.T @ np.array([0.0, 0.4]))


COLD_START_CASES = {
    "circle": circle_chart,
    "sphere": _sphere_chart,
    "parabola-corner": _parabola_corner_chart,
    "quadrant-plane": lambda: build_boundary_parametrization(registry.quadrant_plane_germ(), np.zeros(3), radius=0.4),
    "recentred": _recentred_circle_chart,
    "transformed": lambda: transform(circle_chart(), BASE_MAPS["shear"]),
}


@pytest.mark.parametrize("case", sorted(COLD_START_CASES))
def test_chart_points_from_the_cold_start_match_the_solve_from_zero(case):
    chart = COLD_START_CASES[case]()
    samples = chart.domain_samples(12, seed=34)
    assert len(samples) == 12
    for t in samples:
        assert np.max(np.abs(chart.a_vector(t) - zero_start_a_map(chart, t))) <= 1e-12


# each chart with the kernel vector n of its recentre point, in ambient coordinates
RECENTRE_CASES = {
    "circle-0.4": (circle_chart, np.array([0.0, 0.4])),
    "circle-0.6": (circle_chart, np.array([0.0, 0.6])),
    "parabola-interior": (_parabola_corner_chart, np.array([0.2, 0.0])),
}


@pytest.mark.parametrize("case", sorted(RECENTRE_CASES))
def test_recentre_matches_the_lift_through_the_old_chart(case):
    make, n = RECENTRE_CASES[case]
    chart = make()
    n0 = chart.kernel_basis.T @ n
    rec = recentre(chart, n0)
    oracle = lift_recentre_a_map(chart, n0, rec.kernel_basis)
    samples = rec.domain_samples(12, seed=33)
    assert len(samples) == 12
    for t in samples:
        assert np.max(np.abs(rec.a_vector(t) - oracle(t))) <= 1e-10


def _fibred_corner_germ():
    W = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))

    def g(x):
        v1, v2, w = x
        return np.array([v2 - v1 + w**2, w - 0.2 * np.sin(v1 + w)])

    return BasicGerm(n=2, k=1, N=1, W=W, g=g,
                     contraction_schedule={m: (0.25, 1.0) for m in range(4)})


def _rotating_line_zero():
    v0 = 0.2
    mag = 1.0 + 0.3 * np.sin(v0)
    return np.array([v0, mag * np.cos(v0), mag * np.sin(v0)])


ORACLE_CASES = {
    "circle": (registry.circle_basic_germ, np.array([1.0, 0.0]), 0.75, False),
    "linear": (linear_germ, np.zeros(2), 0.5, False),
    "rotating-line": (registry.rotating_line_basic_germ, _rotating_line_zero(), 0.3, False),
    "fibred-corner": (_fibred_corner_germ, np.zeros(3), 0.3, True),
    "parabola-corner": (registry.parabola_corner_germ, np.zeros(2), 0.4, True),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_bordered_solve_matches_staged_construction(case):
    make, q, radius, corner = ORACLE_CASES[case]
    bg = make()
    if corner:
        chart = build_boundary_parametrization(bg, q, radius=radius)
        oracle = staged_corner_a_map(bg, q, chart.kernel_basis, chart.complement_basis)
    else:
        chart = build_parametrization(bg, q, radius=radius)
        oracle = staged_interior_a_map(bg, q, chart.kernel_basis)
    samples = chart.domain_samples(12, seed=31)
    assert len(samples) == 12
    for t in samples:
        assert np.max(np.abs(chart.a_vector(t) - oracle(t))) <= 1e-10
        assert np.max(np.abs(chart.kernel_transport(t) - fd_jacobian(chart.gamma, t))) <= 1e-6


# --------------------------------------- the closed-form 1x1 chart inverse

def svd_inverse(JC):
    """(J C)^-1 by the SVD formula, or NotSurjective at the same cutoff."""
    U, sv, Vt = np.linalg.svd(JC)
    if not sv[-1] > SV_RELATIVE_CUTOFF * max(sv[0], 1.0):
        raise NotSurjective("singular")
    return (Vt.T / sv) @ U.T


def assert_inverse_is_the_svd_formulas(a):
    JC = np.array([[a]])
    try:
        want = svd_inverse(JC)
    except NotSurjective:
        with pytest.raises(NotSurjective):
            _complement_inverse(JC)
        return
    got = _complement_inverse(JC)
    assert got.shape == (1, 1) and got.dtype == want.dtype and got.tobytes() == want.tobytes(), a


def test_a_1x1_chart_inverse_returns_the_bits_of_the_svd_formula():
    rng = np.random.default_rng(25)
    for a in rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-300, 300, 20000):
        assert_inverse_is_the_svd_formulas(a)
    edges = [1e-300, 1e130, 1.68e138, 1e139, 1e300, np.finfo(float).max]
    edges += [np.nextafter(edge, direction) for edge in CLOSED_FORM_RANGE for direction in (0.0, np.inf)]
    for a in edges:
        assert_inverse_is_the_svd_formulas(a)
        assert_inverse_is_the_svd_formulas(-a)


@pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, -1e-310, 1e-12, -5e-9, 1e-8, np.nextafter(1e-8, 0.0)])
def test_a_1x1_chart_inverse_inside_the_cutoff_is_not_surjective(a):
    with pytest.raises(NotSurjective):
        _complement_inverse(np.array([[a]]))
    with pytest.raises(NotSurjective):
        svd_inverse(np.array([[a]]))


def test_a_replaced_chart_starts_without_the_originals_memo():
    # replace(chart, section=g) shared the memo: the chart of the circle of
    # radius 1.1 answered with the unit circle's point, at residual 0.21
    chart = build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]))
    unit = chart.gamma(np.array([0.3]))
    wider = replace(chart, section=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.21]))
    assert wider.residual(np.array([0.3])) <= 1e-12
    assert np.array_equal(chart.gamma(np.array([0.3])), unit)


def spied_newton(monkeypatch):
    """The starts of every `newton` the chart solves make."""
    starts, run = [], solution.newton

    def spy(func, x0, *args):
        starts.append(np.array(x0))
        return run(func, x0, *args)

    monkeypatch.setattr(solution, "newton", spy)
    return starts


def test_graph_solve_from_a_start_that_converges_makes_one_solve(monkeypatch):
    chart = build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]))
    t = np.array([0.3])
    cold = _graph_solve(chart, t, None)
    starts = spied_newton(monkeypatch)
    s = _graph_solve(chart, t, cold + 1e-3)
    assert len(starts) == 1 and np.array_equal(starts[0], cold + 1e-3)
    assert abs(s[0] - cold[0]) <= 1e-12


def test_graph_solve_falls_back_to_the_cold_start(monkeypatch):
    # a NaN start stalls Newton at once; the cold solve then gives the bits
    # of the solve with no start
    chart = build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]))
    t = np.array([0.3])
    cold = _graph_solve(chart, t, None)
    starts = spied_newton(monkeypatch)
    s = _graph_solve(chart, t, np.full(1, np.nan))
    assert len(starts) == 2 and np.isnan(starts[0]).all() and np.array_equal(starts[1], chart.cold_start(t))
    assert np.array_equal(s, cold)


def test_graph_solve_raises_the_cold_solves_residual():
    # |x|^2 + 1 has no zero: the start and the cold start both stall
    chart = build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]))
    lifted = replace(chart, section=lambda x: np.array([x[0] ** 2 + x[1] ** 2 + 1.0]))
    t = np.array([0.3])
    _, res, converged = newton(_graph_system(lifted, t), lifted.cold_start(t), NEWTON_TOL, NEWTON_MAX_ITER)
    assert not converged
    with pytest.raises(NonConvergence) as info:
        _graph_solve(lifted, t, np.zeros(1))
    assert info.value.residual == res


def test_transform_refuses_a_base_map_with_a_singular_jacobian():
    from germforge.errors import GermforgeError

    flatten = BundleIso(base=lambda x: np.array([x[0], 0.0]), base_inv=lambda y: y)
    with pytest.raises(GermforgeError, match="singular"):
        transform(circle_chart(), flatten)
