from dataclasses import replace

import numpy as np
import pytest

from germforge import fredholm
from germforge._linalg import SV_RELATIVE_CUTOFF, fd_jacobian
from germforge.errors import DegenerateSplitting, MismatchAtPoint, NonConvergence
from germforge.fredholm import (
    BasicGerm,
    ScPlusSection,
    fredholm_index,
    index_from_linearization,
    linearize_relative,
    perturb_normal_form,
)
from germforge.germs import MAX_BISECTIONS, ContractionReport, SamplingPlan, shrink_to_contraction, verify_contraction
from germforge.spaces import GradedSpace


def make_linear_basic_germ(rng, n, N, wdim, levels=2, scale=0.15):
    W = GradedSpace(dim=wdim, levels=levels, weights=np.ones(wdim))
    M = rng.normal(size=(N + wdim, n + wdim)) * scale
    M[N:, n:] += np.eye(wdim)

    def g(x, M=M):
        return M @ x

    return BasicGerm(n=n, k=min(1, n), N=N, W=W, g=g,
                     contraction_schedule={m: (0.7, 1.0) for m in range(levels + 1)})


def test_index_formula_examples():
    rng = np.random.default_rng(0)
    bg = make_linear_basic_germ(rng, n=3, N=1, wdim=2)
    assert fredholm_index(bg) == 2
    bg2 = make_linear_basic_germ(rng, n=2, N=2, wdim=1)
    assert fredholm_index(bg2) == 0


def test_index_matches_svd_on_random_germs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, n + 1))
        wdim = int(rng.integers(1, 3))
        bg = make_linear_basic_germ(rng, n=n, N=N, wdim=wdim)
        assert index_from_linearization(bg.jacobian_at_zero()) == n - N


def test_inner_contraction_certificate():
    rng = np.random.default_rng(2)
    bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2)
    for m in range(bg.W.levels + 1):
        rep = verify_contraction(bg.inner, m, SamplingPlan(seed=5))
        assert rep.passed


def test_linearize_relative_plain_jacobian():
    f = lambda x: np.array([x[0] ** 2 + x[1], x[0] - x[1]])
    s = ScPlusSection(section=lambda x: np.zeros(2), levels=3)
    q = np.zeros(2)
    J = linearize_relative(f, s, q)
    assert np.allclose(J, [[0.0, 1.0], [1.0, -1.0]], atol=1e-8)


def test_linearize_relative_constant_section():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    f = lambda x: A @ x + np.array([3.0, -1.0])
    q = np.array([0.5, 0.5])
    s = ScPlusSection(section=lambda x, val=f(q): val, levels=3)
    J = linearize_relative(f, s, q)
    assert np.allclose(J, A, atol=1e-8)


def test_linearize_relative_mismatch_raises():
    f = lambda x: np.array([x[0]])
    s = ScPlusSection(section=lambda x: np.array([1.0]), levels=3)
    with pytest.raises(MismatchAtPoint):
        linearize_relative(f, s, np.zeros(1))


def test_relative_linearizations_share_index():
    # two distinct quadratic sections agreeing with f at q
    f = lambda x: np.array([x[0] + x[1] ** 2, x[0] - x[1]])
    q = np.array([0.2, -0.1])
    fq = f(q)

    def quad1(x):
        d = x - q
        return fq + np.array([d[0] ** 2, d[1] ** 2])

    def quad2(x):
        d = x - q
        return fq + np.array([3 * d[0] * d[1], -(d[0] ** 2)])

    s1 = ScPlusSection(section=quad1, levels=3)
    s2 = ScPlusSection(section=quad2, levels=3)
    J1 = linearize_relative(f, s1, q)
    J2 = linearize_relative(f, s2, q)
    assert index_from_linearization(J1) == index_from_linearization(J2)


def test_sc_plus_level_bookkeeping():
    s = ScPlusSection(section=lambda x: np.zeros(1), levels=3)
    assert s.output_level(0) == 1
    assert s.output_level(2) == 3
    assert s.output_level(3) == 3


def base_germ_for_stability(levels=2):
    W = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    return BasicGerm(n=1, k=0, N=0, W=W, g=lambda x: np.array([x[1]]),
                     contraction_schedule={m: (1e-6, 1.0) for m in range(levels + 1)})


def test_normal_form_identity_perturbation():
    bg = base_germ_for_stability()
    s = ScPlusSection(section=lambda x: np.array([0.0]), levels=2)
    out, rep = perturb_normal_form(bg, s)
    assert (out.n, out.N, out.W.dim) == (bg.n, bg.N, bg.W.dim)
    assert rep.kernel_dim == 0
    # the inner contraction map is unchanged: B = 0
    x = np.array([0.3, 0.4])
    assert np.max(np.abs(out.inner.evaluate(x[:1], x[1:]))) < 1e-9


def test_normal_form_half_shrink():
    # B = 0, s = (0, 0.5 w): kernel-free splitting, L = 1.5, B_hat = 0
    bg = base_germ_for_stability()
    s = ScPlusSection(section=lambda x: np.array([0.5 * x[1]]), levels=2)
    out, rep = perturb_normal_form(bg, s)
    assert rep.kernel_dim == 0
    assert fredholm_index(out) == fredholm_index(bg) == 1
    assert np.max(np.abs(out.inner.evaluate(np.array([0.2]), np.array([0.3])))) < 1e-8


def test_normal_form_full_kernel_absorption():
    # s = (0, -w): 1 + A = 0, the parameter block absorbs all of w
    bg = base_germ_for_stability()
    s = ScPlusSection(section=lambda x: np.array([-x[1]]), levels=2)
    out, rep = perturb_normal_form(bg, s)
    assert rep.kernel_dim == 1
    assert out.W.dim == 0
    assert out.n == bg.n + 1 and out.N == bg.N + 1
    assert fredholm_index(out) == fredholm_index(bg)


def test_normal_form_degenerate_splitting_detected():
    bg = base_germ_for_stability()
    # A = -1 + 5e-8 puts 1 + A inside the ambiguity band [1e-8, 1e-7]
    s = ScPlusSection(section=lambda x: np.array([(-1.0 + 5e-8) * x[1]]), levels=2)
    with pytest.raises(DegenerateSplitting):
        perturb_normal_form(bg, s)


def test_normal_form_index_preserved_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2, scale=0.08)
        A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
        Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05

        def s_map(x, A=A, Q=Q):
            return A @ x + Q @ (x * x)

        s = ScPlusSection(section=s_map, levels=bg.W.levels)
        out, rep = perturb_normal_form(bg, s)
        assert fredholm_index(out) == fredholm_index(bg)
        assert rep.contraction_ratio < 0.9
        for m in range(out.W.levels + 1):
            check = verify_contraction(out.inner, m, SamplingPlan(seed=11))
            assert check.max_ratio < 0.9


def test_normal_form_kernel_dim_matches_direct_svd():
    # conjugation by the fiber/base transformation preserves rank data
    rng = np.random.default_rng(4)
    for _ in range(10):
        bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2, scale=0.08)
        A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.15

        def s_map(x, A=A):
            return A @ x

        s = ScPlusSection(section=s_map, levels=bg.W.levels)
        out, _ = perturb_normal_form(bg, s)
        from germforge._linalg import fd_jacobian, svd_split

        J_direct = fd_jacobian(lambda x: bg.evaluate(x) + s(x), np.zeros(bg.domain_dim))
        _, ker_direct, cok_direct, _ = svd_split(J_direct)
        _, ker_nf, cok_nf, _ = svd_split(out.jacobian_at_zero())
        assert ker_nf.shape[1] == ker_direct.shape[1]
        assert cok_nf.shape[1] == cok_direct.shape[1]


# Reference: the per-level certification loop without shared samples.  Each
# level certifies a fresh `inner` of the normal form, so B_hat is evaluated
# anew at every level although all levels draw the same samples.

def certify_levels_oracle(bg, nf, grid=None):
    """(schedule, worst ratio, worst radius) of nf certified level by level."""
    bare = BasicGerm(n=nf.n, k=nf.k, N=nf.N, W=nf.W, g=nf.g)
    start = max(r for _, r in bg.contraction_schedule.values()) if bg.contraction_schedule else 1.0
    schedule, worst_ratio, worst_radius = {}, 0.0, start
    for m in range(nf.W.levels + 1):
        certified, reports = shrink_to_contraction(bare.inner, (m,), start, MAX_BISECTIONS, grid)
        report = reports[m]
        schedule[m] = certified.contraction_schedule[m]
        worst_ratio = max(worst_ratio, report.max_ratio)
        worst_radius = min(worst_radius, report.radius)
    return schedule, worst_ratio, worst_radius


def uncertified_normal_form(bg, s, monkeypatch):
    """The normal form of g + s before its contraction is certified."""
    def accept(germ, levels, start_radius, *_):
        reports = {m: ContractionReport(level=m, max_ratio=0.0, samples=0, radius=start_radius, passed=True)
                   for m in levels}
        return replace(germ, contraction_schedule=dict.fromkeys(levels, (0.5, start_radius))), reports

    with monkeypatch.context() as patch:
        patch.setattr(fredholm, "shrink_to_contraction", accept)
        nf, _ = perturb_normal_form(bg, s)
    return nf


def assert_certified_like_oracle(bg, s, monkeypatch, grid=None):
    out, rep = perturb_normal_form(bg, s, grid=grid)
    schedule, ratio, radius = certify_levels_oracle(bg, uncertified_normal_form(bg, s, monkeypatch), grid)
    assert out.contraction_schedule == schedule
    assert (rep.contraction_ratio, rep.certified_radius) == (ratio, radius)
    return out, rep


def test_shared_certificate_matches_per_level_oracle_on_random_pairs(monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(8):
        bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2, scale=0.08)
        A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
        Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05
        s = ScPlusSection(section=lambda x, A=A, Q=Q: A @ x + Q @ (x * x), levels=bg.W.levels)
        assert_certified_like_oracle(bg, s, monkeypatch)
    assert_certified_like_oracle(bg, s, monkeypatch, grid=SamplingPlan(seed=5, pair_samples=8))


def weighted_germ_and_section():
    """W weights 1 and 4 with a cross-coupled quadratic section: the level
    norms grow with m, so the levels need different numbers of bisections."""
    W = GradedSpace(dim=2, levels=2, weights=np.array([1.0, 4.0]))
    bg = BasicGerm(n=1, k=0, N=0, W=W, g=lambda x: x[1:].copy(),
                   contraction_schedule={m: (0.5, 1.0) for m in range(3)})
    s = ScPlusSection(section=lambda x: np.array([x[0] * x[1] + 0.5 * x[2] ** 2, 3.0 * x[1] ** 2]), levels=2)
    return bg, s


def test_shared_certificate_matches_oracle_when_levels_shrink_differently(monkeypatch):
    bg, s = weighted_germ_and_section()
    out, rep = assert_certified_like_oracle(bg, s, monkeypatch)
    radii = [r for _, r in out.contraction_schedule.values()]
    assert len(set(radii)) > 1
    assert rep.certified_radius == min(radii)


def test_shared_certificate_raises_like_oracle(monkeypatch):
    # g's W block is 0.05: B = 0.95 w, and s leaves it alone, so B_hat = 0.95 w
    # at every radius and no level certifies
    W = GradedSpace(dim=1, levels=2, weights=np.array([1.0]))
    bg = BasicGerm(n=1, k=0, N=0, W=W, g=lambda x: np.array([0.05 * x[1]]))
    s = ScPlusSection(section=lambda x: np.array([x[0] ** 2]), levels=2)
    with pytest.raises(NonConvergence) as got:
        perturb_normal_form(bg, s)
    with pytest.raises(NonConvergence) as want:
        certify_levels_oracle(bg, uncertified_normal_form(bg, s, monkeypatch))
    assert got.value.residual == want.value.residual
    assert str(got.value) == str(want.value)


def test_normal_form_evaluates_g_once_per_distinct_sample(monkeypatch):
    base, s = weighted_germ_and_section()
    points = []

    def g(x):
        points.append(x.tobytes())
        return base.g(x)

    bg = replace(base, g=g)
    perturb_normal_form(bg, s)
    # g(0) is taken twice, once for g + s and once for the normal form's B_hat
    sampled = [p for p in points if p != np.zeros(bg.domain_dim).tobytes()]
    assert len(sampled) == len(set(sampled))
    points.clear()
    certify_levels_oracle(bg, uncertified_normal_form(bg, s, monkeypatch))
    oracle = [p for p in points if p != np.zeros(bg.domain_dim).tobytes()]
    assert set(sampled) == set(oracle)
    assert len(oracle) > len(sampled)


# The normal form's map as first written: per call, C c and X x and the Z
# and L^-1 R^T coordinates, each block only when it is not empty.

def branchy_normal_form_map(bg, s):
    wdim, n, N = bg.W.dim, bg.n, bg.N
    one_plus_A = np.eye(wdim) + fd_jacobian(s, np.zeros(bg.domain_dim))[N:, n:]
    U, sv, Vt = np.linalg.svd(one_plus_A) if wdim else (np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)))
    rank = int(np.sum(sv > SV_RELATIVE_CUTOFF * max(sv[0] if sv.size else 1.0, 1.0)))
    X_basis, C_basis, R_basis, Z_basis = Vt[:rank].T, Vt[rank:].T, U[:, :rank], U[:, rank:]
    d = C_basis.shape[1]
    L_inv = np.linalg.inv(R_basis.T @ one_plus_A @ X_basis) if rank else np.zeros((0, 0))
    fs0 = bg.value_at_zero() + s(np.zeros(bg.domain_dim))

    def gs(x):
        return bg.evaluate(x) + s(x)

    def new_g(y):
        a = y[:n]
        c = C_basis @ y[n:n + d] if d else np.zeros(wdim)
        xpart = X_basis @ y[n + d:] if rank else np.zeros(wdim)
        val = gs(np.concatenate([a, c + xpart])) - fs0
        wval = val[N:]
        z_coords = Z_basis.T @ wval if d else np.zeros(0)
        x_coords = L_inv @ (R_basis.T @ wval) if rank else np.zeros(0)
        return np.concatenate([val[:N], z_coords, x_coords])

    return new_g, d


def normal_form_cases():
    """(bg, s, kernel dim): random germs with quadratic sections (d = 0),
    with s = -w on the first W coordinate (d = 1), and the full absorption
    germ (rank 0)."""
    rng = np.random.default_rng(31)
    for _ in range(6):
        bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2, scale=0.08)
        A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
        Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05
        yield bg, ScPlusSection(section=lambda x, A=A, Q=Q: A @ x + Q @ (x * x), levels=bg.W.levels), 0
    for _ in range(4):
        bg = make_linear_basic_germ(rng, n=2, N=1, wdim=2, scale=0.08)
        Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05
        Q[1:, 2:] = 0.0     # no w^2 term in the W rows: B_hat stays a contraction

        def s_map(x, Q=Q):
            return np.array([0.0, -x[2], 0.0]) + Q @ (x * x)

        yield bg, ScPlusSection(section=s_map, levels=bg.W.levels), 1
    yield base_germ_for_stability(), ScPlusSection(section=lambda x: np.array([-x[1]]), levels=2), 1


def test_the_folded_normal_form_map_matches_the_branchy_one():
    rng = np.random.default_rng(32)
    for bg, s, kernel_dim in normal_form_cases():
        out, rep = perturb_normal_form(bg, s)
        oracle, d = branchy_normal_form_map(bg, s)
        assert rep.kernel_dim == d == kernel_dim
        for y in rng.uniform(-0.3, 0.3, size=(20, out.domain_dim)):
            got, want = out.g(y), oracle(y)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # the normal form has g(0) = 0; shifting g checks that B subtracts g(0)
        shifted = replace(bg, g=lambda x, g=bg.g: g(x) + np.arange(1.0, bg.target_dim + 1.0))
        for germ in (out, shifted):
            for y in rng.uniform(-0.3, 0.3, size=(5, germ.domain_dim)):
                v, w = y[:germ.n], y[germ.n:]
                inner = w - germ.project_W(germ.evaluate(y) - germ.value_at_zero())
                assert np.array_equal(germ.inner.evaluate(v, w), inner)


def test_index_from_linearization_does_not_depend_on_the_rank():
    # (n - r) - (m - r) = n - m for every rank r, the zero matrix included
    rng = np.random.default_rng(30)
    for m, n in ((2, 5), (4, 1), (3, 3), (0, 2), (2, 0)):
        for r in range(min(m, n) + 1):
            J = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            assert index_from_linearization(J) == n - m
