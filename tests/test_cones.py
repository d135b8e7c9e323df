import numpy as np
import pytest

from germforge import cones, registry
from germforge.cones import (
    SubspaceInQuadrant,
    _coordinate_complements,
    _interior_point,
    _orthogonal_complement,
    _PairSampler,
    check_position_pair,
    cone_membership_residual,
    extreme_rays,
    is_good_position,
    is_neat,
    is_quadrant,
    quadrant_structure,
    sigma_set,
)
from germforge.errors import Inconclusive, NotPointed
from germforge.spaces import GradedSpace


def ambient(dim, rank, levels=2):
    return GradedSpace(dim=dim, levels=levels, weights=np.ones(dim), quadrant_rank=rank)


def test_neat_full_parameter_block():
    # N = R^n + {0}: complement is the fiber block
    amb = ambient(4, 2)
    N = SubspaceInQuadrant(ambient=amb, basis=np.eye(4)[:, :2])
    res = is_neat(N)
    assert res.neat
    assert np.allclose(res.complement[:2, :], 0.0)
    assert res.complement.shape == (4, 2)


def test_not_neat_when_projection_deficient():
    amb = ambient(2, 2)
    N = SubspaceInQuadrant(ambient=amb, basis=np.array([[1.0], [1.0]]))
    assert not is_neat(N).neat


def test_neat_decided_by_projection_rank():
    amb = ambient(3, 2)
    N = SubspaceInQuadrant(ambient=amb, basis=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    res = is_neat(N)
    assert res.neat
    # complement is {0}^2 + W = third axis
    assert np.allclose(np.abs(res.complement[:, 0]), [0.0, 0.0, 1.0])


def test_neat_implies_good_position_with_c_one():
    for sub in registry.neat_instances():
        res = is_good_position(sub)
        assert res.ok and res.neat and res.c == 1.0
        assert check_position_pair(sub, res.complement, 1.0, grid=10_000, seed=3) is None


def test_diagonal_good_position_with_supplied_complement():
    sub = registry.diagonal_in_square()
    res = is_good_position(sub, complement_candidates=[np.array([[1.0], [-1.0]])])
    assert res.ok and res.c == 1.0


def test_empty_interior_is_not_good_position():
    res = is_good_position(registry.antidiagonal_in_square())
    assert not res.ok


def test_ice_cream_good_position_inconclusive():
    with pytest.raises(Inconclusive):
        is_good_position(registry.circular_cone_subspace(), seed=0)


def test_extreme_rays_standard_quadrant():
    amb = ambient(2, 2)
    N = SubspaceInQuadrant(ambient=amb, basis=np.eye(2))
    rays = extreme_rays(N)
    assert len(rays) == 2
    assert np.allclose(sorted(np.argmax(r) for r in rays), [0, 1])


def test_extreme_rays_diagonal():
    rays = extreme_rays(registry.diagonal_in_square())
    assert len(rays) == 1
    assert np.allclose(rays[0], np.array([1.0, 1.0]) / np.sqrt(2))


def test_extreme_rays_diag_plane():
    rays = extreme_rays(registry.diag_plane_subspace())
    assert len(rays) == 2
    want = {tuple(np.round(np.array([1.0, 0.0, 1.0]) / np.sqrt(2), 8)),
            tuple(np.round(np.array([0.0, 1.0, 1.0]) / np.sqrt(2), 8))}
    got = {tuple(np.round(r, 8)) for r in rays}
    assert got == want


def test_extreme_rays_not_pointed():
    amb = ambient(3, 1)
    N = SubspaceInQuadrant(ambient=amb, basis=np.eye(3)[:, 1:])  # inside W: a full line
    with pytest.raises(NotPointed) as exc:
        extreme_rays(N)
    assert exc.value.lineality_basis is not None


def test_krein_milman_reconstruction():
    rng = np.random.default_rng(8)
    for sub in (registry.diag_plane_subspace(), registry.diagonal_in_square(),
                registry.circular_cone_subspace()):
        rays = extreme_rays(sub)
        for _ in range(1000):
            lam = np.abs(rng.normal(size=len(rays)))
            p = sum(l * r for l, r in zip(lam, rays))
            assert cone_membership_residual(p, rays) <= 1e-8


def test_extremality_filter():
    # a non-extreme direction inside the quadrant is not among the rays
    rays = extreme_rays(registry.diag_plane_subspace())
    mid = sum(rays)
    mid /= np.linalg.norm(mid)
    assert cone_membership_residual(mid, rays) <= 1e-10
    assert all(np.linalg.norm(mid - r) > 1e-3 for r in rays)


def test_is_quadrant_standard_and_images():
    amb = ambient(3, 3)
    std = SubspaceInQuadrant(ambient=amb, basis=np.eye(3))
    assert is_quadrant(std).is_quadrant
    rng = np.random.default_rng(9)
    for _ in range(20):
        T = rng.normal(size=(3, 3))
        while abs(np.linalg.det(T)) < 0.1:
            T = rng.normal(size=(3, 3))
        sub = SubspaceInQuadrant(ambient=amb, basis=np.linalg.inv(T))
        res = is_quadrant(sub)
        assert res.is_quadrant
        # the returned isomorphism sends the rays to the standard basis
        R = np.column_stack(res.rays)
        img = res.iso_to_standard @ R
        assert np.allclose(img, np.diag(np.diag(img)), atol=1e-8)
        assert np.all(np.diag(img) > 0)


def test_ice_cream_cone_is_not_a_quadrant():
    res = is_quadrant(registry.circular_cone_subspace())
    assert not res.is_quadrant
    assert len(res.rays) == 8


def test_quadrant_recognition_invariant_under_carrier_maps():
    # permutation and positive-diagonal maps preserve the quadrant
    amb = ambient(3, 3)
    rng = np.random.default_rng(10)
    base = registry.diag_plane_subspace()
    assert is_quadrant(base).is_quadrant
    for _ in range(10):
        perm = np.eye(3)[rng.permutation(3)]
        diag = np.diag(rng.uniform(0.5, 2.0, size=3))
        T = perm @ diag
        sub = SubspaceInQuadrant(ambient=amb, basis=T @ base.basis)
        assert is_quadrant(sub).is_quadrant


def test_sigma_set_examples():
    assert sigma_set(np.array([0.0, 2.0, 0.0, 7.0]), 3) == frozenset({0, 2})
    assert sigma_set(np.array([1.0, 2.0, 3.0]), 3) == frozenset()


def test_sigma_counts_on_good_position_rays():
    for sub in (registry.diag_plane_subspace(), registry.diagonal_in_square()):
        for ray in extreme_rays(sub):
            assert len(sigma_set(ray, sub.n, tol=1e-8)) == sub.dim - 1


def test_quadrant_structure_full_parameter_block():
    amb = ambient(4, 2)
    N = SubspaceInQuadrant(ambient=amb, basis=np.eye(4)[:, :2])
    qs = quadrant_structure(N, certified=True)
    assert qs.quadrant_count == 2
    assert sorted(qs.sigma) == [0, 1]
    x = np.array([0.3, 0.7, 0.0, 0.0])
    s = qs.to_standard @ x
    assert np.allclose(qs.from_standard @ s, x, atol=1e-12)


def test_quadrant_structure_second_case_diagonal():
    qs = quadrant_structure(registry.diagonal_in_square(), certified=True)
    assert qs.sigma == frozenset()
    assert qs.quadrant_count == 1
    # (N, C ∩ N) ~ (R, R+): positive multiples of (1,1) map to t >= 0
    x = 0.7 * np.array([1.0, 1.0])
    s = qs.to_standard @ x
    assert s[0] > 0
    assert np.allclose(qs.from_standard @ s, x, atol=1e-12)
    y = -0.2 * np.array([1.0, 1.0])
    assert (qs.to_standard @ y)[0] < 0


def test_quadrant_structure_diag_plane_full_quadrant():
    sub = registry.diag_plane_subspace()
    qs = quadrant_structure(sub, certified=True)
    assert len(qs.sigma) == sub.dim == qs.quadrant_count


def test_quadrant_structure_round_trip_and_membership():
    rng = np.random.default_rng(11)
    for sub in (registry.diag_plane_subspace(), registry.diagonal_in_square()):
        qs = quadrant_structure(sub, certified=True)
        for _ in range(500):
            lam = np.abs(rng.normal(size=len(qs.rays)))
            x = sum(l * r for l, r in zip(lam, qs.rays))
            s = qs.to_standard @ x
            assert np.all(s[: qs.quadrant_count] >= -1e-9)
            assert np.max(np.abs(qs.from_standard @ s - x)) <= 1e-10
        # standard-quadrant samples map back into the cone
        d = sub.dim
        for _ in range(200):
            s = rng.normal(size=d)
            s[: qs.quadrant_count] = np.abs(s[: qs.quadrant_count])
            x = qs.from_standard @ s
            assert sub.ambient.contains_quadrant_point(x, 1e-8)
            assert np.max(np.abs(qs.to_standard @ x - s)) <= 1e-8


def test_quadrant_with_redundant_facets():
    # a 4-dim simplicial cone in [0,inf)^6 with two redundant constraints:
    # enumeration must still find exactly 4 independent rays
    rng = np.random.default_rng(3)
    A = np.eye(4) + 0.2 * rng.random((4, 4))
    extra = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.5, 1.0]]) @ A
    G = np.vstack([A, extra])
    amb = ambient(6, 6)
    sub = SubspaceInQuadrant(ambient=amb, basis=G)
    rays = extreme_rays(sub)
    assert len(rays) == 4
    assert is_quadrant(sub).is_quadrant


def test_polyhedral_cone_packaging():
    from germforge.cones import polyhedral_cone

    pc = polyhedral_cone(registry.diag_plane_subspace())
    assert pc.pointed and len(pc.rays) == 2 and pc.lineality_basis is None

    amb = ambient(3, 1)
    line = SubspaceInQuadrant(ambient=amb, basis=np.eye(3)[:, 1:])
    pc2 = polyhedral_cone(line)
    assert not pc2.pointed
    assert pc2.lineality_basis.shape[1] == 2


def test_basis_validation():
    amb = ambient(2, 1)
    with pytest.raises(ValueError):
        SubspaceInQuadrant(ambient=amb, basis=np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        SubspaceInQuadrant(ambient=amb, basis=np.array([[np.inf], [0.0]]))


# ---------------------------------------------------------------------------
# Reference oracle: the one-pair-at-a-time good-position sampler that the
# chunked `_PairSampler` replaced.  The chunked sampler must make the
# same Generator calls in the same order, with the same arithmetic on each
# trial, so it yields the same pairs bit for bit.


def reference_good_position_samples(N, comp, c, grid, rng, tol, interior=None):
    """Yield (n, m) test pairs one trial at a time."""
    n_rank = N.n
    G = N.constraint_matrix()
    y_int = None
    if interior is not None:
        nrm = float(np.linalg.norm(interior))
        if nrm > 1e-12:
            y_int = interior / nrm
    if comp.shape[1]:
        reach = [i for i in range(n_rank) if float(comp[i] @ comp[i]) > 1e-20]
    else:
        reach = []
    for trial in range(grid):
        biased = y_int is not None and trial % 2 == 0
        if biased:
            yn = rng.exponential() * y_int + 0.25 * rng.normal(size=N.dim)
        else:
            yn = rng.normal(size=N.dim)
        nvec = N.basis @ yn
        norm_n = N.ambient.level_norm(nvec, 0)
        if norm_n < 1e-12:
            continue
        i_band = None
        if n_rank and trial % 2 == 0:
            pool = reach if reach else range(n_rank)
            i = min(pool, key=lambda j: abs(nvec[j]))
            row = G[i]
            nr = float(row @ row)
            if nr > 1e-14:
                target = rng.uniform(-2.0, 2.0) * c * norm_n
                yn = yn + row * ((target - nvec[i]) / nr)
                nvec = N.basis @ yn
                norm_n = N.ambient.level_norm(nvec, 0)
                if norm_n < 1e-12:
                    continue
                i_band = i
        ym = rng.normal(size=comp.shape[1]) if comp.shape[1] else np.zeros(0)
        if i_band is not None and i_band in reach:
            ym = rng.choice([-1.0, 1.0]) * comp[i_band] + 0.2 * ym
        mvec = comp @ ym if comp.shape[1] else np.zeros(N.ambient.dim)
        norm_m = N.ambient.level_norm(mvec, 0)
        if norm_m > 1e-12:
            mvec = mvec * ((c * norm_n / norm_m) * rng.uniform(0.0, 1.0))
        head = nvec[:n_rank]
        if n_rank and np.min(np.abs(head)) <= 10 * tol * max(1.0, norm_n):
            continue
        yield nvec, mvec


def reference_first_counterexample(N, comp, c, grid, rng, tol, interior=None):
    for nvec, mvec in reference_good_position_samples(N, comp, c, grid, rng, tol, interior):
        if N.ambient.contains_quadrant_point(nvec, tol) != N.ambient.contains_quadrant_point(nvec + mvec, tol):
            return nvec, mvec
    return None


def certify_lines(seed=0, count=24):
    """The lines through the open orthant of the benchmark's `certify` ops:
    op i draws its dimension and direction first from stream (seed, tag, i)."""
    tag = sum(ord(ch) * 31**k for k, ch in enumerate("certify")) % (2**32)
    lines = []
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag, i])))
        n_line = int(rng.integers(2, 4))
        v = rng.uniform(0.3, 1.0, size=n_line)
        lines.append(SubspaceInQuadrant(ambient=ambient(n_line, n_line, levels=3), basis=v.reshape(-1, 1)))
    return lines


def zero_row_line():
    """span(e1) in R^2 with both coordinates constrained: the second
    constraint row vanishes, so whether a band draw happens depends on the
    facet each trial picks."""
    return SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[1.0], [0.0]]))


def oracle_subspaces():
    return certify_lines() + [registry.diagonal_in_square(), registry.diag_plane_subspace(),
                              registry.circular_cone_subspace()]


def candidate_complements(N):
    return _coordinate_complements(N)[:3] + [_orthogonal_complement(N)]


def chunked_pairs(N, comp, c, grid, seed, tol=1e-9):
    rng = np.random.Generator(np.random.Philox(key=seed))
    chunks = list(_PairSampler(N, comp, c, tol, _interior_point(N)).chunks(grid, rng))
    return np.vstack([n for n, _ in chunks]), np.vstack([m for _, m in chunks])


def reference_pairs(N, comp, c, grid, seed, tol=1e-9):
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = list(reference_good_position_samples(N, comp, c, grid, rng, tol, interior=_interior_point(N)))
    dim = N.ambient.dim
    return (np.array([n for n, _ in pairs]).reshape(-1, dim), np.array([m for _, m in pairs]).reshape(-1, dim))


def assert_same_pairs(N, comp, c, grid, seed, tol=1e-9):
    n_new, m_new = chunked_pairs(N, comp, c, grid, seed, tol)
    n_ref, m_ref = reference_pairs(N, comp, c, grid, seed, tol)
    assert n_new.shape == n_ref.shape
    assert np.array_equal(n_new, n_ref) and np.array_equal(m_new, m_ref)


def test_chunked_sampler_reproduces_the_reference_pairs():
    # 100 trials: a full chunk and a partial one
    for k, N in enumerate(oracle_subspaces()):
        for comp in candidate_complements(N):
            for c in (1.0, 2.0**-3):
                assert_same_pairs(N, comp, c, grid=100, seed=k)


def test_chunked_sampler_reproduces_the_reference_on_data_dependent_draws():
    # span(e1) with a zero second constraint row: every band trial picks
    # that facet and so draws no band target (and no pair survives, as n
    # always lies on the hyperplane x2 = 0)
    for comp in (np.array([[1.0], [1.0]]), np.array([[0.0], [1.0]])):
        assert_same_pairs(zero_row_line(), comp, 1.0, grid=300, seed=4)
    # two tiny constraint rows, one below the 1e-7 row-norm cutoff: which
    # facet a band trial picks decides whether it draws a band target
    plane = SubspaceInQuadrant(ambient=ambient(3, 2), basis=np.array([[9e-8, 0.0], [0.0, 1.1e-7], [1.0, 1.0]]))
    assert_same_pairs(plane, np.array([[1.0], [1.0], [1.0]]), 1.0, grid=300, seed=4)
    # a basis near the independence threshold: some n fall below 1e-12 and
    # their trials stop early; a complement of size 1e-12 leaves some m
    # unscaled (no last draw)
    tiny = SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[1e-10], [0.5e-10]]))
    for comp in (np.array([[1.0], [-1.0]]), np.array([[1e-12], [-1e-12]])):
        assert_same_pairs(tiny, comp, 1.0, grid=2000, seed=5, tol=1e-20)
    # a small c pushes some band-shifted n below 1e-12 (their trials stop)
    small = SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[1.1e-7], [1.2e-7]]))
    assert_same_pairs(small, np.array([[1.0], [-1.0]]), 1e-5, grid=300, seed=6, tol=1e-20)


def test_check_position_pair_matches_the_reference(monkeypatch):
    cases = [(zero_row_line(), np.array([[1.0], [1.0]]), 1.0),
             (zero_row_line(), np.array([[0.0], [1.0]]), 0.5),
             (registry.diagonal_in_square(), np.array([[1.0], [-1.0]]), 1.0),
             (registry.diagonal_in_square(), np.array([[1.0], [0.0]]), 1.0)]
    cases += [(N, candidate_complements(N)[0], 0.5) for N in certify_lines(count=6)]
    got = [check_position_pair(N, comp, c, grid=400, seed=2) for N, comp, c in cases]
    monkeypatch.setattr(cones, "_first_counterexample", reference_first_counterexample)
    want = [check_position_pair(N, comp, c, grid=400, seed=2) for N, comp, c in cases]
    assert [g is None for g in got] == [w is None for w in want]
    assert any(g is not None for g in got) and any(g is None for g in got)
    for g, w in zip(got, want):
        if g is not None:
            assert np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])


def good_position_outcome(N, grid):
    try:
        res = is_good_position(N, grid=grid)
    except Inconclusive:
        return "inconclusive"
    return res.ok, res.c, None if res.complement is None else res.complement.tolist()


def test_is_good_position_matches_the_reference(monkeypatch):
    # the certify lines at the benchmark's 500 pairs per batch; the registry
    # subspaces at 100
    cases = [(N, 500) for N in certify_lines()] + [
        (registry.diagonal_in_square(), 100), (registry.diag_plane_subspace(), 100),
        (registry.circular_cone_subspace(), 100)]
    got = [good_position_outcome(N, grid) for N, grid in cases]
    monkeypatch.setattr(cones, "_first_counterexample", reference_first_counterexample)
    want = [good_position_outcome(N, grid) for N, grid in cases]
    assert got == want


def test_import_leaves_scipy_optimize_unloaded():
    # cones imports scipy.optimize on its first LP or NNLS solve, not at import
    import os
    import subprocess
    import sys
    from pathlib import Path

    import germforge

    env = dict(os.environ, PYTHONPATH=str(Path(germforge.__file__).resolve().parents[1]))
    code = "import sys, germforge; sys.exit(int('scipy.optimize' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
