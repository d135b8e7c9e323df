import numpy as np
import pytest

from germforge import registry
from germforge.cones import (
    SAMPLE_CHUNK,
    SubspaceInQuadrant,
    _interior_point,
    _orthogonal_complement,
    _pair_chunks,
    check_position_pair,
    cone_lineality,
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


def antidiagonal_in_square(levels: int = 3) -> SubspaceInQuadrant:
    """span{(1,-1)} inside [0,inf)^2: meets the quadrant only at 0."""
    return SubspaceInQuadrant(ambient=ambient(2, 2, levels), basis=np.array([[1.0], [-1.0]]))


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
    res = is_good_position(antidiagonal_in_square())
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
    qs = quadrant_structure(N)
    assert qs.quadrant_count == 2
    assert sorted(qs.sigma) == [0, 1]
    x = np.array([0.3, 0.7, 0.0, 0.0])
    s = qs.to_standard @ x
    assert np.allclose(qs.from_standard @ s, x, atol=1e-12)


def test_quadrant_structure_with_a_w_part():
    # N = R^3 with x_0, x_1 >= 0: N ∩ W is the x_2-axis, and its complement
    # in N meets the quadrant in the rays e_0 and e_1
    N = SubspaceInQuadrant(ambient=ambient(3, 2), basis=np.eye(3))
    qs = quadrant_structure(N)
    assert qs.quadrant_count == 2
    assert sorted(qs.sigma) == [0, 1]
    x = np.array([0.3, 0.7, -0.4])
    assert np.max(np.abs(qs.from_standard @ (qs.to_standard @ x) - x)) <= 1e-12


def test_quadrant_structure_second_case_diagonal():
    qs = quadrant_structure(registry.diagonal_in_square())
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
    qs = quadrant_structure(sub)
    assert len(qs.sigma) == sub.dim == qs.quadrant_count


def test_quadrant_structure_round_trip_and_membership():
    rng = np.random.default_rng(11)
    for sub in (registry.diag_plane_subspace(), registry.diagonal_in_square()):
        qs = quadrant_structure(sub)
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
    plane = registry.diag_plane_subspace()
    assert cone_lineality(plane).shape[1] == 0
    assert len(extreme_rays(plane)) == 2

    amb = ambient(3, 1)
    line = SubspaceInQuadrant(ambient=amb, basis=np.eye(3)[:, 1:])
    assert cone_lineality(line).shape[1] == 2
    with pytest.raises(NotPointed) as info:
        extreme_rays(line)
    assert info.value.lineality_basis.shape[1] == 2


def test_basis_validation():
    amb = ambient(2, 1)
    with pytest.raises(ValueError):
        SubspaceInQuadrant(ambient=amb, basis=np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        SubspaceInQuadrant(ambient=amb, basis=np.array([[np.inf], [0.0]]))


# ---------------------------------------------------------------------------
# The good-position sampler's draw plan and what it certifies.


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


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
    constraint row vanishes, so a band trial that picks that facet has no
    band shift to make."""
    return SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[1.0], [0.0]]))


def test_one_chunk_makes_the_same_draws_whatever_the_data():
    # every band trial of zero_row_line picks its zero row and makes no band
    # shift; every band trial of the generic line makes one
    generic = SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[0.6], [0.8]]))
    states = []
    for N in (zero_row_line(), generic):
        rng = philox(4)
        next(_pair_chunks(N, _orthogonal_complement(N), 1.0, SAMPLE_CHUNK, rng, _interior_point(N)))
        states.append(rng.bit_generator.state)
    np.testing.assert_equal(states[0], states[1])
    assert not np.array_equal(states[0]["state"]["counter"], philox(4).bit_generator.state["state"]["counter"])


def test_check_position_pair_separates_a_good_and_a_bad_complement():
    # span(1, 1) in [0,inf)^2: n + m stays in C for m along (1, -1) with
    # ||m|| <= ||n||, but m along (1, 0) pushes n out of C
    sub = registry.diagonal_in_square()
    for seed in range(4):
        assert check_position_pair(sub, np.array([[1.0], [-1.0]]), 1.0, seed=seed) is None
        n, m = check_position_pair(sub, np.array([[1.0], [0.0]]), 1.0, seed=seed)
        assert sub.ambient.contains_quadrant_point(n) != sub.ambient.contains_quadrant_point(n + m)
        assert m[1] == 0.0 and np.sum(np.abs(m)) <= np.sum(np.abs(n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_benchmark_lines_are_certified_in_good_position(seed):
    # the benchmark's `certify` workload samples 500 pairs per batch
    for N in certify_lines(seed):
        assert is_good_position(N, grid=500).ok


BAD_COMPLEMENTS = {
    "wrong-ambient-dim": np.ones((3, 1)),
    "no-columns": np.zeros((2, 0)),
    "not-finite": np.array([[1.0], [np.nan]]),
    "inside-N": np.array([[1.0], [1.0]]),
}


@pytest.mark.parametrize("case", sorted(BAD_COMPLEMENTS))
def test_a_bad_complement_raises(case):
    sub, comp = registry.diagonal_in_square(), BAD_COMPLEMENTS[case]
    with pytest.raises(ValueError):
        check_position_pair(sub, comp, 1.0)
    with pytest.raises(ValueError):
        is_good_position(sub, complement_candidates=[comp])


def test_certificates_leave_scipy_unloaded():
    # the LP and NNLS solves of the cone certificates are numpy code: a fresh
    # interpreter runs every certificate on the registry cones without scipy
    import os
    import subprocess
    import sys
    from pathlib import Path

    import germforge

    env = dict(os.environ, PYTHONPATH=str(Path(germforge.__file__).resolve().parents[1]))
    code = "\n".join([
        "import sys",
        "from germforge import cones, registry",
        "for name in ('diag-plane', 'diagonal-in-square', 'ice-cream'):",
        "    sub = registry.build(name)",
        "    try:",
        "        cones.is_good_position(sub, grid=200)",
        "    except cones.Inconclusive:",
        "        pass",
        "    rays = cones.extreme_rays(sub)",
        "    cones.is_quadrant(sub)",
        "    assert cones.cone_membership_residual(sum(rays), rays) <= 1e-8",
        "sys.exit(int('scipy' in sys.modules))",
    ])
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
