"""Property tests of the good-position sampler on random lines and polygon
cones, and of `extreme_rays` against an NNLS extremality filter on seeded
polygon and Gaussian cones."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import registry
from germforge._linalg import svd_split
from germforge.cones import (
    FEAS_TOL,
    SubspaceInQuadrant,
    _first_counterexample,
    _interior_point,
    _orthogonal_complement,
    _pair_chunks,
    cone_lineality,
    extreme_rays,
    nnls,
)
from germforge.errors import NotPointed
from germforge.spaces import GradedSpace

SAMPLER_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def quadrant_space(dim):
    return GradedSpace(dim=dim, levels=3, weights=np.ones(dim), quadrant_rank=dim)


@st.composite
def lines(draw):
    """A line in R^n (n = 2..4) with every coordinate constrained; its
    direction may leave the open orthant."""
    n = draw(st.integers(2, 4))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 0.05), min_size=n, max_size=n)))
    return SubspaceInQuadrant(ambient=quadrant_space(n), basis=v.reshape(-1, 1))


@st.composite
def polygon_cones(draw):
    """{G y : y in R^3} in R^k with row i of G equal to (-cos a_i, -sin a_i, 1)."""
    k = draw(st.integers(4, 6))
    jitter = np.array(draw(st.lists(st.floats(-0.25, 0.25), min_size=k, max_size=k)))
    angles = np.sort(2 * np.pi * (np.arange(k) + jitter) / k)
    G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(k)])
    return SubspaceInQuadrant(ambient=quadrant_space(k), basis=G)


@st.composite
def sampler_inputs(draw):
    N = draw(st.one_of(lines(), polygon_cones()))
    dim, d = N.ambient.dim, N.dim
    if draw(st.booleans()):
        comp = _orthogonal_complement(N)
    else:
        # a random complement: good position fails for most of them
        rows = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * (dim - d), max_size=dim * (dim - d)))
        comp = np.array(rows).reshape(dim, dim - d)
        if np.linalg.matrix_rank(np.hstack([N.basis, comp]), tol=1e-6) < dim:
            comp = _orthogonal_complement(N)
    c = 2.0 ** -draw(st.integers(0, 6))
    return N, comp, c, draw(st.integers(1, 200)), draw(st.integers(0, 2**32 - 1))


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@SAMPLER_SETTINGS
@given(sampler_inputs())
def test_pairs_have_m_in_the_complement_and_no_larger_than_c_n(args):
    N, comp, c, grid, seed = args
    proj = comp @ np.linalg.pinv(comp)
    level0 = N.ambient.level_norm
    for nvecs, mvecs in _pair_chunks(N, comp, c, grid, philox(seed), _interior_point(N)):
        assert np.all(level0(mvecs, 0) <= c * level0(nvecs, 0) * (1.0 + 1e-12))
        off = mvecs - mvecs @ proj.T
        assert np.all(np.abs(off) <= 1e-9 * (1.0 + np.abs(mvecs).max(initial=0.0)))


@SAMPLER_SETTINGS
@given(sampler_inputs())
def test_a_batch_of_g_trials_is_a_prefix_of_a_batch_of_2g(args):
    N, comp, c, grid, seed = args
    interior = _interior_point(N)
    first = _first_counterexample(N, comp, c, grid, philox(seed), interior)
    if first is not None:
        again = _first_counterexample(N, comp, c, 2 * grid, philox(seed), interior)
        assert again is not None
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


# --- extreme rays ----------------------------------------------------------

def nnls_filtered_extreme_rays(N):
    """`extreme_rays` with an extremality filter after the enumeration: a
    candidate that is a nonnegative combination of the others (NNLS
    residual at most FEAS_TOL) is dropped."""
    d = N.dim
    if d == 0:
        return []
    lin = cone_lineality(N)
    if lin.shape[1] > 0:
        raise NotPointed("cone contains a line", lineality_basis=N.basis @ lin)
    G = N.constraint_matrix()
    candidates = []
    for subset in itertools.combinations(range(G.shape[0]), d - 1):
        _, ker, _, _ = svd_split(G[list(subset), :])
        if ker.shape[1] != 1:
            continue
        for sgn in (1.0, -1.0):
            cand = sgn * ker[:, 0]
            if np.all(G @ cand >= -FEAS_TOL * max(1.0, float(np.max(np.abs(G @ cand))))):
                candidates.append(cand)
                break
    uniq = []
    for y in candidates:
        y = y / np.linalg.norm(y)
        if not any(np.linalg.norm(y - u) < 1e-8 for u in uniq):
            uniq.append(y)
    rays = []
    for i, y in enumerate(uniq):
        others = [u for j, u in enumerate(uniq) if j != i]
        if others and nnls(np.column_stack(others), y)[1] <= FEAS_TOL:
            continue
        rays.append(y)
    ambient_rays = [N.basis @ y / np.linalg.norm(N.basis @ y) for y in rays]
    if not ambient_rays:
        return []
    order = np.lexsort(np.round(np.column_stack(ambient_rays), 10)[::-1])
    return [ambient_rays[i] for i in order]


def seeded_cones():
    """2,000 polygon cones in R^3 with k = 3..8 facets, half with the
    `certify` workload's jittered angles and half with uniform ones (which
    leave some facets redundant), and 500 Gaussian cones with dim N = 2..4,
    1..dim N + 4 constrained rows and up to two W rows (fewer rows than
    dim N leave a line in the cone)."""
    rng = np.random.default_rng(30)
    out = []
    for i in range(2000):
        k = 3 + i % 6
        if i % 2:
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=k))
        else:
            angles = np.sort(2 * np.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, size=k)) / k)
        G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(k)])
        out.append(SubspaceInQuadrant(ambient=quadrant_space(k), basis=G))
    for _ in range(500):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d + 5))
        w = max(d - n, 0) + int(rng.integers(0, 2))
        ambient = GradedSpace(dim=n + w, levels=3, weights=np.ones(n + w), quadrant_rank=n)
        out.append(SubspaceInQuadrant(ambient=ambient, basis=rng.normal(size=(n + w, d))))
    return out


def rays_or_error(N):
    try:
        return extreme_rays(N)
    except NotPointed as exc:
        return exc


def filtered_rays_or_error(N):
    try:
        return nnls_filtered_extreme_rays(N)
    except NotPointed as exc:
        return exc


def test_extreme_rays_need_no_nnls_filter():
    # a feasible y whose active rows have rank dim N - 1 spans an extreme ray
    # of a pointed cone, so the filter never drops a ray: the same rays bit
    # for bit, or the same NotPointed
    cones = [registry.diag_plane_subspace(), registry.diagonal_in_square(), registry.circular_cone_subspace()]
    cones += seeded_cones()
    not_pointed = some_rays = 0
    for N in cones:
        got, want = rays_or_error(N), filtered_rays_or_error(N)
        if isinstance(want, NotPointed):
            assert isinstance(got, NotPointed) and str(got) == str(want)
            assert got.lineality_basis.tobytes() == want.lineality_basis.tobytes()
            not_pointed += 1
            continue
        assert len(got) == len(want)
        assert all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))
        some_rays += bool(got)
    assert not_pointed >= 50 and some_rays >= 2000      # both outcomes are exercised


def test_extreme_rays_calls_no_nnls(monkeypatch):
    from germforge import cones

    monkeypatch.setattr(cones, "nnls", lambda A, b: pytest.fail("extreme_rays called nnls"))
    assert len(cones.extreme_rays(registry.circular_cone_subspace())) > 0
