"""Property tests of the good-position sampler on random lines and polygon
cones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.cones import (
    SubspaceInQuadrant,
    _first_counterexample,
    _interior_point,
    _orthogonal_complement,
    _pair_chunks,
)
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
