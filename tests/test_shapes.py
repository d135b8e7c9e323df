"""Empty and one-column shapes run the general linear algebra.

An empty kernel, a subspace inside W, a cone without lineality or a 1-D
cone is an ordinary input: the code that handles every other shape handles
it too, with no branch of its own.  Each test below writes the special case
that code once had into the test as its oracle and requires the general
path to return the same bits (`tobytes()` and shape, or exact equality).
The one behaviour that moved is pinned last: a 1-D cone's rays take the
relative feasibility rule of every other dimension.
"""

import warnings

import numpy as np
import pytest

from germforge import registry
from germforge.degree import _spread
from germforge._linalg import orthonormal_columns, subspace_intersection, svd_split
from germforge.cones import (
    FEAS_TOL,
    SubspaceInQuadrant,
    cone_lineality,
    extreme_rays,
    is_neat,
    nnls,
    quadrant_structure,
    sigma_set,
)
from germforge.orientation import (
    SUSPECT_SV_REL,
    _transport_frames,
    build_transport,
    common_projection,
    continue_orientation,
    determinant_line,
    stabilize,
)
from germforge.spaces import GradedSpace, default_weights
from germforge.splicing import degeneracy_index


def ambient(dim, rank):
    return GradedSpace(dim=dim, levels=2, weights=np.ones(dim), quadrant_rank=rank)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- _linalg ---------------------------------------------------------------

def special_orthonormal_columns(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] == 0:
        return A.copy()
    return orthonormal_columns(A)


def special_subspace_intersection(A, B):
    A = special_orthonormal_columns(A)
    B = special_orthonormal_columns(B)
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    _, kernel, _, _ = svd_split(np.hstack([A, -B]))
    if kernel.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    return orthonormal_columns(A @ kernel[: A.shape[1], :])


@pytest.mark.parametrize("n", [0, 1, 3])
def test_orthonormal_columns_of_no_columns_is_the_empty_basis(n):
    A = np.zeros((n, 0))
    assert same_bits(orthonormal_columns(A), special_orthonormal_columns(A))


@pytest.mark.parametrize("k", range(9))
def test_orthonormal_columns_of_the_identity_is_the_identity(k):
    # the complements of an empty lineality or kernel lean on this
    assert same_bits(orthonormal_columns(np.eye(k)), np.eye(k))


E3 = np.eye(3)


@pytest.mark.parametrize("A, B", [
    (np.zeros((3, 0)), E3[:, :1]),          # empty A
    (E3[:, :1], np.zeros((3, 0))),          # empty B
    (np.zeros((3, 0)), np.zeros((3, 0))),   # both
    (E3[:, :1], E3[:, 1:2]),                # transversal lines: [A, -B] has no kernel
    (E3[:, :2], E3[:, 1:]),                 # two planes meeting in a line
], ids=["empty-A", "empty-B", "both-empty", "transversal", "planes"])
def test_subspace_intersection_needs_no_early_return(A, B):
    assert same_bits(subspace_intersection(A, B), special_subspace_intersection(A, B))


# --- cones -----------------------------------------------------------------

def special_neat_complement(N):
    n, dim = N.n, N.ambient.dim
    K_w = orthonormal_columns((N.basis @ cone_lineality(N))[n:, :])
    full = np.eye(dim - n)
    if K_w.shape[1]:
        Q = orthonormal_columns(full - K_w @ K_w.T)
    else:
        Q = full
    comp = np.zeros((dim, Q.shape[1]))
    comp[n:, :] = Q
    return comp


NEAT = {
    "lineality-in-w": SubspaceInQuadrant(ambient=ambient(3, 1), basis=E3[:, [0, 2]]),   # span(e1, e3)
    **{f"registry-{i}": sub for i, sub in enumerate(registry.neat_instances())},
}


@pytest.mark.parametrize("name", NEAT)
def test_is_neat_complement_with_and_without_a_lineality(name):
    res = is_neat(NEAT[name])
    assert res.neat
    assert same_bits(res.complement, special_neat_complement(NEAT[name]))


@pytest.mark.parametrize("basis", [E3[:, :2], np.zeros((3, 0)), E3], ids=["plane", "zero", "all"])
def test_cone_lineality_at_quadrant_rank_0_is_all_of_n(basis):
    N = SubspaceInQuadrant(ambient=ambient(3, 0), basis=basis)
    assert same_bits(cone_lineality(N), np.eye(N.dim))


def special_extreme_rays_1d(N):
    """The rays of a pointed 1-D cone C ∩ N by the absolute rule G y >= -FEAS_TOL."""
    G = N.constraint_matrix()
    candidates = [y for y in (np.array([1.0]), np.array([-1.0])) if np.all(G @ y >= -FEAS_TOL)]
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


def certify_line(seed):
    """A line through the open orthant, drawn as the `certify` workload draws it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    v = rng.uniform(0.3, 1.0, size=n)
    return SubspaceInQuadrant(ambient=ambient(n, n), basis=v.reshape(-1, 1))


ONE_D = {
    "diagonal-in-square": registry.diagonal_in_square(),
    "registry-neat-line": registry.neat_instances()[2],
    "negative-line": SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[-1.0], [-2.0]])),
    "empty-interior": SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[1.0], [-1.0]])),
    **{f"certify-{seed}": certify_line(seed) for seed in range(8)},
}


@pytest.mark.parametrize("name", ONE_D)
def test_extreme_rays_of_a_1d_cone_are_the_general_paths(name):
    got, want = extreme_rays(ONE_D[name]), special_extreme_rays_1d(ONE_D[name])
    assert len(got) == len(want)
    assert all(same_bits(r, s) for r, s in zip(got, want))


def test_a_1d_cone_takes_the_relative_feasibility_rule():
    # G y = (5, -2e-8) misses the absolute rule G y >= -1e-8 but meets the
    # relative one, G y >= -1e-8 max(1, max |G y|) = -5e-8, of every other
    # dimension: one ray, where the absolute rule found none
    N = SubspaceInQuadrant(ambient=ambient(2, 2), basis=np.array([[5.0], [-2e-8]]))
    assert special_extreme_rays_1d(N) == []
    (ray,) = extreme_rays(N)
    assert same_bits(ray, N.basis[:, 0] / np.linalg.norm(N.basis[:, 0]))


def special_quadrant_structure(N):
    """(sigma, quadrant count, Ntilde, to_standard, from_standard, rays) with
    separate branches for a lineality, an empty Ntilde and an empty W-part."""
    n, dim, d = N.n, N.ambient.dim, N.dim
    NW_coeff = cone_lineality(N)
    if NW_coeff.shape[1]:
        Nt_coeff = orthonormal_columns(np.eye(d) - NW_coeff @ NW_coeff.T)
    else:
        Nt_coeff = np.eye(d)
    ntilde = N.basis @ Nt_coeff
    nw = N.basis @ NW_coeff
    if Nt_coeff.shape[1]:
        rays = extreme_rays(SubspaceInQuadrant(ambient=N.ambient, basis=ntilde))
    else:
        rays = []
    sigma = frozenset().union(*(sigma_set(r, n, tol=1e-8) for r in rays)) if rays else frozenset()
    dt = ntilde.shape[1]
    if dt == 0:
        to_std = np.linalg.pinv(nw) if nw.shape[1] else np.zeros((0, dim))
        return sigma, 0, ntilde, to_std, nw, rays
    if len(sigma) == dt:
        P_sigma = np.zeros((dt, dim))
        for row, i in enumerate(sorted(sigma)):
            P_sigma[row, i] = 1.0
        M_inv = np.linalg.inv(P_sigma @ ntilde)
        from_std = np.hstack([ntilde @ M_inv, nw]) if nw.shape[1] else ntilde @ M_inv
        if nw.shape[1]:
            to_std = np.vstack([P_sigma, np.linalg.pinv(np.hstack([ntilde, nw]))[dt:, :]])
        else:
            to_std = P_sigma
        return sigma, dt, ntilde, to_std, from_std, rays
    assert dt == 1 and len(rays) == 1
    a = rays[0].reshape(-1, 1)
    from_std = np.hstack([a, nw]) if nw.shape[1] else a
    return sigma, 1, ntilde, np.linalg.pinv(from_std), from_std, rays


STRUCTURES = {
    "inside-w": SubspaceInQuadrant(ambient=ambient(3, 1), basis=E3[:, 1:]),           # span(e2, e3), dt = 0
    "rank-0": SubspaceInQuadrant(ambient=ambient(2, 0), basis=np.eye(2)),             # dt = 0, N = W
    "lineality-and-w-part": SubspaceInQuadrant(ambient=ambient(3, 2), basis=E3),
    "span-e1-e3": SubspaceInQuadrant(ambient=ambient(3, 1), basis=E3[:, [0, 2]]),
    "diag-plane": registry.diag_plane_subspace(),                                      # no lineality
    "diagonal-in-square": registry.diagonal_in_square(),                               # second case
    "second-case-with-w-part": SubspaceInQuadrant(
        ambient=ambient(3, 2), basis=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
}


@pytest.mark.parametrize("name", STRUCTURES)
def test_quadrant_structure_needs_no_branch_per_shape(name):
    qs = quadrant_structure(STRUCTURES[name])
    sigma, count, ntilde, to_std, from_std, rays = special_quadrant_structure(STRUCTURES[name])
    assert qs.sigma == sigma and qs.quadrant_count == count and len(qs.rays) == len(rays)
    assert all(same_bits(r, s) for r, s in zip(qs.rays, rays))
    assert same_bits(qs.ntilde_basis, ntilde)
    assert same_bits(qs.to_standard, to_std)
    assert same_bits(qs.from_standard, from_std)


# --- orientation -----------------------------------------------------------

def special_sign_det(M) -> int:
    M = np.atleast_2d(M)
    if M.shape[0] == 0:
        return 1
    return 1 if np.linalg.det(M) > 0 else -1


def special_stabilize(dl, P):
    """(sign, ker PT, (I-P)F) with zero-size stand-ins for an empty ker PT,
    cokernel or (I-P)F."""
    T = dl.operator
    F_dim = T.shape[0]
    _, ker_PT, _, _ = svd_split(P @ T)
    G = orthonormal_columns(np.eye(F_dim) - P)
    ker_T, cok_T = dl.kernel_basis, dl.cokernel_basis
    k, kp = ker_T.shape[1], ker_PT.shape[1]
    if k:
        V = ker_PT @ np.linalg.svd(ker_PT.T @ ker_T)[0][:, k:]
    else:
        V = ker_PT
    M1 = ker_PT.T @ np.hstack([ker_T, V]) if kp else np.zeros((0, 0))
    if cok_T.shape[1]:
        S = G @ np.linalg.pinv(cok_T.T @ G)
    else:
        S = np.zeros((F_dim, 0))
    M2 = G.T @ np.hstack([T @ V, S]) if G.shape[1] else np.zeros((0, 0))
    return dl.sign * special_sign_det(M1) * special_sign_det(M2), ker_PT, G


STABILIZATIONS = {
    # no kernel, no cokernel, P = I: every block is empty
    "isomorphism": (np.array([[2.0, 1.0], [0.0, 1.0]]), np.eye(2)),
    "isomorphism-projected": (np.eye(2), np.diag([1.0, 0.0])),
    # no kernel, a cokernel
    "injective": (E3[:, :2], np.diag([1.0, 1.0, 0.0])),
    # a kernel, no cokernel
    "surjective": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.eye(2)),
    "surjective-projected": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.diag([0.0, 1.0])),
}


@pytest.mark.parametrize("name", STABILIZATIONS)
def test_stabilize_with_an_empty_kernel_or_cokernel(name):
    T, P = STABILIZATIONS[name]
    st = stabilize(determinant_line(T), P)
    sign, ker_PT, G = special_stabilize(determinant_line(T), P)
    assert st.sign == sign
    assert same_bits(st.kernel_basis, ker_PT) and same_bits(st.complement_basis, G)


def special_transport_frames(transport):
    P = transport.projection
    frames = None
    for T in transport.operators:
        _, ker, _, _ = svd_split(P @ T)
        if frames is None or not frames.shape[1]:
            frames = ker
            continue
        Q, R = np.linalg.qr(ker.T @ frames)
        flip = np.sign(np.diag(R))
        flip[flip == 0] = 1.0
        frames = ker @ (Q * flip)
    return frames


def special_continue_orientation(transport, start_sign):
    ops, P = transport.operators, transport.projection
    stab0 = stabilize(determinant_line(ops[0]), P)
    stab1 = stabilize(determinant_line(ops[-1]), P)
    frame = special_transport_frames(transport)
    transport_sign = special_sign_det(stab1.kernel_basis.T @ frame) if frame.shape[1] else 1
    return start_sign * stab0.sign * transport_sign * stab1.sign


def rotation(t):
    return np.array([[np.cos(np.pi * t), -np.sin(np.pi * t)], [np.sin(np.pi * t), np.cos(np.pi * t)]])


PATHS = {
    "empty-kernel": [rotation(t) for t in np.linspace(0.0, 1.0, 17)],
    "empty-cokernel": [np.array([[1.0, 0.0, t], [0.0, 1.0, t * t]]) for t in np.linspace(0.0, 1.0, 9)],
    "spectral-flow": [np.diag([1.0, 2 * t - 1.0]) for t in np.linspace(0.0, 1.0, 17)],
}


@pytest.mark.parametrize("name", PATHS)
@pytest.mark.parametrize("start_sign", [1, -1])
def test_continue_orientation_with_an_empty_kernel_or_cokernel(name, start_sign):
    tr = build_transport(PATHS[name])
    assert same_bits(_transport_frames(tr), special_transport_frames(tr))
    assert continue_orientation(tr, start_sign) == special_continue_orientation(tr, start_sign)


def special_accumulated_projection(ops):
    """I - C C^T for the span C of the operators' near-cokernel pieces, with
    an operator that has no piece left out of the stack."""
    F_dim = ops[0].shape[0]
    svds = [np.linalg.svd(T) for T in ops]
    scale = max(max(sv[0] for _, sv, _ in svds), 1.0)
    pieces = []
    for T, (U, s, _) in zip(ops, svds):
        low = U[:, [i for i in range(min(T.shape)) if s[i] <= SUSPECT_SV_REL * scale]]
        tail = U[:, min(T.shape):]
        if low.size or tail.size:
            pieces.append(np.hstack([low, tail]) if tail.size else low)
    C = orthonormal_columns(np.hstack(pieces)) if pieces else np.zeros((F_dim, 0))
    return np.eye(F_dim) - C @ C.T


@pytest.mark.parametrize("ops", [
    # only the operator at t = 1/2 has a piece (e2)
    [np.diag([1.0, 2 * t - 1.0]) for t in np.linspace(0.0, 1.0, 17)],
    # every operator has a tail (e3), the one at t = 1/2 a low direction too
    [np.array([[1.0, 0.0], [0.0, 2 * t - 1.0], [0.0, 0.0]]) for t in np.linspace(0.0, 1.0, 9)],
], ids=["some-without-a-piece", "all-with-a-tail"])
def test_common_projection_stacks_every_operators_piece(ops):
    P, _ = common_projection(ops)
    assert not same_bits(P, np.eye(P.shape[0]))    # the first guess, coker(T_0)^perp, was refused
    assert same_bits(P, special_accumulated_projection(ops))


# --- splicing and spaces ---------------------------------------------------

@pytest.mark.parametrize("x", [np.zeros(3), np.array([0.0, 1.0, -2.0])])
def test_degeneracy_index_at_quadrant_rank_0_is_0(x):
    assert degeneracy_index(x, GradedSpace(dim=3, quadrant_rank=0)) == 0


def test_default_weights_of_no_coordinates_is_empty_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = default_weights(0)
    assert same_bits(w, np.zeros(0))


# --- degree ----------------------------------------------------------------

def special_spread(count, widths):
    widths = np.asarray(widths, dtype=float)
    if not widths.size:
        return []
    return _spread(count, widths)


@pytest.mark.parametrize("count", [0, 1, 5])
def test_spread_over_no_pieces_is_empty_and_silent(count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _spread(count, [])
    assert got == special_spread(count, []) == []
