import numpy as np
import pytest

from germforge.errors import GridTooCoarse, IndexMismatch, NotSurjectiveAfterProjection, Singular
from germforge.orientation import (
    AMBIENT_REFERENCE,
    OrientationReference,
    bordered_sign,
    build_transport,
    common_projection,
    continue_orientation,
    determinant_line,
    sign_of_zero,
    stabilize,
)


def rank_deficient(rng, n=4, deficiency=1):
    A = rng.normal(size=(n, n))
    U, s, Vt = np.linalg.svd(A)
    s[-deficiency:] = 0.0
    return U @ np.diag(s) @ Vt


def is_natural_orientation(dl):
    """The +1 orientation of an isomorphism: empty kernel and cokernel bases."""
    return dl.sign == 1 and dl.kernel_dim == 0 and dl.cokernel_dim == 0


def test_natural_orientation_identity():
    assert is_natural_orientation(determinant_line(np.eye(3)))


def test_natural_orientation_exists_for_negative_determinant():
    assert is_natural_orientation(determinant_line(np.diag([1.0, -1.0])))


def test_natural_orientation_random_invertible():
    rng = np.random.default_rng(0)
    for _ in range(10):
        T = rng.normal(size=(3, 3)) + 4 * np.eye(3)
        assert is_natural_orientation(determinant_line(T))


def test_stabilize_invertible_identity_projection():
    dl = determinant_line(np.eye(2))
    res = stabilize(dl, np.eye(2))
    assert res.sign == 1
    assert res.kernel_basis.shape[1] == 0


def test_stabilize_hand_computed_example():
    # T = diag(1,0), P = projection onto the first coordinate:
    # ker T = ker PT = span e2, (I-P)F = coker complement = span e2,
    # both basis-change determinants are +1
    dl = determinant_line(np.diag([1.0, 0.0]))
    res = stabilize(dl, np.diag([1.0, 0.0]))
    assert res.sign == 1


def test_stabilize_rejects_bad_projection():
    dl = determinant_line(np.diag([0.0, 1.0]))
    # projecting onto the first coordinate kills the whole range
    with pytest.raises(NotSurjectiveAfterProjection):
        stabilize(dl, np.diag([1.0, 0.0]))


def test_stabilize_rejects_a_kernel_of_t_that_does_not_fit_in_ker_pt():
    # T has rank 1 at rank_cutoff (sigma = 10, 5e-8; cutoff 1e-7), so ker T
    # = span(e2), but P T has sigma about (0.5, 5e-8) and rank 2 = rank P at
    # its own cutoff 1e-8, so ker PT = 0 and the exact sequence cannot close
    T = np.array([[10.0, 0.0], [0.0, 5e-8], [0.0, 0.0]])
    Q, _ = np.linalg.qr(np.array([[0.0, 0.05], [1.0, 0.0], [0.0, 1.0]]))
    dl = determinant_line(T)
    assert dl.kernel_dim == 1
    with pytest.raises(NotSurjectiveAfterProjection, match="does not fit"):
        stabilize(dl, Q @ Q.T)


def test_projection_independence_triangle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        T = rank_deficient(rng)
        dl = determinant_line(T)
        signs, oracles = [], []
        while len(signs) < 2:
            w = rng.normal(size=4)
            w /= np.linalg.norm(w)
            P = np.eye(4) - np.outer(w, w)
            try:
                st = stabilize(dl, P)
            except (NotSurjectiveAfterProjection, Singular):
                continue
            signs.append(st.sign)
            oracles.append(bordered_sign(P @ T, st.kernel_basis, st.complement_basis))
        assert signs[0] * signs[1] == oracles[0] * oracles[1]


def test_common_projection_prefers_first_cokernel():
    ops = [np.diag([1.0, 2 * t - 1.0]) for t in np.linspace(0, 1, 33)]
    P, worst = common_projection(ops)
    # the crossing at t = 1/2 forces the second coordinate out of the range
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)
    assert worst > 1e-8


def test_constant_isomorphism_path():
    ops = [np.eye(2)] * 9
    tr = build_transport(ops)
    assert continue_orientation(tr, 1) == 1
    assert continue_orientation(tr, -1) == -1


def test_rotation_path_transports_plus_one():
    ts = np.linspace(0, 1, 33)
    ops = [np.array([[np.cos(np.pi * t), -np.sin(np.pi * t)],
                     [np.sin(np.pi * t), np.cos(np.pi * t)]]) for t in ts]
    assert continue_orientation(build_transport(ops, grid=ts), 1) == 1


def test_spectral_flow_flips_sign():
    ts = np.linspace(0, 1, 33)
    ops = [np.diag([1.0, 2 * t - 1.0]) for t in ts]
    assert continue_orientation(build_transport(ops, grid=ts), 1) == -1


def test_isomorphism_paths_match_det_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        B = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        if rng.random() < 0.5:
            B = B @ np.diag([1.0, 1.0, -1.0])
        ts = np.linspace(0, 1, 129)
        ops = [(1 - t) * A + t * B for t in ts]
        try:
            got = continue_orientation(build_transport(ops, grid=ts), 1)
        except (GridTooCoarse, NotSurjectiveAfterProjection):
            continue
        want = int(np.sign(np.linalg.det(A) * np.linalg.det(B)))
        assert got == want


def test_path_reversal_round_trip():
    ts = np.linspace(0, 1, 33)
    ops = [np.diag([1.0, 2 * t - 1.0]) for t in ts]
    fwd = continue_orientation(build_transport(ops, grid=ts), 1)
    back = continue_orientation(build_transport(list(reversed(ops)), grid=ts), fwd)
    assert back == 1


def test_grid_refinement_never_flips():
    for count in (17, 33, 65, 129):
        ts = np.linspace(0, 1, count)
        flow = [np.diag([1.0, 2 * t - 1.0]) for t in ts]
        assert continue_orientation(build_transport(flow, grid=ts), 1) == -1
        rot = [np.array([[np.cos(np.pi * t), -np.sin(np.pi * t)],
                         [np.sin(np.pi * t), np.cos(np.pi * t)]]) for t in ts]
        assert continue_orientation(build_transport(rot, grid=ts), 1) == 1


def test_path_through_zero_operator_keeps_det_product_sign():
    # total accumulation (P = 0) is a legitimate common projection; the
    # transported sign agrees with the determinant product of the endpoints
    ops = [np.diag([1.0, 1.0]), np.diag([0.0, 0.0]), np.diag([1.0, 1.0])]
    assert continue_orientation(build_transport(ops), 1) == 1


def test_frame_jump_raises_grid_too_coarse():
    def op(theta):
        return np.array([[np.cos(theta), np.sin(theta)], [0.0, 0.0]])

    coarse = [op(0.0), op(np.pi / 2)]
    with pytest.raises(GridTooCoarse):
        continue_orientation(build_transport(coarse), 1)
    fine = [op(t) for t in np.linspace(0, np.pi / 2, 33)]
    assert continue_orientation(build_transport(fine), 1) in (-1, 1)


def test_sign_of_zero_examples():
    jac = lambda x: np.array([[1.0]])
    assert sign_of_zero(jac, np.zeros(1)) == 1
    jac_neg = lambda x: np.array([[-1.0]])
    assert sign_of_zero(jac_neg, np.zeros(1)) == -1
    ref_same = OrientationReference(kind="base_zero", base_point=np.zeros(1))
    assert sign_of_zero(jac_neg, np.zeros(1), ref_same) == 1  # relative to itself


def test_sign_of_zero_cubic():
    jac = lambda x: np.array([[3 * x[0] ** 2 - 1.0]])
    signs = [sign_of_zero(jac, np.array([z])) for z in (-1.0, 0.0, 1.0)]
    assert signs == [1, -1, 1]
    ref = OrientationReference(kind="base_zero", base_point=np.array([-1.0]))
    rel = [sign_of_zero(jac, np.array([z]), ref) for z in (-1.0, 0.0, 1.0)]
    assert rel == [1, -1, 1]


def test_sign_of_zero_singular_raises():
    jac = lambda x: np.array([[0.0]])
    with pytest.raises(Singular):
        sign_of_zero(jac, np.zeros(1))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_sign_of_zero_with_a_non_square_linearization_is_an_index_mismatch(shape):
    # the caller's matrix goes straight to det_sign, which checks its shape
    jac = lambda x: np.eye(*shape)
    with pytest.raises(IndexMismatch):
        sign_of_zero(jac, np.zeros(shape[1]))
    base = OrientationReference(kind="base_zero", base_point=np.zeros(shape[1]))
    with pytest.raises(IndexMismatch):
        sign_of_zero(jac, np.zeros(shape[1]), base)


def test_base_zero_reference_matches_explicit_transport():
    # validate the determinant-product reduction against discrete transport
    # along a segment whose crossing is placed on the grid
    Jb = np.array([[2.0]])
    Jx = np.array([[-1.0]])
    crossing = 2.0 / 3.0
    ts = sorted(set(np.linspace(0, 1, 65)) | {crossing})
    ops = [(1 - t) * Jb + t * Jx for t in ts]
    got = continue_orientation(build_transport(ops, grid=ts), 1)
    ref = OrientationReference(kind="base_zero", base_point=np.zeros(1))
    jac = lambda x: Jb if np.allclose(x, 0.0) else Jx
    assert got == sign_of_zero(jac, np.ones(1), ref) == -1


def test_a_zero_of_a_map_of_r0_has_the_natural_orientation():
    # the 0x0 linearization is the isomorphism R^0 -> R^0, whose natural
    # orientation is +1 (an IndexError escaped here before)
    def empty(x):
        return np.zeros((0, 0))

    assert sign_of_zero(empty, np.zeros(0)) == 1
    assert sign_of_zero(empty, np.zeros(0), OrientationReference(kind="base_zero", base_point=np.zeros(0))) == 1
