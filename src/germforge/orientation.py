"""Determinant lines of dense linear operators, stabilization, and transport.

The determinant line of T is (max wedge of ker T) ⊗ (max wedge of coker T)*.
An isomorphism carries the natural orientation +1.  For a projection P with
P T surjective onto range(P), the four-term exact sequence

    0 -> ker T -> ker PT --T--> (I-P)F -> coker T -> 0

induces an isomorphism det(T) -> det(PT); its sign relative to orthonormal
bases is what `stabilize` computes.  Along an operator path a common
projection makes all PT_t surjective, the kernels form a bundle, and
discrete frame transport carries orientations end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import det_sign, orthonormal_columns, sv_rank, svd_split
from .errors import GridTooCoarse, NotSurjectiveAfterProjection

FRAME_JUMP_BOUND = 0.5


@dataclass(frozen=True)
class DeterminantLine:
    """Ordered orthonormal kernel/cokernel bases of T with a sign."""

    operator: np.ndarray
    kernel_basis: np.ndarray
    cokernel_basis: np.ndarray
    sign: int = 1

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def cokernel_dim(self) -> int:
        return self.cokernel_basis.shape[1]


def determinant_line(T) -> DeterminantLine:
    """SVD kernel and cokernel bases of T packaged with the orientation sign +1.

    An isomorphism, of either determinant sign, gets empty bases, and the
    sign +1 is its natural orientation e ⊗ e* -> e*(e).
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    _, kernel, coker, _ = svd_split(T)
    return DeterminantLine(operator=T, kernel_basis=kernel, cokernel_basis=coker)


@dataclass(frozen=True)
class StabilizationResult:
    sign: int
    kernel_basis: np.ndarray          # orthonormal basis of ker(PT)
    complement_basis: np.ndarray      # orthonormal basis of (I-P)F


def stabilize(dl: DeterminantLine, P) -> StabilizationResult:
    """Sign of the exact-sequence isomorphism det(T) -> det(PT).

    The input bases are dl's kernel/cokernel pair; the stabilized line uses
    SVD bases of ker(PT) and of (I-P)F.  Raises
    NotSurjectiveAfterProjection if PT misses part of range(P), or if ker T
    does not fit in ker(PT) (rank PT above rank T at `rank_cutoff`), and
    Singular (`det_sign`) if a basis change is singular.

    Convention, pinned by the worked T = diag(1,0), P = diag(1,0) example
    (which yields +1): lifting the cokernel through (I-P)F and completing
    the kernel of T inside ker(PT), the sign is the product of the two
    basis-change determinants.
    """
    T = dl.operator
    P = np.atleast_2d(np.asarray(P, dtype=float))
    F_dim = T.shape[0]
    PT = P @ T
    rank_P = int(np.round(np.trace(P)))
    rank_PT, ker_PT, _, _ = svd_split(PT)
    if rank_PT != rank_P:
        raise NotSurjectiveAfterProjection(
            f"PT has rank {rank_PT}, expected the projection rank {rank_P}"
        )
    if ker_PT.shape[1] < dl.kernel_dim:
        raise NotSurjectiveAfterProjection(
            f"ker T of dimension {dl.kernel_dim} does not fit in ker PT of dimension {ker_PT.shape[1]}"
        )
    G = orthonormal_columns(np.eye(F_dim) - P)        # (I-P)F
    ker_T = dl.kernel_basis
    cok_T = dl.cokernel_basis
    k = ker_T.shape[1]

    # complement V of ker T inside ker PT (lift of the middle image)
    coords = ker_PT.T @ ker_T                          # (kp, k)
    if k:
        Uc, _, _ = np.linalg.svd(coords)
        V = ker_PT @ Uc[:, k:]
    else:
        V = ker_PT
    sign1 = det_sign(ker_PT.T @ np.hstack([ker_T, V]))

    # lift S of the cokernel basis into (I-P)F: coker-projection of S is cok_T
    S = G @ np.linalg.pinv(cok_T.T @ G)
    sign2 = det_sign(G.T @ np.hstack([T @ V, S]))

    return StabilizationResult(sign=dl.sign * sign1 * sign2, kernel_basis=ker_PT, complement_basis=G)


def bordered_sign(T, kernel_basis, cokernel_basis) -> int:
    """Dense-determinant orientation of an index-0 operator with given bases.

    sign det [[T, coker], [kernel^T, 0]]; the bordered matrix is invertible
    exactly when the bases are correct.  Used as an independent oracle for
    the exact-sequence convention.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    k = kernel_basis.shape[1]
    Bd = np.block([
        [T, cokernel_basis],
        [kernel_basis.T, np.zeros((k, cokernel_basis.shape[1]))],
    ])
    return det_sign(Bd)


@dataclass(frozen=True)
class OrientationTransport:
    """A sampled operator path with a common projection certified along it.

    operators[i] is T_{t_i} on a grid of [0, 1]; `projection` P satisfies
    P T_t surjective onto range(P) at every sample, with the smallest
    singular value of PT_t (as map onto range P) at least `min_sv`.
    """

    operators: tuple
    projection: np.ndarray
    min_sv: float
    grid: tuple = ()


SUSPECT_SV_REL = 0.05


def common_projection(operators):
    """A projection P with PT_t surjective onto range(P) for all samples.

    First tries the complement of coker(T_0); on failure accumulates
    near-cokernel directions over the grid and projects along their joint
    span.  Accumulation is deliberately generous (any singular direction
    below SUSPECT_SV_REL of the path's largest singular value contributes):
    over-projecting is harmless because the stabilized sign is independent
    of the admissible projection, while under-projecting near an
    between-samples crossing would silently flip it.
    """
    ops = [np.atleast_2d(np.asarray(T, dtype=float)) for T in operators]
    F_dim = ops[0].shape[0]
    svds = [np.linalg.svd(T) for T in ops]

    def admissible(P):
        """(smallest singular value of the PT onto range(P), None when one
        PT is not onto; the singular values of each PT)"""
        rank_P = int(np.round(np.trace(P)))
        pt_svs = [np.linalg.svd(P @ T, compute_uv=False) for T in ops]
        worst = np.inf
        for s in pt_svs:
            if sv_rank(s) < rank_P:
                return None, pt_svs
            if rank_P:
                worst = min(worst, s[rank_P - 1])
        return (worst if np.isfinite(worst) else 1.0), pt_svs

    U0, s0, _ = svds[0]
    rank0 = sv_rank(s0)
    P0 = np.eye(F_dim) - U0[:, rank0:] @ U0[:, rank0:].T
    rank_P0 = int(np.round(np.trace(P0)))
    worst, pt_svs = admissible(P0)
    if worst is not None and all(
        s[rank_P0 - 1] > SUSPECT_SV_REL * max(sv[0], 1.0)
        for s, (_, sv, _) in zip(pt_svs, svds) if rank_P0
    ):
        return P0, worst
    scale = max(max(sv[0] for _, sv, _ in svds), 1.0)
    pieces = []
    for T, (U, s, _) in zip(ops, svds):
        low = U[:, [i for i in range(min(T.shape)) if s[i] <= SUSPECT_SV_REL * scale]]
        pieces.append(np.hstack([low, U[:, min(T.shape):]]))
    C = orthonormal_columns(np.hstack(pieces))
    P = np.eye(F_dim) - C @ C.T
    worst, _ = admissible(P)
    if worst is None:
        raise NotSurjectiveAfterProjection(
            "no common projection found: accumulated cokernel span still blocks surjectivity"
        )
    return P, worst


def build_transport(operators, grid=None) -> OrientationTransport:
    ops = tuple(np.atleast_2d(np.asarray(T, dtype=float)) for T in operators)
    P, worst = common_projection(ops)
    if grid is None:
        grid = tuple(np.linspace(0.0, 1.0, len(ops)))
    return OrientationTransport(operators=ops, projection=P, min_sv=worst, grid=tuple(grid))


def _transport_frames(transport: OrientationTransport):
    """Parallel-transport an orthonormal kernel frame along the path.

    Returns the final frame; the first is the SVD basis of ker(P T_0) that
    the stabilization at 0 uses.  Each step projects the previous
    frame onto the next kernel and re-orthonormalizes with a positive-diagonal
    QR, so the frame itself carries the transported orientation.
    """
    P = transport.projection
    frames = None
    for T in transport.operators:
        _, ker, _, _ = svd_split(P @ T)
        if frames is None:
            frames = ker
            continue
        if ker.shape[1] != frames.shape[1]:
            raise GridTooCoarse(
                f"kernel dimension jumped from {frames.shape[1]} to {ker.shape[1]}; refine the grid"
            )
        Q, R = np.linalg.qr(ker.T @ frames)
        flip = np.sign(np.diag(R))
        flip[flip == 0] = 1.0
        new_frame = ker @ (Q * flip)
        jump = np.linalg.norm(new_frame - frames)
        if jump > FRAME_JUMP_BOUND:
            raise GridTooCoarse(
                f"frame jump {jump:.3f} exceeds {FRAME_JUMP_BOUND}; refine the grid"
            )
        frames = new_frame
    return frames


def continue_orientation(transport: OrientationTransport, start_sign: int = 1) -> int:
    """Transport an orientation of det(T_0) to det(T_1) along the path.

    end sign = start sign x (stabilization sign at 0) x (frame transport
    sign) x (stabilization sign at 1).  Reversing the path inverts the
    transport.
    """
    ops = transport.operators
    P = transport.projection
    dl0 = determinant_line(ops[0])
    dl1 = determinant_line(ops[-1])
    stab0 = stabilize(dl0, P)
    stab1 = stabilize(dl1, P)

    transport_sign = det_sign(stab1.kernel_basis.T @ _transport_frames(transport))
    return int(np.sign(start_sign)) * stab0.sign * transport_sign * stab1.sign


@dataclass(frozen=True)
class OrientationReference:
    """Reference orientation for signing zeros.

    kind "ambient": the constant orientation of the window trivialization
    (max wedge of domain) ⊗ (max wedge of target)*; agreement with the
    natural orientation of an isomorphism f'(x) is then sign(det f'(x)).

    kind "base_zero": the natural orientation pinned at `base_point`;
    agreement at x is computed by transporting it along the straight operator
    segment from f'(base) to f'(x).
    """

    kind: str = "ambient"
    base_point: np.ndarray | None = None


AMBIENT_REFERENCE = OrientationReference(kind="ambient")


def sign_of_zero(jacobian_at, x, reference: OrientationReference = AMBIENT_REFERENCE) -> int:
    """Sign of a transversal zero x relative to a reference orientation.

    jacobian_at(point) must return the (square) linearization matrix; a
    0x0 one, on R^0, has the natural orientation +1.  Raises IndexMismatch
    when f'(x) is not square, and Singular when it is not invertible.

    For the ambient reference the answer is sign(det f'(x)).  For a
    base-zero reference, continuation along any operator path connecting
    f'(base) to f'(x) inside the (contractible) space of square matrices is
    path independent and reduces to sign(det f'(x)) * sign(det f'(base));
    that reduction is evaluated directly.  `continue_orientation` performs
    the equivalent discrete transport when an explicit path is of interest.
    """
    sign = det_sign(jacobian_at(np.asarray(x, dtype=float)))
    if reference.kind == "ambient":
        return sign
    if reference.kind != "base_zero" or reference.base_point is None:
        raise ValueError(f"unknown orientation reference {reference.kind!r}")
    return sign * det_sign(jacobian_at(np.asarray(reference.base_point, dtype=float)))

