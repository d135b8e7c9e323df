"""Splicings, splicing cores, fillers, filled sections, and corner indices.

A splicing is a parameter family of linear projections pi_v on a fixed space
E; the core {(v, e) : pi_v e = e} is the local model whose fiber dimension
may jump.  A filler converts a section over the core into an equivalent
"filled" map on the full space by adding a fiberwise isomorphism on the
complementary directions; zeros and linearization data of the two agree.
Derivatives, D_v(pi_v e) along the core included, are `fd_jacobian`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import as_vector, fd_jacobian, orthonormal_columns, rank, svd_split
from .errors import GermforgeError, NotAZero
from .spaces import DEFAULT_TOL, GradedSpace

# parameter step of the sampled continuity check of validate_splicing
CONTINUITY_STEP = 1e-6
# |f_bar(q)| above which linearize_filled refuses q as a zero
ZERO_TOL = 1e-8


class SmoothnessGrade(Enum):
    EXACT = "exact"
    TRUNCATION_APPROXIMATE = "truncation_approximate"


@dataclass(frozen=True)
class SplicingModel:
    """Family v -> pi_v of linear idempotents on E over a parameter region V.

    pi(v) returns a (dim_E, dim_E) matrix.  V is the set of parameter points
    of param_space with level-0 norm below `radius` that also satisfy the
    parameter quadrant when one is marked.  Rank-jumping families are not
    norm-continuous at finite dimension; admit them with
    smoothness_grade=TRUNCATION_APPROXIMATE to skip the continuity check.
    """

    param_space: GradedSpace
    E: GradedSpace
    pi: object
    radius: float = np.inf
    smoothness_grade: SmoothnessGrade = SmoothnessGrade.EXACT

    def contains_param(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        if self.param_space.level_norm(v, 0) >= self.radius:
            return False
        return self.param_space.contains_quadrant_point(v)

    def projection(self, v):
        P = np.atleast_2d(np.asarray(self.pi(np.asarray(v, dtype=float)), dtype=float))
        if P.shape != (self.E.dim, self.E.dim):
            raise ValueError(f"pi(v) must be ({self.E.dim},{self.E.dim}), got {P.shape}")
        return P

    def idempotency_defect(self, v, e) -> float:
        P = self.projection(v)
        pe = P @ np.asarray(e, dtype=float)
        return self.E.level_norm(P @ pe - pe, 0)


@dataclass(frozen=True)
class SplicingValidation:
    """Sampled idempotency defect and continuity jump of a projection family.

    Exact-grade models must show a continuity jump comparable to the step
    size; truncation-approximate (rank-jumping) models are exempt from the
    continuity requirement and the observed discontinuity magnitude is the
    report's payload.
    """

    idempotency_defect: float
    continuity_jump: float
    continuity_checked: bool

    def passes(self) -> bool:
        """Idempotency defect <= 1e-8 and, when checked, continuity jump <= 1e-3."""
        if self.idempotency_defect > 1e-8:
            return False
        return (not self.continuity_checked) or self.continuity_jump <= 1e-3


def validate_splicing(model: SplicingModel, samples: int = 200, seed: int = 0) -> SplicingValidation:
    """Sample the projection family for idempotency and v-continuity across
    parameter steps of CONTINUITY_STEP."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    r = model.radius if np.isfinite(model.radius) else 1.0
    worst_idem = 0.0
    worst_jump = 0.0
    check_continuity = model.smoothness_grade is SmoothnessGrade.EXACT
    def jump_at(v, dv, e):
        out = 0.0
        for m in range(model.E.levels + 1):
            out = max(out, model.E.level_norm((model.projection(v + dv) - model.projection(v)) @ e, m))
        return out

    for _ in range(samples):
        v = rng.uniform(-0.9 * r, 0.9 * r, size=model.param_space.dim)
        nq = model.param_space.quadrant_rank
        if nq:
            v[:nq] = np.abs(v[:nq])
        e = rng.normal(size=model.E.dim)
        worst_idem = max(worst_idem, model.idempotency_defect(v, e))
        dv = np.zeros_like(v)
        if dv.size:
            dv[int(rng.integers(0, dv.size))] = CONTINUITY_STEP
        worst_jump = max(worst_jump, jump_at(v, dv, e))
    # straddle the coordinate-zero locus, where rank jumps typically sit
    e = rng.normal(size=model.E.dim)
    for j in range(model.param_space.dim):
        v = np.zeros(model.param_space.dim)
        v[j] = -CONTINUITY_STEP / 2
        dv = np.zeros_like(v)
        dv[j] = CONTINUITY_STEP
        if model.contains_param(v) and model.contains_param(v + dv):
            worst_jump = max(worst_jump, jump_at(v, dv, e))
    return SplicingValidation(idempotency_defect=worst_idem, continuity_jump=worst_jump,
                              continuity_checked=check_continuity)


def _checked_param(model: SplicingModel, v):
    """v as a float array; GermforgeError when it lies outside the parameter region."""
    if not model.contains_param(v):
        raise GermforgeError(f"parameter {np.asarray(v)} outside the splicing parameter region")
    return np.asarray(v, dtype=float)


def core_retraction(model: SplicingModel, v, e):
    """r(v, e) = (v, pi_v e); idempotent and lands in the core."""
    v = _checked_param(model, v)
    e = np.asarray(e, dtype=float)
    return v, model.projection(v) @ e


@dataclass(frozen=True)
class SplicingCore:
    """Membership test for K = {(v, e) : pi_v e = e} at DEFAULT_TOL."""

    model: SplicingModel

    def contains(self, v, e) -> bool:
        if not self.model.contains_param(v):
            return False
        e = np.asarray(e, dtype=float)
        return self.model.E.level_norm(self.model.projection(v) @ e - e, 0) <= DEFAULT_TOL


@dataclass(frozen=True)
class StrongBundleSplicing:
    """Fiber family (v, e) -> rho_{(v,e)}, linear idempotents on F over the core."""

    base: SplicingCore
    F: GradedSpace
    rho: object

    def fiber_projection(self, v, e):
        R = np.atleast_2d(np.asarray(self.rho(np.asarray(v, float), np.asarray(e, float)), dtype=float))
        if R.shape != (self.F.dim, self.F.dim):
            raise ValueError(f"rho must be ({self.F.dim},{self.F.dim}), got {R.shape}")
        return R


@dataclass(frozen=True)
class Filler:
    """Fiberwise linear isomorphism ker pi_v -> ker rho_{r(v,e)}.

    fc(v, e) evaluates on the extended region {(v, e) : (v, pi_v e) in core}
    and must vanish on the core itself.  The library validates fillers on
    samples; it does not synthesize them.
    """

    bundle: StrongBundleSplicing
    fc: object

    def evaluate(self, v, e):
        out = as_vector(self.fc(np.asarray(v, float), np.asarray(e, float)))
        if out.shape != (self.bundle.F.dim,):
            raise ValueError(f"filler must return {self.bundle.F.dim} components, got {out.shape}")
        return out

    def check_on_sample(self, v, e) -> float:
        """rho at the retracted point must annihilate the filler value."""
        model = self.bundle.base.model
        rv, re = core_retraction(model, v, e)
        R = self.bundle.fiber_projection(rv, re)
        val = self.evaluate(v, e)
        return float(np.max(np.abs(R @ val))) if val.size else 0.0


@dataclass(frozen=True)
class FilledSection:
    """f_bar(v, e) = f(r(v, e)) + fc(v, e) on the extended region.

    f is the principal part of a section of the fiber splicing over the core;
    zeros of f_bar force (v, e) onto the core and f to vanish there.
    """

    section: object
    filler: Filler

    @property
    def model(self) -> SplicingModel:
        return self.filler.bundle.base.model

    def section_value(self, v, e):
        out = as_vector(self.section(np.asarray(v, float), np.asarray(e, float)))
        if out.shape != (self.filler.bundle.F.dim,):
            raise ValueError(f"section must return {self.filler.bundle.F.dim} components, got {out.shape}")
        return out

    def evaluate(self, v, e):
        v = np.asarray(v, dtype=float)
        e = np.asarray(e, dtype=float)
        rv, re = core_retraction(self.model, v, e)
        return self.section_value(rv, re) + self.filler.evaluate(v, e)

    def evaluate_flat(self, x):
        pdim = self.model.param_space.dim
        return self.evaluate(x[:pdim], x[pdim:])


@dataclass(frozen=True)
class FilledLinearization:
    """Block data of D f_bar at a zero in the adapted splitting.

    Domain splits into the core tangent directions at q (parameter block plus
    range(pi_v)) and the complementary fiber ker(pi_v); target splits into
    range(rho_q) and ker(rho_q).  At a zero the matrix is block diagonal
    [[f'(q), 0], [0, C]] with C the fiberwise filler isomorphism.
    """

    full_jacobian: np.ndarray
    section_block: np.ndarray
    filler_block: np.ndarray
    off_diagonal_norm: float
    kernel_basis: np.ndarray
    section_surjective: bool
    filled_surjective: bool
    section_index: int
    filled_index: int
    core_tangent_basis: np.ndarray
    complement_basis: np.ndarray


def _core_tangent_basis(model: SplicingModel, v, e, P):
    """Columns spanning T_(v,e) of the core inside param ⊕ E, given P = pi_v.

    Directions: (dv, D_v(pi_v e) dv) for parameter moves plus (0, de) for
    de in range(pi_v).
    """
    pdim = model.param_space.dim
    plus = orthonormal_columns(P)                           # range pi_v
    dpi = fd_jacobian(lambda vv: model.projection(vv) @ e, v)
    return np.block([[np.eye(pdim), np.zeros((pdim, plus.shape[1]))], [dpi, plus]])


def linearize_filled(fs: FilledSection, q) -> FilledLinearization:
    """Verify the block structure of D f_bar at a zero q = (v, e).

    Raises NotAZero when |f_bar(q)| exceeds ZERO_TOL.  Reports the
    section block f'(q) on the core tangent, the filler block C on the
    complementary fiber, the off-diagonal norm, the kernel of the full
    Jacobian, and both Fredholm indices.
    """
    q = np.asarray(q, dtype=float)
    model = fs.model
    pdim = model.param_space.dim
    v, e = q[:pdim], q[pdim:]
    residual = np.max(np.abs(fs.evaluate(v, e))) if fs.filler.bundle.F.dim else 0.0
    if residual > ZERO_TOL:
        raise NotAZero(f"|f_bar(q)| = {residual:.3e} exceeds tolerance")

    # pi_v, read once: the tangent's range, the retraction r(q) = (v, P e)
    # and the Jacobian's fiber columns, whose points keep v's bytes
    P = model.projection(v)
    v_bytes = v.tobytes()

    def f_bar(x):
        """fs.evaluate_flat, with its bits, reading pi only off v."""
        xv, xe = x[:pdim], x[pdim:]
        if xv.tobytes() != v_bytes:
            return fs.evaluate(xv, xe)
        return fs.section_value(xv, P @ xe) + fs.filler.evaluate(xv, xe)

    J = fd_jacobian(f_bar, q)
    tangent = _core_tangent_basis(model, v, e, P)
    minus = orthonormal_columns(np.eye(model.E.dim) - P)   # ker pi_v
    comp = np.zeros((pdim + model.E.dim, minus.shape[1]))
    comp[pdim:, :] = minus

    R = fs.filler.bundle.fiber_projection(_checked_param(model, v), P @ e)
    f_plus = orthonormal_columns(R)                        # range rho_q
    f_minus = orthonormal_columns(np.eye(fs.filler.bundle.F.dim) - R)

    sec_block = f_plus.T @ J @ tangent
    fil_block = f_minus.T @ J @ comp
    off = 0.0
    if f_minus.shape[1] and tangent.shape[1]:
        off = max(off, float(np.max(np.abs(f_minus.T @ J @ tangent))))
    if f_plus.shape[1] and comp.shape[1]:
        off = max(off, float(np.max(np.abs(f_plus.T @ J @ comp))))

    _, kernel_full, coker_full, _ = svd_split(J)
    sec_index = tangent.shape[1] - f_plus.shape[1]
    filled_index = (pdim + model.E.dim) - fs.filler.bundle.F.dim
    return FilledLinearization(
        full_jacobian=J,
        section_block=sec_block,
        filler_block=fil_block,
        off_diagonal_norm=off,
        kernel_basis=kernel_full,
        section_surjective=rank(sec_block) == f_plus.shape[1],
        filled_surjective=bool(coker_full.shape[1] == 0),
        section_index=sec_index,
        filled_index=filled_index,
        core_tangent_basis=tangent,
        complement_basis=comp,
    )


def degeneracy_index(x, space: GradedSpace | None = None) -> int:
    """d(x) = number of constrained coordinates of x with |x_i| <= DEFAULT_TOL."""
    coords = np.asarray(getattr(x, "coords", x), dtype=float)
    sp = space if space is not None else x.space
    return int(np.sum(np.abs(coords[:sp.quadrant_rank]) <= DEFAULT_TOL))


@dataclass(frozen=True)
class FaceDescriptor:
    """One local face {x_j = 0}: its constrained index and tangent hyperplane."""

    constraint_index: int
    tangent_basis: np.ndarray


@dataclass(frozen=True)
class LocalFaces:
    faces: tuple
    boundary_tangent_basis: np.ndarray

    def __len__(self):
        return len(self.faces)


def local_faces(x, space: GradedSpace | None = None) -> LocalFaces:
    """The d(x) local faces through x and their common tangent intersection.

    Each face j is the constraint hyperplane {x_j = 0} for an active index j;
    its tangent is the coordinate hyperplane {dx_j = 0}, and the boundary
    tangent is the intersection over all active faces.  Interior points give
    no faces and the full tangent space.
    """
    coords = np.asarray(getattr(x, "coords", x), dtype=float)
    sp = space if space is not None else x.space
    dim = sp.dim
    active = [j for j in range(sp.quadrant_rank) if abs(coords[j]) <= DEFAULT_TOL]
    eye = np.eye(dim)
    faces = tuple(
        FaceDescriptor(constraint_index=j, tangent_basis=np.delete(eye, j, axis=1))
        for j in active
    )
    keep = [i for i in range(dim) if i not in active]
    return LocalFaces(faces=faces, boundary_tangent_basis=eye[:, keep])
