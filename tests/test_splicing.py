from dataclasses import replace

import numpy as np
import pytest

from germforge import registry
from germforge._linalg import orthonormal_columns
from germforge.errors import GermforgeError, NotAZero
from germforge.splicing import (
    Filler,
    FilledSection,
    SmoothnessGrade,
    SplicingCore,
    SplicingModel,
    StrongBundleSplicing,
    _core_tangent_basis,
    core_retraction,
    degeneracy_index,
    linearize_filled,
    local_faces,
)
from germforge.spaces import GradedSpace


def trivial_splicing_model(dim: int = 2, levels: int = 3, radius: float = 2.0) -> SplicingModel:
    param = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    E = GradedSpace(dim=dim, levels=levels)
    return SplicingModel(param_space=param, E=E, pi=lambda v: np.eye(dim), radius=radius)


def rank_jump_model(levels: int = 3, radius: float = 1.0) -> SplicingModel:
    """Projection rank drops from 1 to 0 at v = 0; admitted as a flagged
    truncation approximation only."""
    param = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    E = GradedSpace(dim=1, levels=levels)

    def pi(v):
        return np.array([[1.0 if v[0] > 0 else 0.0]])

    return SplicingModel(param_space=param, E=E, pi=pi, radius=radius,
                         smoothness_grade=SmoothnessGrade.TRUNCATION_APPROXIMATE)


def rotating_zero(v):
    mag = 1.0 + 0.3 * np.sin(v)
    return mag * np.array([np.cos(v), np.sin(v)])


def test_retraction_identity_splicing():
    model = trivial_splicing_model(dim=3)
    v = np.array([0.2])
    e = np.array([1.0, -2.0, 0.5])
    rv, re = core_retraction(model, v, e)
    assert np.allclose(re, e)


def test_retraction_first_coordinate_projection():
    param = GradedSpace(dim=1, levels=2, weights=np.array([1.0]))
    E = GradedSpace(dim=2, levels=2)
    model = SplicingModel(param_space=param, E=E,
                         pi=lambda v: np.array([[1.0, 0.0], [0.0, 0.0]]), radius=2.0)
    _, re = core_retraction(model, np.array([0.1]), np.array([3.0, 4.0]))
    assert np.allclose(re, [3.0, 0.0])


def test_retraction_idempotent_property():
    model = registry.rotating_line_model()
    rng = np.random.default_rng(4)
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, size=1)
        e = rng.normal(size=2)
        rv, re = core_retraction(model, v, e)
        _, re2 = core_retraction(model, rv, re)
        assert np.max(np.abs(re2 - re)) < 1e-12


def test_retraction_rejects_outside_parameters():
    model = registry.rotating_line_model()
    with pytest.raises(GermforgeError):
        core_retraction(model, np.array([5.0]), np.zeros(2))


def test_core_membership():
    model = registry.rotating_line_model()
    core = SplicingCore(model=model)
    v = np.array([0.4])
    on = model.projection(v) @ np.array([1.0, 1.0])
    assert core.contains(v, on)
    assert not core.contains(v, on + np.array([-np.sin(0.4), np.cos(0.4)]) * 0.1)


def test_rank_jump_model_is_flagged():
    model = rank_jump_model()
    assert model.smoothness_grade is SmoothnessGrade.TRUNCATION_APPROXIMATE
    # discontinuity magnitude at the jump is reported by direct comparison
    lo = model.projection(np.array([-1e-9]))
    hi = model.projection(np.array([1e-9]))
    assert np.max(np.abs(hi - lo)) == pytest.approx(1.0)


def test_validate_splicing_exact_model():
    from germforge.splicing import validate_splicing

    rep = validate_splicing(registry.rotating_line_model(), samples=300, seed=1)
    assert rep.continuity_checked
    assert rep.idempotency_defect <= 1e-10
    assert rep.passes()


def test_validate_splicing_rank_jump_exempt_but_reported():
    from germforge.splicing import validate_splicing

    rep = validate_splicing(rank_jump_model(), samples=500, seed=2)
    assert not rep.continuity_checked
    assert rep.passes()  # exemption: the jump does not fail the validation
    # the discontinuity magnitude is surfaced by the zero-locus straddle probe
    assert rep.continuity_jump > 0.1


def test_filler_fiberwise_linear():
    fs = registry.rotating_line_filled_section()
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.uniform(-1, 1, size=1)
        u_perp = np.array([-np.sin(v[0]), np.cos(v[0])])
        e_core = rng.normal() * np.array([np.cos(v[0]), np.sin(v[0])])
        a, b = rng.normal(size=2)
        lhs = fs.filler.evaluate(v, e_core + (a + b) * u_perp)
        rhs = (fs.filler.evaluate(v, e_core + a * u_perp)
               + fs.filler.evaluate(v, e_core + b * u_perp)
               - fs.filler.evaluate(v, e_core))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_trivial_filler_gives_back_the_section():
    # pi = id means ker pi_v = 0 and the filler contributes nothing
    model = trivial_splicing_model(dim=2)
    core = SplicingCore(model=model)
    F = GradedSpace(dim=2, levels=3)
    bundle = StrongBundleSplicing(base=core, F=F, rho=lambda v, e: np.eye(2))
    filler = Filler(bundle=bundle, fc=lambda v, e: np.zeros(2))
    section = lambda v, e: e - np.array([v[0], 0.0])
    fs = FilledSection(section=section, filler=filler)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(-1, 1, size=1)
        e = rng.normal(size=2)
        assert np.allclose(fs.evaluate(v, e), section(v, e))


def test_zero_section_fill_zeros_are_core():
    # f = 0 with an injective filler: zeros of the filled map = the core
    fs = registry.rotating_line_filled_section()
    model = fs.model
    zero_section = lambda v, e: np.zeros(2)
    fs0 = FilledSection(section=zero_section, filler=fs.filler)
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = rng.uniform(-1, 1, size=1)
        e = rng.normal(size=2)
        val = fs0.evaluate(v, e)
        on_core = np.max(np.abs(model.projection(v) @ e - e)) < 1e-9
        assert (np.max(np.abs(val)) < 1e-9) == on_core


def test_filler_annihilated_by_fiber_projection():
    fs = registry.rotating_line_filled_section()
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.uniform(-1, 1, size=1)
        e = rng.normal(size=2)
        assert fs.filler.check_on_sample(v, e) < 1e-12


def test_filler_fiberwise_injective():
    fs = registry.rotating_line_filled_section()
    model = fs.model
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.uniform(-1, 1, size=1)
        u_perp = np.array([-np.sin(v[0]), np.cos(v[0])])
        eps = rng.normal() * u_perp
        val = fs.filler.evaluate(v, eps)
        assert np.max(np.abs(val)) >= 0.99 * np.abs(np.linalg.norm(eps)) / 2


def test_rotating_line_zero_set_equivalence():
    fs = registry.rotating_line_filled_section()
    model = fs.model
    rng = np.random.default_rng(5)
    # forward: every zero of the section over the core is a filled zero
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, size=1)
        c = rotating_zero(v[0])
        assert np.max(np.abs(fs.evaluate(v, c))) < 1e-9
    # backward: filled zeros land on the core with vanishing section
    from germforge._linalg import newton

    def guarded(x):
        if abs(x[0]) >= 1.15:
            return np.array([1e3, 1e3])
        return fs.evaluate_flat(x)

    found = 0
    for _ in range(200):
        x0 = np.concatenate([rng.uniform(-0.9, 0.9, size=1), rng.normal(size=2)])
        x, res, ok = newton(guarded, x0)
        if not ok or res > 1e-11 or abs(x[0]) > 1.1:
            continue
        found += 1
        v, e = x[:1], x[1:]
        assert np.max(np.abs(model.projection(v) @ e - e)) < 1e-9
        assert np.max(np.abs(fs.section_value(v, e))) < 1e-9
    assert found > 50


def test_linearize_filled_trivial_splicing():
    model = trivial_splicing_model(dim=2)
    core = SplicingCore(model=model)
    F = GradedSpace(dim=2, levels=3)
    bundle = StrongBundleSplicing(base=core, F=F, rho=lambda v, e: np.eye(2))
    filler = Filler(bundle=bundle, fc=lambda v, e: np.zeros(2))
    section = lambda v, e: e - np.array([v[0], 0.0])
    fs = FilledSection(section=section, filler=filler)
    q = np.array([0.3, 0.3, 0.0])
    rep = linearize_filled(fs, q)
    assert rep.filler_block.size == 0
    assert rep.off_diagonal_norm < 1e-9
    assert rep.section_index == rep.filled_index == 1


def test_linearize_filled_scalar_filler_block():
    # 1-dim filler eps -> lam * eps: C = (lam), index unchanged
    param = GradedSpace(dim=1, levels=2, weights=np.array([1.0]))
    E = GradedSpace(dim=2, levels=2)
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    model = SplicingModel(param_space=param, E=E, pi=lambda v: P, radius=2.0)
    core = SplicingCore(model=model)
    F = GradedSpace(dim=2, levels=2)
    bundle = StrongBundleSplicing(base=core, F=F, rho=lambda v, e: P)
    lam = 2.5
    filler = Filler(bundle=bundle, fc=lambda v, e: np.array([0.0, lam * e[1]]))
    section = lambda v, e: np.array([e[0] - v[0], 0.0])
    fs = FilledSection(section=section, filler=filler)
    rep = linearize_filled(fs, np.array([0.2, 0.2, 0.0]))
    assert rep.filler_block.shape == (1, 1)
    assert rep.filler_block[0, 0] == pytest.approx(lam, abs=1e-6)
    assert rep.off_diagonal_norm < 1e-8
    assert rep.section_index == rep.filled_index == 1


def test_linearize_filled_rotating_line_kernel_dims():
    fs = registry.rotating_line_filled_section()
    v0 = 0.3
    q = np.concatenate([[v0], rotating_zero(v0)])
    rep = linearize_filled(fs, q)
    # dense SVD on both blocks: kernel of the filled map matches the section's
    assert rep.kernel_basis.shape[1] == 1
    from germforge._linalg import svd_split

    _, sec_kernel, _, _ = svd_split(rep.section_block)
    assert sec_kernel.shape[1] == 1
    assert rep.section_surjective and rep.filled_surjective
    assert rep.section_index == rep.filled_index
    assert rep.off_diagonal_norm < 1e-9


def test_linearize_filled_rejects_nonzeros():
    fs = registry.rotating_line_filled_section()
    with pytest.raises(NotAZero):
        linearize_filled(fs, np.array([0.3, 5.0, 5.0]))


def test_degeneracy_index_examples():
    sp = GradedSpace(dim=4, levels=2, quadrant_rank=3)
    assert degeneracy_index(sp.vector([1.0, 2.0, 3.0, -1.0])) == 0
    assert degeneracy_index(sp.vector([0.0, 0.0, 3.2, 7.0])) == 2
    spk = GradedSpace(dim=3, levels=2, quadrant_rank=3)
    assert degeneracy_index(spk.vector([0.0, 0.0, 0.0])) == 3


def test_degeneracy_chart_independence():
    # two overlapping charts: the identity and a positive-diagonal rescale
    # composed with a permutation of the constrained coordinates
    sp = GradedSpace(dim=3, levels=2, quadrant_rank=2)
    perm = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scale = np.diag([2.0, 0.5, 3.0])
    T = perm @ scale
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.normal(size=3)
        x[:2] = np.abs(x[:2]) * (rng.random(2) > 0.3)  # some zeros
        d1 = degeneracy_index(x, sp)
        d2 = degeneracy_index(T @ x, sp)
        assert d1 == d2


def test_local_faces_interior_and_corner():
    sp = GradedSpace(dim=3, levels=2, quadrant_rank=2)
    interior = local_faces(sp.vector([1.0, 2.0, -1.0]))
    assert len(interior) == 0
    assert interior.boundary_tangent_basis.shape[1] == 3

    one = local_faces(sp.vector([0.0, 2.0, -1.0]))
    assert len(one) == 1
    assert one.faces[0].constraint_index == 0

    corner = local_faces(sp.vector([0.0, 0.0, 5.0]))
    assert len(corner) == 2
    T = corner.boundary_tangent_basis
    assert T.shape[1] == 1
    assert np.allclose(T[:, 0], [0.0, 0.0, 1.0])


def test_face_count_equals_degeneracy_index():
    sp = GradedSpace(dim=4, levels=2, quadrant_rank=3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=4)
        x[:3] = np.abs(x[:3]) * (rng.random(3) > 0.4)
        assert len(local_faces(x, sp)) == degeneracy_index(x, sp)


def core_tangent_oracle(model, v, e):
    """The core tangent basis as it was computed column by column."""
    pdim = model.param_space.dim
    plus = orthonormal_columns(model.projection(v))
    cols = []
    for j in range(pdim):
        def moved(t, j=j):
            vv = np.array(v, dtype=float)
            vv[j] += t
            return model.projection(vv) @ e
        h = 1e-6 * (1.0 + abs(float(v[j])))
        col = np.zeros(pdim + model.E.dim)
        col[j] = 1.0
        col[pdim:] = (moved(h) - moved(-h)) / (2.0 * h)
        cols.append(col)
    for k in range(plus.shape[1]):
        col = np.zeros(pdim + model.E.dim)
        col[pdim:] = plus[:, k]
        cols.append(col)
    return np.column_stack(cols)


def logged_rotating_line(log):
    """The rotating-line model, logging every v its pi is asked for."""
    model = registry.rotating_line_model()

    def pi(v):
        log.append(np.array(v))
        return model.pi(v)

    return replace(model, pi=pi)


def test_core_tangent_basis_has_the_bits_of_the_column_loop():
    # with one parameter, fd_jacobian takes the same steps in the same order
    rng = np.random.default_rng(24)
    for _ in range(50):
        v, e = rng.uniform(-1.1, 1.1, size=1), rng.normal(size=2)
        new_log, old_log = [], []
        model = logged_rotating_line(new_log)
        new = _core_tangent_basis(model, v, e, model.projection(v))
        old = core_tangent_oracle(logged_rotating_line(old_log), v, e)
        assert np.array_equal(new, old)
        assert len(new_log) == len(old_log) == 3
        assert all(np.array_equal(a, b) for a, b in zip(new_log, old_log))


def test_linearize_filled_reads_pi_at_its_base_point_once(monkeypatch):
    # the registry's section, filler and rho close over their own model, so
    # the log holds only the library's own reads of pi.  At the zero's v:
    # one for the residual, one for each of the Jacobian's two fiber
    # columns (x +- h e_j moves e only), and one for P = pi_v, which serves
    # the core tangent's range and the retraction (v, P e)
    fs = registry.rotating_line_filled_section()
    log = []
    core = replace(fs.filler.bundle.base, model=logged_rotating_line(log))
    fs = replace(fs, filler=replace(fs.filler, bundle=replace(fs.filler.bundle, base=core)))
    v0 = 0.3
    rep = linearize_filled(fs, np.concatenate([[v0], rotating_zero(v0)]))
    assert sum(np.array_equal(v, [v0]) for v in log) == 6
    assert rep.section_surjective and rep.off_diagonal_norm < 1e-9
