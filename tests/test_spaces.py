import numpy as np
import pytest

from germforge.cones import sigma_set
from germforge.spaces import GradedSpace


def test_zero_vector_norm_is_zero_at_every_level():
    sp = GradedSpace(dim=3, levels=4)
    z = sp.zero()
    for m in range(5):
        assert z.norm(m) == 0.0


def test_direct_formula():
    sp = GradedSpace(dim=2, levels=2, weights=np.array([1.0, 2.0]))
    x = sp.vector([1.0, 1.0])
    assert x.norm(0) == pytest.approx(2.0)
    assert x.norm(1) == pytest.approx(3.0)


def test_level_out_of_range():
    sp = GradedSpace(dim=2, levels=2)
    x = sp.vector([1.0, 1.0])
    with pytest.raises(ValueError):
        x.norm(3)
    with pytest.raises(ValueError):
        x.norm(-1)


def test_nesting_monotone_on_random_vectors():
    sp = GradedSpace(dim=5, levels=3)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = sp.vector(rng.normal(size=5))
        norms = [x.norm(m) for m in range(4)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_norm_axioms_random_triples():
    sp = GradedSpace(dim=4, levels=3)
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        lam = rng.normal()
        for m in range(4):
            na = sp.level_norm(a, m)
            nb = sp.level_norm(b, m)
            assert sp.level_norm(a + b, m) <= na + nb + 1e-12
            assert sp.level_norm(lam * a, m) == pytest.approx(abs(lam) * na)


def test_weights_below_one_rejected():
    with pytest.raises(ValueError):
        GradedSpace(dim=2, levels=2, weights=np.array([1.0, 0.5]))


def test_quadrant_rank_bounds():
    with pytest.raises(ValueError):
        GradedSpace(dim=2, levels=2, quadrant_rank=3)


def test_membership_examples():
    sp = GradedSpace(dim=3, levels=2, quadrant_rank=3)
    x = sp.vector([0.0, 0.0, 3.2])
    assert sp.contains_quadrant_point(x.coords)
    assert sigma_set(x, sp.quadrant_rank) == frozenset({0, 1})

    sp2 = GradedSpace(dim=2, levels=2, quadrant_rank=1)
    assert not sp2.contains_quadrant_point(sp2.vector([-1.0, 2.0]).coords)

    x3 = sp2.vector([1e-12, 5.0])
    assert sp2.contains_quadrant_point(x3.coords, 1e-9)
    assert sigma_set(x3, sp2.quadrant_rank, tol=1e-9) == frozenset({0})


def test_membership_scale_covariant():
    sp = GradedSpace(dim=3, levels=2, quadrant_rank=2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.normal(size=3)
        lam = rng.uniform(0.1, 10.0)
        assert sp.contains_quadrant_point(x, 0.0) == sp.contains_quadrant_point(lam * x, 0.0)


def test_declared_level_bookkeeping():
    sp = GradedSpace(dim=2, levels=3)
    x = sp.vector([1.0, 2.0], declared_level=1)
    assert x.declared_level == 1
    assert x.raised().declared_level == 2
    assert sp.vector([0.0, 0.0]).declared_level == 3  # closed-form data is smooth
    top = sp.vector([1.0, 1.0], declared_level=3)
    assert top.raised().declared_level == 3
    with pytest.raises(ValueError):
        sp.vector([1.0, 1.0], declared_level=9)


def test_level_norm_and_membership_of_a_row_stack_equal_their_rows():
    rng = np.random.default_rng(4)
    for dim in (0, 1, 3, 9):
        sp = GradedSpace(dim=dim, levels=3, weights=1.0 + rng.uniform(0.0, 1.0, size=dim),
                         quadrant_rank=dim // 2)
        X = rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-6, 6, size=(40, dim))
        for m in range(4):
            assert np.array_equal(sp.level_norm(X, m), [sp.level_norm(x, m) for x in X])
        inside = sp.contains_quadrant_point(X, 1e-3)
        assert inside.tolist() == [sp.contains_quadrant_point(x, 1e-3) for x in X]
        assert sp.level_norm(X[:0], 1).shape == (0,)
    sp = GradedSpace(dim=2, levels=1)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            sp.level_norm(bad, 0)


def test_spaces_with_equal_fields_are_equal():
    # dim >= 2 used to raise: the generated __eq__ compared weights arrays
    assert GradedSpace(dim=2) == GradedSpace(dim=2)
    assert GradedSpace(dim=3, levels=2, quadrant_rank=1) == GradedSpace(
        dim=3, levels=2, weights=GradedSpace(dim=3).weights, quadrant_rank=1)
    assert GradedSpace(dim=2) != GradedSpace(dim=2, levels=4)
    assert GradedSpace(dim=2) != GradedSpace(dim=2, quadrant_rank=1)


def test_spaces_differing_only_in_weights_are_unequal():
    assert GradedSpace(dim=2) != GradedSpace(dim=2, weights=np.ones(2))
    assert GradedSpace(dim=1, weights=np.array([1.0])) != GradedSpace(dim=1, weights=np.array([2.0]))


def test_space_works_as_a_dict_key():
    table = {GradedSpace(dim=1): "line", GradedSpace(dim=2, quadrant_rank=2): "quadrant"}
    assert table[GradedSpace(dim=1)] == "line"
    assert table[GradedSpace(dim=2, quadrant_rank=2)] == "quadrant"
    assert GradedSpace(dim=2) not in table


def test_vectors_compare_and_hash_by_value():
    # used to raise: the generated __eq__ and __hash__ used the coords array
    sp = GradedSpace(dim=2)
    assert sp.vector([1, 2]) == sp.vector([1.0, 2.0])
    assert hash(sp.vector([1, 2])) == hash(sp.vector([1, 2]))
    assert sp.vector([1, 2]) != sp.vector([2, 1])
    assert sp.vector([1, 2]) != sp.vector([1, 2], declared_level=1)
    assert sp.vector([1, 2]) != GradedSpace(dim=2, levels=4).vector([1, 2])
    assert {sp.vector([1, 2]): "a"}[sp.vector([1, 2])] == "a"
