from dataclasses import replace

import numpy as np
import pytest

from germforge import registry
from germforge.errors import NonConvergence, SingularLinearization
from germforge.germs import (
    SOLUTION_CACHE_SIZE,
    ContractionGerm,
    ContractionReport,
    SamplingPlan,
    SolutionGerm,
    germ_derivative,
    shrink_to_contraction,
    solve_germ,
    tangent_germ,
    verify_contraction,
)
from germforge.spaces import GradedSpace

# Picard oracle for u = 0.25 cos(u), iterated to the floating floor
DELTA0 = 0.2426746806408902
DDELTA0 = 0.9433295276879645


def scalar_spaces(levels=3):
    return (GradedSpace(dim=1, levels=levels, weights=np.array([1.0])),
            GradedSpace(dim=1, levels=levels, weights=np.array([2.0])))


def test_zero_map_solves_to_zero():
    p, s = scalar_spaces()
    germ = ContractionGerm(p, s, B=lambda v, u: np.zeros(1))
    for v in (-1.0, 0.0, 2.0):
        assert solve_germ(germ, np.array([v])) == pytest.approx(0.0)


def test_linear_fixed_point():
    germ = registry.linear_germ(alpha=0.5)
    assert solve_germ(germ, np.array([2.0]))[0] == pytest.approx(4.0, abs=1e-11)


def test_cos_germ_against_picard_oracle():
    germ = registry.cos_germ()
    u = solve_germ(germ, np.array([0.0]), tol=1e-13)
    assert abs(u[0] - DELTA0) < 1e-9


def test_solution_independent_of_level():
    germ = registry.cos_germ()
    sols = [solve_germ(germ, np.array([0.05]), m=m, tol=1e-12) for m in range(4)]
    for a, b in zip(sols, sols[1:]):
        assert np.max(np.abs(a - b)) < 1e-12


def test_uniqueness_within_contraction_ball():
    # restart the iteration from scattered points by shifting the germ
    germ = registry.cos_germ()
    base = solve_germ(germ, np.array([0.1]), tol=1e-12)
    for start in (-0.5, 0.3, 0.9):
        shifted = ContractionGerm(
            germ.parameter_space, germ.solution_space,
            B=lambda v, u, s=start: germ.evaluate(v, u + s) - s,
        )
        u = solve_germ(shifted, np.array([0.1]), tol=1e-12) + start
        assert np.max(np.abs(u - base)) < 2e-12


def test_nonconvergence_reports_residual():
    p, s = scalar_spaces()
    expanding = ContractionGerm(p, s, B=lambda v, u: 2.0 * u + 1.0 + v)
    with pytest.raises(NonConvergence) as exc:
        solve_germ(expanding, np.array([0.0]))
    assert exc.value.residual is not None


def test_max_iter_exhaustion():
    p, s = scalar_spaces()
    slow = ContractionGerm(p, s, B=lambda v, u: 0.999 * u + 1.0)
    with pytest.raises(NonConvergence):
        solve_germ(slow, np.array([0.0]), tol=1e-14, max_iter=5)


def test_derivative_linear_case():
    germ = registry.linear_germ(alpha=0.5)
    d = germ_derivative(germ, np.array([0.3]))
    assert d[0, 0] == pytest.approx(2.0, abs=1e-9)


def test_derivative_zero_when_parameter_absent():
    p, s = scalar_spaces()
    germ = ContractionGerm(p, s, B=lambda v, u: 0.5 * np.sin(u))
    d = germ_derivative(germ, np.array([0.0]))
    assert abs(d[0, 0]) < 1e-9


def test_derivative_cos_oracle():
    germ = registry.cos_germ()
    d = germ_derivative(germ, np.array([0.0]), tol=1e-13)
    assert abs(d[0, 0] - DDELTA0) < 1e-9


def test_derivative_matches_finite_differences():
    germ = registry.cos_germ()
    for v0 in (-0.1, 0.0, 0.15):
        d = germ_derivative(germ, np.array([v0]), tol=1e-13)[0, 0]
        h = 1e-6
        fd = (solve_germ(germ, np.array([v0 + h]), tol=1e-13)[0]
              - solve_germ(germ, np.array([v0 - h]), tol=1e-13)[0]) / (2 * h)
        assert abs(d - fd) / abs(fd) < 1e-6


def test_tangent_zero_germ():
    p, s = scalar_spaces()
    germ = ContractionGerm(p, s, B=lambda v, u: np.zeros(1))
    lifted = tangent_germ(germ)
    out = solve_germ(lifted, np.array([0.2, 1.0]))
    assert np.max(np.abs(out)) < 1e-12


def test_tangent_linear_no_parameter():
    p, s = scalar_spaces()
    germ = ContractionGerm(p, s, B=lambda v, u: 0.5 * u)
    lifted = tangent_germ(germ)
    out = solve_germ(lifted, np.array([0.4, 0.7]))
    assert np.max(np.abs(out)) < 1e-12


def test_tangent_cos_oracle_pair():
    germ = registry.cos_germ()
    lifted = tangent_germ(germ, SolutionGerm(germ, tol=1e-13))
    out = solve_germ(lifted, np.array([0.0, 1.0]), tol=1e-13)
    assert abs(out[0] - DELTA0) < 1e-9
    assert abs(out[1] - DDELTA0) < 1e-8


def test_tangent_coherence_sampled():
    germ = registry.cos_germ()
    sol = SolutionGerm(germ, tol=1e-13)
    lifted = tangent_germ(germ, sol)
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.uniform(-0.2, 0.2, size=1)
        b = rng.uniform(-1.0, 1.0, size=1)
        got = solve_germ(lifted, np.concatenate([v, b]), tol=1e-13)
        want = np.concatenate([sol(v), sol.derivative(v) @ b])
        assert np.max(np.abs(got - want)) < 1e-8


def test_iterate_tangent_second_derivative():
    germ = registry.cos_germ()
    sol = SolutionGerm(germ, tol=1e-13)
    twice = tangent_germ(tangent_germ(germ, sol))
    # doubled twice: parameters (v, b1, b2, b3), solutions expose delta''(0)
    out = solve_germ(twice, np.array([0.0, 1.0, 1.0, 0.0]), tol=1e-11)
    h = 1e-4
    fd2 = (solve_germ(germ, np.array([h]), tol=1e-14)[0]
           - 2 * solve_germ(germ, np.array([0.0]), tol=1e-14)[0]
           + solve_germ(germ, np.array([-h]), tol=1e-14)[0]) / h**2
    assert abs(out[-1] - fd2) < 1e-4


def test_convergence_rate_within_certificate():
    germ = registry.linear_germ(alpha=0.5)
    u = np.zeros(1)
    prev = None
    ratios = []
    for _ in range(40):
        nxt = germ.evaluate(np.array([1.0]), u)
        step = germ.solution_space.level_norm(u - nxt, 0)
        if prev is not None and prev > 1e-13:
            ratios.append(step / prev)
        prev = step
        u = nxt
        if step < 1e-14:
            break
    assert max(ratios) <= 0.5 + 0.05


def test_verify_contraction_examples():
    p, s = scalar_spaces()
    zero = ContractionGerm(p, s, B=lambda v, u: np.zeros(1),
                           contraction_schedule={0: (0.5, 1.0)})
    assert verify_contraction(zero, 0).max_ratio == 0.0

    half = ContractionGerm(p, s, B=lambda v, u: 0.5 * u,
                           contraction_schedule={0: (0.5, 1.0)})
    rep = verify_contraction(half, 0, SamplingPlan(pair_samples=64))
    assert rep.max_ratio == pytest.approx(0.5, abs=1e-12)

    cos = registry.cos_germ()
    rep = verify_contraction(cos, 0, SamplingPlan(pair_samples=128))
    assert rep.max_ratio <= 0.25
    assert rep.passed


def test_schedule_validation():
    p, s = scalar_spaces()
    with pytest.raises(ValueError):
        ContractionGerm(p, s, B=lambda v, u: np.zeros(1), contraction_schedule={0: (1.5, 1.0)})
    with pytest.raises(ValueError):
        ContractionGerm(p, s, B=lambda v, u: np.zeros(1), contraction_schedule={0: (0.5, -1.0)})


def test_solution_germ_caches():
    germ = registry.cos_germ()
    sol = SolutionGerm(germ)
    a = sol(np.array([0.1]))
    b = sol(np.array([0.1]))
    assert a is b


def test_solution_germ_cache_keeps_at_most_its_limit():
    sol = SolutionGerm(registry.linear_germ())
    for k in range(SOLUTION_CACHE_SIZE + 10):
        sol(np.array([1e-3 * k]))
        assert len(sol._cache) <= SOLUTION_CACHE_SIZE
    # the oldest entries went first
    assert sol._key([0.0]) not in sol._cache
    assert sol._key([1e-3 * (SOLUTION_CACHE_SIZE + 9)]) in sol._cache


# ---------------------------------------------------------------------------
# Reference oracle: the one-pair-at-a-time contraction sampler that the
# batched `verify_contraction` replaced.  Both must give the same report
# bit for bit and call B for the same pairs.


def reference_verify_contraction(germ, m=0, grid=None):
    germ.solution_space.check_level(m)
    if grid is None:
        grid = SamplingPlan()
    rng = np.random.Generator(np.random.Philox(key=grid.seed))
    r = germ.radius(m)
    if not np.isfinite(r):
        r = 1.0
    r *= grid.radius_scale
    pdim, sdim = germ.parameter_space.dim, germ.solution_space.dim
    max_ratio = 0.0
    count = 0
    for _ in range(grid.parameter_samples):
        v = rng.uniform(-r, r, size=pdim)
        nq = germ.parameter_space.quadrant_rank
        if nq:
            v[:nq] = np.abs(v[:nq])
        for _ in range(grid.pair_samples):
            u = rng.uniform(-r, r, size=sdim)
            u2 = rng.uniform(-r, r, size=sdim)
            den = germ.solution_space.level_norm(u - u2, m)
            if den < 1e-14:
                continue
            num = germ.solution_space.level_norm(germ.evaluate(v, u) - germ.evaluate(v, u2), m)
            max_ratio = max(max_ratio, num / den)
            count += 1
    return ContractionReport(level=m, max_ratio=max_ratio, samples=count, radius=r, passed=max_ratio < 1.0)


def with_call_log(germ):
    """The germ with B wrapped to record every (v, u) it is called with."""
    calls = []

    def B(v, u):
        calls.append((v.tolist(), u.tolist()))
        return germ.B(v, u)

    return replace(germ, B=B), calls


def random_linear_germ(rng):
    pdim, sdim, levels = int(rng.integers(0, 4)), int(rng.integers(0, 4)), 3
    A = rng.normal(size=(sdim, sdim)) * rng.uniform(0.1, 1.5)
    C = rng.normal(size=(sdim, pdim))
    return ContractionGerm(
        parameter_space=GradedSpace(dim=pdim, levels=levels, quadrant_rank=int(rng.integers(0, pdim + 1))),
        solution_space=GradedSpace(dim=sdim, levels=levels, weights=1.0 + rng.uniform(0.0, 0.5, size=sdim)),
        B=lambda v, u: A @ u + C @ v,
        contraction_schedule={m: (0.5, float(rng.uniform(0.1, 2.0))) for m in range(levels + 1)})


def assert_same_contraction_report(germ, m, plan):
    got_germ, got_calls = with_call_log(germ)
    want_germ, want_calls = with_call_log(germ)
    got = verify_contraction(got_germ, m, plan)
    want = reference_verify_contraction(want_germ, m, plan)
    assert got == want
    assert got_calls == want_calls


def test_verify_contraction_matches_the_reference_on_registry_germs():
    for germ in (registry.cos_germ(), registry.linear_germ(), registry.linear_germ(alpha=-0.9),
                 registry.rotating_line_basic_germ().inner):
        for m in range(germ.solution_space.levels + 1):
            assert_same_contraction_report(germ, m, SamplingPlan(parameter_samples=4, pair_samples=16, seed=m))


def test_verify_contraction_matches_the_reference_on_random_linear_germs():
    rng = np.random.default_rng(12)
    for k in range(40):
        germ = random_linear_germ(rng)
        # a radius scale near 1e-14 makes some pairs too close to count
        scale = float(rng.choice([1.0, 3.0, 1e-14]))
        plan = SamplingPlan(parameter_samples=int(rng.integers(0, 5)), pair_samples=int(rng.integers(0, 20)),
                            radius_scale=scale, seed=k)
        assert_same_contraction_report(germ, int(rng.integers(0, 4)), plan)


def test_verify_contraction_skips_pairs_closer_than_the_cutoff():
    germ = registry.linear_germ()
    rep = verify_contraction(germ, 0, SamplingPlan(radius_scale=1e-14))
    full = SamplingPlan().parameter_samples * SamplingPlan().pair_samples
    assert 0 < rep.samples < full


@pytest.mark.parametrize("B", [lambda v, u: 1.2 * u + 0.5 * u**2, lambda v, u: 1.2 * u])
def test_shrink_stops_once_the_ratio_stalls_above_target(B, monkeypatch):
    # the ratios head to 1.2 as the radius halves (exactly 1.2 for the linear
    # map), so shrinking stops after a few bisections, not all 40
    from germforge import germs

    p, s = scalar_spaces()
    ratios = []
    sampled = germs._sampled_ratios

    def recorded(*args, **kwargs):
        reports = sampled(*args, **kwargs)
        ratios.append(reports[0].max_ratio)
        return reports

    monkeypatch.setattr(germs, "_sampled_ratios", recorded)
    with pytest.raises(NonConvergence) as info:
        shrink_to_contraction(ContractionGerm(p, s, B=B), (0,), 1.0, 40, None)
    assert len(ratios) <= 6
    assert info.value.residual == ratios[-1] > 1.1


def test_shrink_keeps_going_while_a_fast_term_drives_the_ratio():
    # the ratios of 0.89 u + 0.4 u^2 + (8/3) u^3 fall like 0.89 + b r + c r^2
    # with the r^2 term ahead at first (8.1, 2.9, 1.48, 1.08: decay factors
    # near 1/4), yet the limit 0.89 is below target and r = 1/128 reaches it
    p, s = scalar_spaces()
    germ, reps = shrink_to_contraction(ContractionGerm(p, s, B=lambda v, u: 0.89 * u + 0.4 * u**2 + (8 / 3) * u**3),
                                       (0,), 1.0, 40, None)
    rep = reps[0]
    assert rep.max_ratio < 0.9 and rep.radius == 1 / 128


def test_a_replaced_solution_germ_starts_without_the_originals_memo():
    # replace(sol, germ=...) shared the memo, and answered for the old germ
    sol = SolutionGerm(registry.linear_germ())
    assert sol(np.array([0.4]))[0] == pytest.approx(0.8)
    other = replace(sol, germ=registry.linear_germ(alpha=-0.5))
    assert other(np.array([0.4]))[0] == pytest.approx(0.4 / 1.5)
    assert sol(np.array([0.4]))[0] == pytest.approx(0.8)


def test_derivative_raises_where_i_minus_d2b_is_singular():
    # B(v, u) = u - u^3 has the fixed point u = 0 at v = 0, where
    # D2B = 1 - 3 u^2 = 1, so I - D2B has rank 0 at rank_cutoff
    p, s = scalar_spaces()
    germ = ContractionGerm(p, s, B=lambda v, u: u - u ** 3)
    assert solve_germ(germ, np.array([0.0])) == pytest.approx(0.0)
    with pytest.raises(SingularLinearization, match="I - D2B"):
        germ_derivative(germ, np.array([0.0]))
