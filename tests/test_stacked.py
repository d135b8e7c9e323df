"""Stacked contraction samples: `germs._sampled_ratios` evaluates the kept
pair points of one parameter sample in one `ContractionGerm._rows` call.

The oracle is the sampler as it was before, which called B one pair at a
time through `evaluate`.  A user's B, and the inner B of a basic germ with a
user's g, take the stack row by row with exact elementwise ops, so their
reports keep every bit.  A normal form's g takes the stack by one matrix
product with each of its two fixed matrices, which sums in another order
than the per-point products, so its ratios may move in the last bits: by
at most STACKED_RATIO_RTOL of the ratio (README, numerical conventions).
"""

from dataclasses import replace

import numpy as np
import pytest

from germforge import germs
from germforge.fredholm import BasicGerm, ScPlusSection, perturb_normal_form
from germforge.germs import ContractionGerm, ContractionReport, SamplingPlan, _sampled_ratios
from germforge.spaces import GradedSpace

# the bound the README states for a stacked normal-form ratio, relative to
# the ratio, set from the dtype; the largest move seen on 870 normal forms
# of the shapes below, at radii 1, 1/2 and 1/4, is 2.5e-14, about 112 eps
STACKED_RATIO_RTOL = 4096 * np.finfo(float).eps


def pair_by_pair_ratios(germ, levels, radius, grid):
    """`_sampled_ratios` with B called one pair at a time, as it was written
    before the pair points of a sample were stacked."""
    rng = np.random.Generator(np.random.Philox(key=grid.seed))
    r = (radius if np.isfinite(radius) else 1.0) * grid.radius_scale
    space = germ.solution_space
    pdim, sdim = germ.parameter_space.dim, space.dim
    top = max(levels)
    max_ratio = dict.fromkeys(levels, 0.0)
    count = dict.fromkeys(levels, 0)
    nq = germ.parameter_space.quadrant_rank
    for _ in range(grid.parameter_samples):
        draws = rng.uniform(-r, r, size=pdim + 2 * grid.pair_samples * sdim)
        v = draws[:pdim]
        v[:nq] = np.abs(v[:nq])
        pairs = draws[pdim:].reshape(grid.pair_samples, 2, sdim)
        steps = pairs[:, 0] - pairs[:, 1]
        kept = np.flatnonzero(~(space.level_norm(steps, top) < 1e-14))
        if not kept.size:
            continue
        diffs = np.array([germ.evaluate(v, pairs[j, 0]) - germ.evaluate(v, pairs[j, 1]) for j in kept])
        for m in levels:
            dens = space.level_norm(steps[kept], m)
            sel = ~(dens < 1e-14)
            ratios = space.level_norm(diffs[sel], m) / dens[sel]
            max_ratio[m] = float(np.fmax.reduce(ratios, initial=max_ratio[m]))
            count[m] += int(sel.sum())
    return {m: ContractionReport(level=m, max_ratio=max_ratio[m], samples=count[m], radius=r,
                                 passed=max_ratio[m] < 1.0) for m in levels}


class Counted:
    """A user map that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def linear_pair(rng, n, N, wdim):
    """A linear basic germ and a quadratic section, drawn as selftest
    criterion 4 and the `certify` workload draw theirs."""
    M = rng.normal(size=(N + wdim, n + wdim)) * 0.08
    M[N:, n:] += np.eye(wdim)
    bg = BasicGerm(n=n, k=1, N=N, W=GradedSpace(dim=wdim, levels=2, weights=np.ones(wdim)),
                   g=Counted(lambda x, M=M: M @ x), contraction_schedule={m: (0.6, 1.0) for m in range(3)})
    A = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
    Q = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05
    return bg, ScPlusSection(section=Counted(lambda x, A=A, Q=Q: A @ x + Q @ (x * x)), levels=2)


def certify_linear_germ(rng):
    """B(v, u) = A u + C v in the `certify` workload's shape, contracting at every level."""
    pdim, sdim, levels = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 3
    weights = 1.0 + rng.uniform(0.0, 0.5, size=sdim)
    A = rng.normal(size=(sdim, sdim))
    rho = float(rng.uniform(0.3, 0.7))
    A *= rho / max(float(np.max(((weights**m) @ np.abs(A)) / weights**m)) for m in range(levels + 1))
    C = rng.normal(size=(sdim, pdim))
    return ContractionGerm(parameter_space=GradedSpace(dim=pdim, levels=levels, weights=np.ones(pdim)),
                           solution_space=GradedSpace(dim=sdim, levels=levels, weights=weights),
                           B=Counted(lambda v, u, A=A, C=C: A @ u + C @ v),
                           contraction_schedule={m: (rho, 1.0) for m in range(levels + 1)})


def assert_within_bound(got, want):
    for m, report in want.items():
        assert (got[m].samples, got[m].passed, got[m].radius) == (report.samples, report.passed, report.radius)
        assert abs(got[m].max_ratio - report.max_ratio) <= STACKED_RATIO_RTOL * report.max_ratio


def normal_forms():
    """200 pairs in criterion 4's shape, 50 in `certify`'s and 20 with dim W
    = 3, where the W block of the matrix into the old coordinates is not
    symmetric (a 2 x 2 one that is a reflection is)."""
    rng = np.random.default_rng(2031)
    return ([linear_pair(rng, 3, 1, 2) for _ in range(200)]
            + [linear_pair(rng, 3, int(rng.integers(0, 3)), int(rng.integers(1, 3))) for _ in range(50)]
            + [linear_pair(rng, 2, 2, 3) for _ in range(20)])


def test_stacked_normal_form_ratios_match_the_pair_by_pair_sampler():
    # a quarter of the default plan's pairs, at the radius every certificate starts from
    plan = SamplingPlan(parameter_samples=4, pair_samples=16)
    moved = 0
    for bg, s in normal_forms():
        out, _ = perturb_normal_form(bg, s)
        levels = range(out.W.levels + 1)
        inner = out.inner
        before = (bg.g.calls, s.section.calls)
        got = _sampled_ratios(inner, levels, 1.0, plan)
        between = (bg.g.calls, s.section.calls)
        want = pair_by_pair_ratios(inner, levels, 1.0, plan)
        # one call of the user's g and of s per point, stacked or not
        assert np.subtract(between, before).tolist() == np.subtract((bg.g.calls, s.section.calls), between).tolist()
        assert_within_bound(got, want)
        moved += sum(got[m].max_ratio != want[m].max_ratio for m in levels)
    # the stacked products do reach the ratios: not every one keeps its bits
    assert moved


def test_user_maps_keep_their_bits_and_their_call_counts():
    rng = np.random.default_rng(2032)
    # a user's B, and the inner B of a basic germ with a user's g (one
    # hstack, g row by row, exact elementwise ops), shifted so that g(0) != 0
    cases = [(germ, germ.B) for germ in (certify_linear_germ(rng) for _ in range(50))]
    for bg, _ in normal_forms()[::10]:
        shifted = replace(bg, g=Counted(lambda x, g=bg.g.fn: g(x) + 0.5))
        cases.append((shifted.inner, shifted.g))
    for germ, user_map in cases:
        levels = range(germ.solution_space.levels + 1)
        before = user_map.calls
        got = _sampled_ratios(germ, levels, 0.5, SamplingPlan(seed=3))
        between = user_map.calls
        assert got == pair_by_pair_ratios(germ, levels, 0.5, SamplingPlan(seed=3))
        assert user_map.calls - between == between - before > 0


def test_normal_forms_certify_with_the_pair_by_pair_calls_and_schedule(monkeypatch):
    for bg, s in normal_forms()[::25]:
        out, rep = perturb_normal_form(bg, s)
        calls = (bg.g.calls, s.section.calls)
        with monkeypatch.context() as patch:
            patch.setattr(germs, "_sampled_ratios", pair_by_pair_ratios)
            want_out, want_rep = perturb_normal_form(bg, s)
        assert (bg.g.calls - calls[0], s.section.calls - calls[1]) == calls
        assert {m: r for m, (_, r) in out.contraction_schedule.items()} == \
            {m: r for m, (_, r) in want_out.contraction_schedule.items()}
        assert rep.certified_radius == want_rep.certified_radius
        assert abs(rep.contraction_ratio - want_rep.contraction_ratio) <= \
            STACKED_RATIO_RTOL * want_rep.contraction_ratio


def test_a_stacked_normal_form_still_checks_the_shape_of_each_user_value():
    # each map is right near the origin, where g(0) and D s(0) are read, and
    # one entry off away from it, where the samples are
    W = GradedSpace(dim=2, levels=2, weights=np.ones(2))
    M = np.hstack([np.zeros((3, 3)), np.vstack([np.zeros(2), np.eye(2)])])
    good = lambda x: M @ x
    bad_g = lambda x: M @ x if np.max(np.abs(x)) < 1e-3 else (M @ x)[1:]
    bad_s = lambda x: 0.1 * x[:3] if np.max(np.abs(x)) < 1e-3 else 0.1 * x[:4]
    schedule = {m: (0.6, 1.0) for m in range(3)}
    with pytest.raises(ValueError, match="g must return 3 components"):
        perturb_normal_form(BasicGerm(n=3, k=1, N=1, W=W, g=bad_g, contraction_schedule=schedule),
                            ScPlusSection(section=lambda x: 0.1 * x[:3], levels=2))
    with pytest.raises(ValueError, match="s must return 3 components"):
        perturb_normal_form(BasicGerm(n=3, k=1, N=1, W=W, g=good, contraction_schedule=schedule),
                            ScPlusSection(section=bad_s, levels=2))
