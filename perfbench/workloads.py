"""Seeded benchmark inputs whose answers are known in closed form.

Each workload is a list of `Op`s built from a seed.  An op holds the inputs
the library receives and the answer they must produce; `Op.run()` calls the
library and returns True when every output matches that answer.  Op i draws
from its own stream (seed, workload, i), so the inputs of op i do not depend
on how many ops a run builds.

Every model callable the library receives (sections, contraction maps `B`,
projection families `pi`) goes through `EvalCounter.wrap`, which counts its
calls by role.  That count is the benchmark's `section_evals_per_op`.
"""

from __future__ import annotations

import numpy as np

from germforge import (
    BasicGerm,
    ContractionGerm,
    DifferentialForm,
    FilledSection,
    Filler,
    PerturbationProblem,
    ScPlusSection,
    SolutionAtlas,
    SplicingCore,
    SplicingModel,
    StrongBundleSplicing,
    Window,
    build_parametrization,
    cones,
    fredholm_index,
    germ_derivative,
    integrate_form,
    invariance_suite,
    linearize_filled,
    perturb_normal_form,
    solve_germ,
    verify_contraction,
)
from germforge.degree import AuxiliaryNorm
from germforge.spaces import GradedSpace

# invariance_suite trials per degree-search op
DEGREE_TRIALS = 1
# Halton starts of the zero search (the library's default is 64)
GRID_STARTS = 32
# sampled pairs per good-position batch (the library's default is 2000)
GOOD_POSITION_GRID = 500
# ops per pass; fixed so that counted work is identical across runs
OP_COUNTS = {"degree-search": 72, "atlas-integrate": 2, "certify": 24}
# model evaluations between clock recalibrations inside an op
TICK_EVALS = 2048
# atlas charts sit at four points of the circle with this share of R as radius
CHART_RADIUS_SHARE = 0.75


class EvalCounter:
    """Counts calls of the generated model callables, by role.

    `on_eval`, when set, is told the role of every call; the tracer uses it
    to attribute evaluations to the innermost open span.  `on_tick`, when
    set, is called every TICK_EVALS calls; the runner uses it to recalibrate
    its clock inside long ops.
    """

    def __init__(self):
        self.total = 0
        self.on_eval = None
        self.on_tick = None

    def wrap(self, role, fn):
        def counted(*args):
            self.total += 1
            if self.on_eval is not None:
                self.on_eval(role)
            if self.on_tick is not None and self.total % TICK_EVALS == 0:
                self.on_tick()
            return fn(*args)

        return counted


class Op:
    """One benchmark operation: a library call and its closed-form answer."""

    def __init__(self, kind, call, expected, check, props=()):
        self.kind = kind
        self.call = call
        self.expected = expected
        self.check = check
        self.props = frozenset(props)

    def run(self) -> bool:
        return bool(self.check(self.call(), self.expected))


def _rng(seed: int, workload: str, index: int):
    tag = sum(ord(ch) * 31**k for k, ch in enumerate(workload)) % (2**32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag, index])))


def _spaced(rng, count, lo, hi, gap, existing=()):
    """`count` uniform draws in [lo, hi] at least `gap` apart (and from `existing`)."""
    out = list(existing)
    while len(out) < len(existing) + count:
        x = float(rng.uniform(lo, hi))
        if all(abs(x - y) >= gap for y in out):
            out.append(x)
    return out[len(existing):]


# ---------------------------------------------------------------- degree-search

def poly_degree_1d(coeff: float, simple_roots, double_roots=()) -> int:
    """(sign f(2) - sign f(-2)) / 2 for f = coeff * prod(x - r) * prod(x - d)^2."""
    def f(x):
        return coeff * np.prod([x - r for r in simple_roots]) * np.prod([(x - d) ** 2 for d in double_roots])

    return int((np.sign(f(2.0)) - np.sign(f(-2.0))) // 2)


def complex_degree_2d(holo_roots, anti_roots) -> int:
    """#r - #s for z -> prod(z - r_i) * prod conj(z - s_j), multiplicities counted."""
    return len(holo_roots) - len(anti_roots)


def _degree_op(seed: int, i: int, counter: EvalCounter) -> Op:
    rng = _rng(seed, "degree-search", i)
    # the mix is fixed by i, not drawn, so that every seed has the same one:
    # 1-D and 2-D alternate, the root count cycles, and a quarter of the ops
    # (i % 8 in {3, 6}, one 2-D and one 1-D) carry a double root
    dim = 1 + i % 2
    double = i % 8 in (3, 6)
    fiber = GradedSpace(dim=dim, levels=3, weights=np.ones(dim))
    if dim == 1:
        d = _spaced(rng, 1, -1.4, 1.4, 0.0) if double else []
        simple = _spaced(rng, 1 + (i // 2) % 3, -1.6, 1.6, 0.35, existing=d)
        coeff = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        roots, dbl = np.array(simple), np.array(d)

        def section(x):
            return np.array([coeff * np.prod(x[0] - roots) * np.prod((x[0] - dbl) ** 2)])

        expected = poly_degree_1d(coeff, simple, d)
    else:
        # three roots near a circle of radius ~1, at a random rotation
        turn = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(3) / 3 + rng.uniform(-0.3, 0.3, size=3)
        pts = list(rng.uniform(0.8, 1.2, size=3) * np.exp(1j * turn))
        n_holo = (i // 2) % 4
        holo, anti = pts[:n_holo], pts[n_holo:]
        if double:
            if holo and (not anti or rng.uniform() < 0.5):
                holo = holo + [holo[0]]
            else:
                anti = anti + [anti[0]]
        phase = complex(np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * rng.uniform(0.5, 1.5))
        h_arr, a_arr = np.array(holo, dtype=complex), np.array(anti, dtype=complex)

        def section(x):
            z = complex(x[0], x[1])
            w = phase * np.prod(z - h_arr) * np.prod(np.conj(z - a_arr))
            return np.array([w.real, w.imag])

        expected = complex_degree_2d(holo, anti)
    pp = PerturbationProblem(
        section=counter.wrap("section", section),
        window=Window(lo=np.full(dim, -2.0), hi=np.full(dim, 2.0)),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        budget=0.1,
        rng_seed=int(rng.integers(0, 2**31)),
        grid_starts=GRID_STARTS,
    )

    def check(report, want):
        return report.degree == want and all(t == want for t in report.trial_degrees)

    return Op(f"{dim}d", lambda: invariance_suite(pp, trials=DEGREE_TRIALS), expected, check,
              props=("double_root",) if double else ())


# -------------------------------------------------------------- atlas-integrate

def rotation_form_integral(amplitude: float, radius: float) -> float:
    """Integral of a*((x-cx) dy - (y-cy) dx) over the counter-clockwise circle."""
    return 2.0 * np.pi * amplitude * radius**2


def _atlas_op(seed: int, i: int, counter: EvalCounter) -> Op:
    rng = _rng(seed, "atlas-integrate", i)
    center = rng.uniform(-1.0, 1.0, size=2)
    radius = float(rng.uniform(0.9, 1.1))
    amp = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    p, q, r, s = rng.uniform(-1.0, 1.0, size=4)

    def f(x):
        d = x - center
        return np.array([d[0] ** 2 + d[1] ** 2 - radius**2])

    bg = BasicGerm(n=2, k=0, N=1, W=GradedSpace(dim=0, levels=3), g=counter.wrap("section", f))
    rotation = DifferentialForm(degree=1, coeff=lambda x: amp * np.array([-(x[1] - center[1]), x[0] - center[0]]))
    # d(p x^2 + q x y + r y^2 + s x): closed, so its circle integral is 0
    exact = DifferentialForm(degree=1, coeff=lambda x: np.array([2 * p * x[0] + q * x[1] + s, q * x[0] + 2 * r * x[1]]))
    bases = [center + radius * np.array(u) for u in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))]

    def call():
        atlas = SolutionAtlas(charts=tuple(
            build_parametrization(bg, qb, radius=CHART_RADIUS_SHARE * radius) for qb in bases))
        return integrate_form(atlas, rotation), integrate_form(atlas, exact)

    # the exact form's integral is compared with its size along the circle
    scale = 2.0 * np.pi * radius * (1.0 + float(np.max(np.abs(center))) + radius)
    want = rotation_form_integral(amp, radius)

    def check(got, want):
        rot, zero = got
        return abs(rot - want) <= 1e-6 * abs(want) and abs(zero) <= 1e-8 * scale

    return Op("circle", call, want, check)


# ---------------------------------------------------------------------- certify

def polygon_cone_rays(angles) -> list:
    """Unit extreme rays, in ambient coordinates, of {y : G y >= 0} embedded as
    G y, where row i of G is (-cos a_i, -sin a_i, 1) and the angles are sorted.

    Adjacent facets i, i+1 meet in the ray y = g_i x g_{i+1}.
    """
    G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(len(angles))])
    rays = []
    for i in range(len(angles)):
        y = np.cross(G[i], G[(i + 1) % len(angles)])
        if y[2] < 0:
            y = -y
        r = G @ y
        rays.append(r / np.linalg.norm(r))
    return rays


def linear_germ_solution(A, C, v):
    """delta(v) = (I - A)^-1 C v for B(v, u) = A u + C v."""
    return np.linalg.solve(np.eye(A.shape[0]) - A, C @ v)


def _induced_level_norm(A, weights, m) -> float:
    """Operator norm of A for the weighted l1 norm sum_i w_i^m |x_i|."""
    wm = weights**m
    return float(np.max((wm @ np.abs(A)) / wm))


def _same_rays(got, want, tol=1e-7) -> bool:
    if len(got) != len(want):
        return False
    return all(min(np.linalg.norm(g - w) for g in got) <= tol for w in want)


def _certify_op(seed: int, i: int, counter: EvalCounter) -> Op:
    rng = _rng(seed, "certify", i)
    # (a) a line through the open orthant: good position, one ray, a quadrant
    n_line = int(rng.integers(2, 4))
    v = rng.uniform(0.3, 1.0, size=n_line)
    line = cones.SubspaceInQuadrant(
        ambient=GradedSpace(dim=n_line, levels=3, weights=np.ones(n_line), quadrant_rank=n_line),
        basis=v.reshape(-1, 1))
    # (b) a k-facet polyhedral cone in R^3: k rays, not a quadrant
    k = int(rng.integers(4, 7))
    angles = np.sort(2 * np.pi * np.arange(k) / k + rng.uniform(-0.25, 0.25, size=k) * 2 * np.pi / k)
    G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(k)])
    poly = cones.SubspaceInQuadrant(
        ambient=GradedSpace(dim=k, levels=3, weights=np.ones(k), quadrant_rank=k), basis=G)
    # (c) a linear contraction germ B(v, u) = A u + C v, contracting at every level
    pdim, sdim, levels = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 3
    sweights = 1.0 + rng.uniform(0.0, 0.5, size=sdim)
    A = rng.normal(size=(sdim, sdim))
    rho = float(rng.uniform(0.3, 0.7))
    A *= rho / max(_induced_level_norm(A, sweights, m) for m in range(levels + 1))
    C = rng.normal(size=(sdim, pdim))
    germ = ContractionGerm(
        parameter_space=GradedSpace(dim=pdim, levels=levels, weights=np.ones(pdim)),
        solution_space=GradedSpace(dim=sdim, levels=levels, weights=sweights),
        B=counter.wrap("B", lambda vv, u: A @ u + C @ vv),
        contraction_schedule={m: (rho, 1.0) for m in range(levels + 1)})
    v0 = rng.uniform(-1.0, 1.0, size=pdim)
    v0 *= 0.5 / max(np.sum(np.abs(v0)), 1e-12)
    # (d) a random linear basic germ plus a quadratic level-raising section
    n, N, wdim = 3, int(rng.integers(0, 3)), int(rng.integers(1, 3))
    M = rng.normal(size=(N + wdim, n + wdim)) * 0.08
    M[N:, n:] += np.eye(wdim)
    bg = BasicGerm(n=n, k=1, N=N, W=GradedSpace(dim=wdim, levels=2, weights=np.ones(wdim)),
                   g=counter.wrap("section", lambda x: M @ x),
                   contraction_schedule={m: (0.6, 1.0) for m in range(3)})
    As = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.2
    Qs = rng.normal(size=(bg.target_dim, bg.domain_dim)) * 0.05
    s = ScPlusSection(section=counter.wrap("section", lambda x: As @ x + Qs @ (x * x)), levels=2)
    # (e) a rotating-line filled section with a positive magnitude profile
    fs, q = _rotating_line(rng, counter)

    def call():
        gp = cones.is_good_position(line, grid=GOOD_POSITION_GRID)
        line_rays = cones.extreme_rays(line)
        line_quad = cones.is_quadrant(line).is_quadrant
        poly_rays = cones.extreme_rays(poly)
        poly_quad = cones.is_quadrant(poly).is_quadrant
        sols = [solve_germ(germ, v0, m=m) for m in range(levels + 1)]
        deriv = germ_derivative(germ, v0)
        contraction = verify_contraction(germ, 0)
        out, nf = perturb_normal_form(bg, s)
        lin = linearize_filled(fs, q)
        return dict(gp=gp, line_rays=line_rays, line_quad=line_quad, poly_rays=poly_rays,
                    poly_quad=poly_quad, sols=sols, deriv=deriv, contraction=contraction,
                    nf_index=fredholm_index(out), nf_ratio=nf.contraction_ratio, lin=lin)

    expected = dict(
        line_ray=v / np.linalg.norm(v), poly_rays=polygon_cone_rays(angles),
        delta=linear_germ_solution(A, C, v0), dprime=np.linalg.solve(np.eye(sdim) - A, C),
        rho=rho, index=n - N)

    def check(got, want):
        lin = got["lin"]
        return (got["gp"].ok and got["line_quad"] and not got["poly_quad"]
                and _same_rays(got["line_rays"], [want["line_ray"]])
                and _same_rays(got["poly_rays"], want["poly_rays"])
                and all(np.max(np.abs(u - want["delta"])) <= 1e-9 for u in got["sols"])
                and np.max(np.abs(got["deriv"] - want["dprime"])) <= 1e-6
                and got["contraction"].passed and got["contraction"].max_ratio <= want["rho"] + 1e-9
                and got["nf_index"] == want["index"] and got["nf_ratio"] < 0.9
                and lin.filled_index == lin.section_index == 1
                and lin.filled_surjective and lin.section_surjective
                and lin.off_diagonal_norm <= 1e-8)

    return Op("certificates", call, expected, check)


def _rotating_line(rng, counter: EvalCounter):
    """pi_v = projection onto span(cos v, sin v) in R^2, section pi_v e - g(v) u(v)
    with g > 0, filled by the complementary projection; returns (fs, zero)."""
    amp, freq, shift = rng.uniform(0.1, 0.4), rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.5)
    param = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    E = GradedSpace(dim=2, levels=3)

    def pi(v):
        u = np.array([np.cos(v[0]), np.sin(v[0])])
        return np.outer(u, u)

    model = SplicingModel(param_space=param, E=E, pi=counter.wrap("pi", pi), radius=1.2)
    bundle = StrongBundleSplicing(base=SplicingCore(model=model), F=GradedSpace(dim=2, levels=3),
                                  rho=lambda v, e: model.projection(v))

    def mag(t):
        return shift + amp * np.sin(freq * t)

    def section(v, e):
        return model.projection(v) @ e - mag(v[0]) * np.array([np.cos(v[0]), np.sin(v[0])])

    def fc(v, e):
        return (np.eye(2) - model.projection(v)) @ e

    fs = FilledSection(section=counter.wrap("section", section),
                       filler=Filler(bundle=bundle, fc=counter.wrap("section", fc)))
    v0 = float(rng.uniform(-0.8, 0.8))
    q = np.array([v0, mag(v0) * np.cos(v0), mag(v0) * np.sin(v0)])
    return fs, q


BUILDERS = {"degree-search": _degree_op, "atlas-integrate": _atlas_op, "certify": _certify_op}


def build_ops(workload: str, seed: int, counter: EvalCounter, count: int | None = None) -> list:
    """The workload's op list for a seed: `count` ops, default OP_COUNTS[workload]."""
    if workload not in BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(BUILDERS)}")
    count = OP_COUNTS[workload] if count is None else count
    return [BUILDERS[workload](seed, i, counter) for i in range(count)]
