"""Named closed-form models with parameter slots.

Every experiment in the harness draws its sections, splicings, cones, and
germs from this registry; arbitrary user expressions are out of scope.  Each
builder returns plain library objects so tests and commands share one source
of truth.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .degree import AuxiliaryNorm, PerturbationProblem, Window
from .fredholm import BasicGerm
from .germs import ContractionGerm
from .spaces import GradedSpace
from .splicing import (
    Filler,
    FilledSection,
    SplicingCore,
    SplicingModel,
    StrongBundleSplicing,
)

# the top level of every registry model's graded spaces
LEVELS = 3


def cos_germ() -> ContractionGerm:
    """B(v, u) = cos(u)/4 + v, the workhorse scalar contraction germ."""
    param = GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.0]))
    sol = GradedSpace(dim=1, levels=LEVELS, weights=np.array([2.0]))
    schedule = {m: (0.25, 1.0) for m in range(LEVELS + 1)}
    return ContractionGerm(
        parameter_space=param,
        solution_space=sol,
        B=lambda v, u: 0.25 * np.cos(u) + v,
        contraction_schedule=schedule,
    )


def linear_germ(alpha: float = 0.5) -> ContractionGerm:
    """B(v, u) = alpha*u + v with |alpha| < 1; delta(v) = v/(1-alpha)."""
    if not abs(alpha) < 1:
        raise ValueError("alpha must have modulus < 1")
    param = GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.0]))
    sol = GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.5]))
    schedule = {m: (max(abs(alpha), 1e-6), 2.0) for m in range(LEVELS + 1)}
    return ContractionGerm(
        parameter_space=param,
        solution_space=sol,
        B=lambda v, u: alpha * u + v,
        contraction_schedule=schedule,
    )


def rotating_line_model() -> SplicingModel:
    """pi_v = orthogonal projection onto span(cos v, sin v) in the plane, for
    |v| < 1.2."""
    param = GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.0]))
    E = GradedSpace(dim=2, levels=LEVELS)

    def pi(v):
        c, s = np.cos(v[0]), np.sin(v[0])
        u = np.array([c, s])
        return np.outer(u, u)

    return SplicingModel(param_space=param, E=E, pi=pi, radius=1.2)


def rotating_line_filled_section() -> FilledSection:
    """Section pi_v e - c(v) over the rotating-line core, filled by the
    complementary projection.

    c(v) = g(v) * (cos v, sin v) with the strictly positive profile
    g(v) = 1 + 0.3 sin v, so the zero set is the curve (v, g(v) u(v)) and the
    filled map is e - c(v).
    """
    model = rotating_line_model()
    core = SplicingCore(model=model)
    F = GradedSpace(dim=2, levels=LEVELS)
    bundle = StrongBundleSplicing(base=core, F=F, rho=lambda v, e: model.projection(v))

    def c_of_v(v):
        return (1.0 + 0.3 * np.sin(v[0])) * np.array([np.cos(v[0]), np.sin(v[0])])

    def section(v, e):
        return model.projection(v) @ e - c_of_v(v)

    def fc(v, e):
        return (np.eye(2) - model.projection(v)) @ e

    filler = Filler(bundle=bundle, fc=fc)
    return FilledSection(section=section, filler=filler)


def rotating_line_basic_germ() -> BasicGerm:
    """The rotating-line filled map e - c(v) as a basic germ: n=1, N=0, W=R^2."""
    fs = rotating_line_filled_section()

    def g(x):
        return fs.evaluate(x[:1], x[1:])

    W = GradedSpace(dim=2, levels=LEVELS)
    schedule = {m: (1e-6, 1.0) for m in range(LEVELS + 1)}
    return BasicGerm(n=1, k=0, N=0, W=W, g=g, contraction_schedule=schedule)


def circle_section(x):
    """f(x, y) = x^2 + y^2 - 1, zeros on the unit circle."""
    return np.array([x[0] ** 2 + x[1] ** 2 - 1.0])


def circle_basic_germ() -> BasicGerm:
    W = GradedSpace(dim=0, levels=LEVELS)
    return BasicGerm(n=2, k=0, N=1, W=W, g=circle_section)


def parabola_corner_germ() -> BasicGerm:
    """f(x, y) = y - x^2 on [0,inf) ⊕ R, corner zero at the origin."""
    W = GradedSpace(dim=0, levels=LEVELS)
    return BasicGerm(n=2, k=1, N=1, W=W, g=lambda x: np.array([x[1] - x[0] ** 2]))


def diagonal_line_germ() -> BasicGerm:
    """f(x, y) = y - x on [0,inf) ⊕ R with a neat kernel at the origin."""
    W = GradedSpace(dim=0, levels=LEVELS)
    return BasicGerm(n=2, k=1, N=1, W=W, g=lambda x: np.array([x[1] - x[0]]))


def quadrant_plane_germ() -> BasicGerm:
    """f(x, y, z) = z - x - y on [0,inf)^2 ⊕ R, order-2 corner at the origin."""
    W = GradedSpace(dim=0, levels=LEVELS)
    return BasicGerm(n=3, k=2, N=1, W=W, g=lambda x: np.array([x[2] - x[0] - x[1]]))


def _interval_problem(section, seeds, seed: int, budget: float) -> PerturbationProblem:
    """The scalar section x -> [section(x[0])] on the window [-2, 2], with a
    1-D fiber of weight 1 as budget norm."""
    return PerturbationProblem(
        section=lambda x: np.array([section(x[0])]),
        window=Window(lo=np.array([-2.0]), hi=np.array([2.0])),
        aux_norm=AuxiliaryNorm(fiber_space=GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.0]))),
        budget=budget,
        seeds=tuple(np.array([x]) for x in seeds),
        rng_seed=seed,
    )


def cubic_problem(seed: int = 0) -> PerturbationProblem:
    """x^3 - x on [-2, 2]: zeros -1, 0, 1 with signs +, -, +."""
    return _interval_problem(lambda x: x ** 3 - x, (-1.5, 0.1, 1.5), seed, 0.1)


def square_minus_one_problem(seed: int = 0) -> PerturbationProblem:
    """x^2 - 1 on [-2, 2]: zeros -1, 1 with signs -, +; degree 0."""
    return _interval_problem(lambda x: x ** 2 - 1.0, (-1.3, 1.3), seed, 0.1)


def double_root_problem(seed: int = 0) -> PerturbationProblem:
    """(x - 1/2)^2 (x + 1) on [-2, 2]: a simple zero -1 and a double root 1/2;
    degree 1."""
    return _interval_problem(lambda x: (x - 0.5) ** 2 * (x + 1.0), (-1.5, 1.5), seed, 0.1)


def identity_problem(seed: int = 0) -> PerturbationProblem:
    """x on [-2, 2]: the zero 0 with sign +."""
    return _interval_problem(lambda x: x, (0.3,), seed, 1.0)


def boundary_parabola_problem(seed: int = 0) -> PerturbationProblem:
    """y - x^2 on [0,inf) ⊕ R inside the unit window; index 1 with a corner."""
    fiber = GradedSpace(dim=1, levels=LEVELS, weights=np.array([1.0]))
    return PerturbationProblem(
        section=lambda x: np.array([x[1] - x[0] ** 2]),
        window=Window(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 1.0])),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        seeds=(np.array([0.0, 0.0]), np.array([0.5, 0.25])),
        rng_seed=seed,
        quadrant_rank=1,
    )


def diag_plane_subspace() -> cones.SubspaceInQuadrant:
    """span{(1,0,1), (0,1,1)} inside [0,inf)^3: a full quadrant with 2 rays."""
    ambient = GradedSpace(dim=3, levels=LEVELS, weights=np.ones(3), quadrant_rank=3)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def diagonal_in_square() -> cones.SubspaceInQuadrant:
    """span{(1,1)} inside [0,inf)^2: good position, single extreme ray."""
    ambient = GradedSpace(dim=2, levels=LEVELS, weights=np.ones(2), quadrant_rank=2)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=np.array([[1.0], [1.0]]))


def circular_cone_subspace() -> cones.SubspaceInQuadrant:
    """Polyhedral ice-cream cone in R^3 embedded as C ∩ N in [0,inf)^8.

    N = column span of the facet-normal matrix G, so C ∩ N is isomorphic to
    {y : G y >= 0}, a cone with 8 extreme rays: not a quadrant.
    """
    angles = 2 * np.pi * np.arange(8) / 8
    # facet normals of {y3 >= sqrt(y1^2+y2^2)} sampled polyhedrally
    G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(8)])
    ambient = GradedSpace(dim=8, levels=LEVELS, weights=np.ones(8), quadrant_rank=8)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=G)


def neat_instances() -> list:
    """Registry subspaces that are neat in their quadrants."""
    amb3 = GradedSpace(dim=3, levels=LEVELS, weights=np.ones(3), quadrant_rank=2)
    amb4 = GradedSpace(dim=4, levels=LEVELS, weights=np.ones(4), quadrant_rank=2)
    amb2 = GradedSpace(dim=2, levels=LEVELS, weights=np.ones(2), quadrant_rank=1)
    return [
        cones.SubspaceInQuadrant(ambient=amb3, basis=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
        cones.SubspaceInQuadrant(ambient=amb4, basis=np.array(
            [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5], [0.0, 0.0]])),
        cones.SubspaceInQuadrant(ambient=amb2, basis=np.array([[1.0], [1.0]])),
    ]


MODEL_BUILDERS = {
    "cos-germ": cos_germ,
    "linear-germ": linear_germ,
    "rotating-line": rotating_line_filled_section,
    "circle": circle_basic_germ,
    "parabola-at-corner": parabola_corner_germ,
    "diagonal-line": diagonal_line_germ,
    "quadrant-plane": quadrant_plane_germ,
    "cubic": cubic_problem,
    "square-minus-one": square_minus_one_problem,
    "double-root": double_root_problem,
    "identity": identity_problem,
    "boundary-parabola": boundary_parabola_problem,
    "diag-plane": diag_plane_subspace,
    "diagonal-in-square": diagonal_in_square,
    "ice-cream": circular_cone_subspace,
}


def build(name: str, **kwargs):
    if name not in MODEL_BUILDERS:
        raise KeyError(f"unknown registry model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name](**kwargs)
