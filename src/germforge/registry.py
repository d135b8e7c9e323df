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


def cos_germ(amplitude: float = 0.25, levels: int = 3) -> ContractionGerm:
    """B(v, u) = amplitude*cos(u) + v, the workhorse scalar contraction germ."""
    param = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    sol = GradedSpace(dim=1, levels=levels, weights=np.array([2.0]))
    schedule = {m: (amplitude, 1.0) for m in range(levels + 1)}
    return ContractionGerm(
        parameter_space=param,
        solution_space=sol,
        B=lambda v, u: amplitude * np.cos(u) + v,
        contraction_schedule=schedule,
    )


def linear_germ(alpha: float = 0.5, beta: float = 1.0, levels: int = 3) -> ContractionGerm:
    """B(v, u) = alpha*u + beta*v with |alpha| < 1; delta(v) = beta v/(1-alpha)."""
    if not abs(alpha) < 1:
        raise ValueError("alpha must have modulus < 1")
    param = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    sol = GradedSpace(dim=1, levels=levels, weights=np.array([1.5]))
    schedule = {m: (max(abs(alpha), 1e-6), 2.0) for m in range(levels + 1)}
    return ContractionGerm(
        parameter_space=param,
        solution_space=sol,
        B=lambda v, u: alpha * u + beta * v,
        contraction_schedule=schedule,
    )


def rotating_line_model(levels: int = 3, radius: float = 1.2) -> SplicingModel:
    """pi_v = orthogonal projection onto span(cos v, sin v) in the plane."""
    param = GradedSpace(dim=1, levels=levels, weights=np.array([1.0]))
    E = GradedSpace(dim=2, levels=levels)

    def pi(v):
        c, s = np.cos(v[0]), np.sin(v[0])
        u = np.array([c, s])
        return np.outer(u, u)

    return SplicingModel(param_space=param, E=E, pi=pi, radius=radius)


def rotating_line_filled_section(target_angle_gain: float = 1.0,
                                 magnitude: object = None,
                                 levels: int = 3) -> FilledSection:
    """Section pi_v e - c(v) over the rotating-line core, filled by the
    complementary projection.

    c(v) = g(v) * (cos v, sin v) with a strictly positive profile g, so the
    zero set is the curve (v, g(v) u(v)) and the filled map is e - c(v).
    """
    model = rotating_line_model(levels=levels)
    core = SplicingCore(model=model)
    F = GradedSpace(dim=2, levels=levels)
    bundle = StrongBundleSplicing(base=core, F=F, rho=lambda v, e: model.projection(v))
    mag = magnitude if magnitude is not None else (lambda v: 1.0 + 0.3 * np.sin(v))

    def direction(v):
        ang = target_angle_gain * v[0]
        return np.array([np.cos(ang), np.sin(ang)])

    def c_of_v(v):
        return mag(v[0]) * direction(v)

    def section(v, e):
        return model.projection(v) @ e - c_of_v(v)

    def fc(v, e):
        return (np.eye(2) - model.projection(v)) @ e

    filler = Filler(bundle=bundle, fc=fc)
    return FilledSection(section=section, filler=filler)


def rotating_line_basic_germ(levels: int = 3, **kwargs) -> BasicGerm:
    """The rotating-line filled map e - c(v) as a basic germ: n=1, N=0, W=R^2."""
    fs = rotating_line_filled_section(levels=levels, **kwargs)

    def g(x):
        return fs.evaluate(x[:1], x[1:])

    W = GradedSpace(dim=2, levels=levels)
    schedule = {m: (1e-6, 1.0) for m in range(levels + 1)}
    return BasicGerm(n=1, k=0, N=0, W=W, g=g, contraction_schedule=schedule)


def circle_section(radius: float = 1.0):
    """f(x, y) = x^2 + y^2 - radius^2, zeros on the circle."""
    def f(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - radius**2])
    return f


def circle_basic_germ(levels: int = 3) -> BasicGerm:
    W = GradedSpace(dim=0, levels=levels)
    return BasicGerm(n=2, k=0, N=1, W=W, g=circle_section())


def parabola_corner_germ(levels: int = 3) -> BasicGerm:
    """f(x, y) = y - x^2 on [0,inf) ⊕ R, corner zero at the origin."""
    W = GradedSpace(dim=0, levels=levels)
    return BasicGerm(n=2, k=1, N=1, W=W, g=lambda x: np.array([x[1] - x[0] ** 2]))


def diagonal_line_germ(levels: int = 3) -> BasicGerm:
    """f(x, y) = y - x on [0,inf) ⊕ R with a neat kernel at the origin."""
    W = GradedSpace(dim=0, levels=levels)
    return BasicGerm(n=2, k=1, N=1, W=W, g=lambda x: np.array([x[1] - x[0]]))


def quadrant_plane_germ(levels: int = 3) -> BasicGerm:
    """f(x, y, z) = z - x - y on [0,inf)^2 ⊕ R, order-2 corner at the origin."""
    W = GradedSpace(dim=0, levels=levels)
    return BasicGerm(n=3, k=2, N=1, W=W, g=lambda x: np.array([x[2] - x[0] - x[1]]))


def cubic_problem(seed: int = 0, budget: float = 0.1) -> PerturbationProblem:
    """x^3 - x on [-2, 2]: zeros -1, 0, 1 with signs +, -, +."""
    fiber = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    return PerturbationProblem(
        section=lambda x: np.array([x[0] ** 3 - x[0]]),
        window=Window(lo=np.array([-2.0]), hi=np.array([2.0])),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        budget=budget,
        seeds=(np.array([-1.5]), np.array([0.1]), np.array([1.5])),
        rng_seed=seed,
    )


def square_minus_one_problem(seed: int = 0, budget: float = 0.1) -> PerturbationProblem:
    """x^2 - 1 on [-2, 2]: zeros -1, 1 with signs -, +; degree 0."""
    fiber = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    return PerturbationProblem(
        section=lambda x: np.array([x[0] ** 2 - 1.0]),
        window=Window(lo=np.array([-2.0]), hi=np.array([2.0])),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        budget=budget,
        seeds=(np.array([-1.3]), np.array([1.3])),
        rng_seed=seed,
    )


def identity_problem(seed: int = 0) -> PerturbationProblem:
    fiber = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    return PerturbationProblem(
        section=lambda x: np.array([x[0]]),
        window=Window(lo=np.array([-2.0]), hi=np.array([2.0])),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        seeds=(np.array([0.3]),),
        rng_seed=seed,
    )


def boundary_parabola_problem(seed: int = 0) -> PerturbationProblem:
    """y - x^2 on [0,inf) ⊕ R inside the unit window; index 1 with a corner."""
    fiber = GradedSpace(dim=1, levels=3, weights=np.array([1.0]))
    return PerturbationProblem(
        section=lambda x: np.array([x[1] - x[0] ** 2]),
        window=Window(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 1.0])),
        aux_norm=AuxiliaryNorm(fiber_space=fiber),
        seeds=(np.array([0.0, 0.0]), np.array([0.5, 0.25])),
        rng_seed=seed,
        quadrant_rank=1,
    )


def diag_plane_subspace(levels: int = 3) -> cones.SubspaceInQuadrant:
    """span{(1,0,1), (0,1,1)} inside [0,inf)^3: a full quadrant with 2 rays."""
    ambient = GradedSpace(dim=3, levels=levels, weights=np.ones(3), quadrant_rank=3)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def diagonal_in_square(levels: int = 3) -> cones.SubspaceInQuadrant:
    """span{(1,1)} inside [0,inf)^2: good position, single extreme ray."""
    ambient = GradedSpace(dim=2, levels=levels, weights=np.ones(2), quadrant_rank=2)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=np.array([[1.0], [1.0]]))


def circular_cone_subspace(n_facets: int = 8, levels: int = 3) -> cones.SubspaceInQuadrant:
    """Polyhedral ice-cream cone in R^3 embedded as C ∩ N in [0,inf)^n_facets.

    N = column span of the facet-normal matrix G, so C ∩ N is isomorphic to
    {y : G y >= 0}, a cone with n_facets extreme rays: not a quadrant.
    """
    angles = 2 * np.pi * np.arange(n_facets) / n_facets
    # facet normals of {y3 >= sqrt(y1^2+y2^2)} sampled polyhedrally
    G = np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(n_facets)])
    ambient = GradedSpace(dim=n_facets, levels=levels, weights=np.ones(n_facets),
                          quadrant_rank=n_facets)
    return cones.SubspaceInQuadrant(ambient=ambient, basis=G)


def neat_instances(levels: int = 3) -> list:
    """Registry subspaces that are neat in their quadrants."""
    amb3 = GradedSpace(dim=3, levels=levels, weights=np.ones(3), quadrant_rank=2)
    amb4 = GradedSpace(dim=4, levels=levels, weights=np.ones(4), quadrant_rank=2)
    amb2 = GradedSpace(dim=2, levels=levels, weights=np.ones(2), quadrant_rank=1)
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
