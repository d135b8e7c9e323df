"""germforge: desk-scale solvers for contraction germs, spliced sections,
cone position analysis, determinant-line orientations, and signed degrees.

The subpackages mirror the pipeline: `spaces` provides graded coordinate
spaces with level norms and partial quadrants; `germs` the fixed-point
solver and tangent lifts; `splicing` fillers and corner bookkeeping;
`fredholm` basic germs and perturbation normal forms; `cones` the
good-position geometry; `solution` graph charts of zero sets; `orientation`
determinant lines and transport; `degree` perturbations, signed counts, and
form integration; `registry` and `cli` the batch harness on named models.
"""

from .errors import GermforgeError
from .spaces import GradedSpace, GradedVector
from .germs import (
    ContractionGerm,
    SamplingPlan,
    SolutionGerm,
    germ_derivative,
    solve_germ,
    tangent_germ,
    verify_contraction,
)
from .fredholm import BasicGerm, ScPlusSection, fredholm_index, linearize_relative, perturb_normal_form
from .splicing import (
    FilledSection,
    Filler,
    SplicingCore,
    SplicingModel,
    StrongBundleSplicing,
    core_retraction,
    degeneracy_index,
    linearize_filled,
    local_faces,
)
from .orientation import (
    DeterminantLine,
    OrientationReference,
    continue_orientation,
    sign_of_zero,
    stabilize,
)
from .solution import (
    GoodParametrization,
    SolutionAtlas,
    build_boundary_parametrization,
    build_parametrization,
    recentre,
    transform,
    transition_map,
)
from .degree import (
    AuxiliaryNorm,
    DifferentialForm,
    PerturbationProblem,
    Window,
    compute_degree,
    enumerate_zeros,
    generic_perturbation,
    integrate_form,
    invariance_suite,
    make_bump_section,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryNorm",
    "BasicGerm",
    "ContractionGerm",
    "DeterminantLine",
    "DifferentialForm",
    "FilledSection",
    "Filler",
    "GermforgeError",
    "GoodParametrization",
    "GradedSpace",
    "GradedVector",
    "OrientationReference",
    "PerturbationProblem",
    "SamplingPlan",
    "ScPlusSection",
    "SolutionAtlas",
    "SolutionGerm",
    "SplicingCore",
    "SplicingModel",
    "StrongBundleSplicing",
    "Window",
    "__version__",
    "build_boundary_parametrization",
    "build_parametrization",
    "compute_degree",
    "continue_orientation",
    "core_retraction",
    "degeneracy_index",
    "enumerate_zeros",
    "fredholm_index",
    "generic_perturbation",
    "germ_derivative",
    "integrate_form",
    "invariance_suite",
    "linearize_filled",
    "linearize_relative",
    "local_faces",
    "make_bump_section",
    "perturb_normal_form",
    "recentre",
    "sign_of_zero",
    "solve_germ",
    "stabilize",
    "tangent_germ",
    "transform",
    "transition_map",
    "verify_contraction",
]
