"""Every wrapper of a user callable turns its output into a 1-D float64
array (`_linalg.as_vector`), and the wrappers that check a length still
raise on a wrong one."""

import numpy as np
import pytest

from germforge._linalg import as_vector, fd_jacobian
from germforge.degree import AuxiliaryNorm, PerturbationProblem, Window
from germforge.fredholm import BasicGerm, ScPlusSection, linearize_relative
from germforge.germs import ContractionGerm
from germforge.solution import BundleIso, GoodParametrization
from germforge.spaces import GradedSpace
from germforge.splicing import FilledSection, Filler, SplicingCore, SplicingModel, StrongBundleSplicing

# a float, a 0-d array, a list, an int, a list of ints and an int array
OUTPUTS = [1.5, np.array(1.5), [1.5], 3, [3], np.array([3])]
LINE = GradedSpace(dim=1, levels=2)


def one_dim_filler(fc):
    model = SplicingModel(param_space=LINE, E=LINE, pi=lambda v: np.eye(1), radius=2.0)
    bundle = StrongBundleSplicing(base=SplicingCore(model=model), F=LINE, rho=lambda v, e: np.eye(1))
    return Filler(bundle=bundle, fc=fc)


def wrappers(model):
    """name -> the wrapper's output for a user callable that returns model()."""
    x = np.array([0.2])
    chart = GoodParametrization(base_point=x, kernel_basis=np.eye(1), complement_basis=np.zeros((1, 0)),
                                radius=0.5, section=lambda y: model())
    pp = PerturbationProblem(section=lambda y: model(), window=Window(lo=-np.ones(1), hi=np.ones(1)),
                             aux_norm=AuxiliaryNorm(fiber_space=LINE))
    return {
        "as_vector": lambda: as_vector(model()),
        "PerturbationProblem.evaluate": lambda: pp.evaluate(x),
        "BasicGerm.evaluate": lambda: BasicGerm(n=1, k=0, N=0, W=LINE, g=lambda y: model()).evaluate(
            np.zeros(2)),
        "ScPlusSection.__call__": lambda: ScPlusSection(section=lambda y: model(), levels=2)(x),
        "ContractionGerm.evaluate": lambda: ContractionGerm(
            parameter_space=LINE, solution_space=LINE, B=lambda v, u: model()).evaluate(x, x),
        "GoodParametrization.section_value": lambda: chart.section_value(x),
        "BundleIso.push_section": lambda: BundleIso(base=lambda y: y, base_inv=lambda y: y).push_section(
            lambda y: model())(x),
        "Filler.evaluate": lambda: one_dim_filler(lambda v, e: model()).evaluate(x, x),
        "FilledSection.section_value": lambda: FilledSection(
            section=lambda v, e: model(), filler=one_dim_filler(lambda v, e: np.zeros(1))).section_value(x, x),
    }


@pytest.mark.parametrize("name", list(wrappers(lambda: 0.0)))
@pytest.mark.parametrize("value", OUTPUTS, ids=["float", "0-d", "list", "int", "int-list", "int-array"])
def test_each_wrapper_returns_a_1d_float_array(name, value):
    out = wrappers(lambda: value)[name]()
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (1,)
    assert out[0] == float(np.ravel(value)[0])


@pytest.mark.parametrize("value", OUTPUTS)
def test_the_jacobians_of_callables_that_return_a_scalar_are_float(value):
    J = fd_jacobian(lambda y: value, np.zeros(0))
    assert (J.shape, J.dtype) == ((1, 0), np.float64)
    # f and s agree at q, so f - s is constant and its Jacobian is 0
    s = ScPlusSection(section=lambda y: value, levels=2)
    J = linearize_relative(lambda y: value, s, np.array([0.3]))
    assert (J.shape, J.dtype) == ((1, 1), np.float64) and J[0, 0] == 0.0


@pytest.mark.parametrize("name,message", [
    ("BasicGerm.evaluate", "g must return 1 components, got (2,)"),
    ("ContractionGerm.evaluate", "B returned shape (2,), expected (1,)"),
    ("Filler.evaluate", "filler must return 1 components, got (2,)"),
    ("FilledSection.section_value", "section must return 1 components, got (2,)"),
])
def test_a_wrong_length_output_raises_with_its_shape(name, message):
    with pytest.raises(ValueError) as err:
        wrappers(lambda: [1.0, 2.0])[name]()
    assert str(err.value) == message
