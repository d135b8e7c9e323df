"""Property tests of graph charts on random circles and ellipses."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.fredholm import BasicGerm
from germforge.solution import build_parametrization, transition_map
from germforge.spaces import GradedSpace

CHART_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

semi_axis = st.floats(min_value=0.5, max_value=2.0)
angle = st.floats(min_value=0.0, max_value=2 * np.pi)


def ellipse_germ(a, b):
    return BasicGerm(n=2, k=0, N=1, W=GradedSpace(dim=0, levels=3),
                     g=lambda x: np.array([(x[0] / a) ** 2 + (x[1] / b) ** 2 - 1.0]))


def ellipse_point(a, b, theta):
    return np.array([a * np.cos(theta), b * np.sin(theta)])


def ellipse_chart(a, b, theta):
    return build_parametrization(ellipse_germ(a, b), ellipse_point(a, b, theta),
                                 radius=0.4 * min(a, b))


def ellipses():
    """(a, b) with circles (a == b) drawn as often as proper ellipses."""
    return st.one_of(semi_axis.map(lambda r: (r, r)),
                     st.tuples(semi_axis, semi_axis).filter(lambda ab: 0.5 <= ab[0] / ab[1] <= 2.0))


@CHART_SETTINGS
@given(ellipses(), angle)
def test_graph_points_are_zeros_offset_in_the_complement(ab, theta):
    chart = ellipse_chart(*ab, theta)
    C = chart.complement_basis
    for t in chart.domain_samples(6, seed=1):
        assert chart.residual(t) <= 1e-10
        a = chart.a_vector(t)
        assert np.max(np.abs(a - C @ (C.T @ a))) <= 1e-12


@CHART_SETTINGS
@given(ellipses(), angle)
def test_kernel_transport_lies_in_the_kernel(ab, theta):
    a, b = ab
    chart = ellipse_chart(a, b, theta)
    for t in chart.domain_samples(6, seed=2):
        x, y = chart.gamma(t)
        grad = np.array([2 * x / a**2, 2 * y / b**2])
        tangent = chart.kernel_transport(t)[:, 0]
        assert abs(grad @ tangent) <= 1e-8 * np.linalg.norm(grad) * np.linalg.norm(tangent)


@CHART_SETTINGS
@given(ellipses(), angle, st.floats(min_value=-1.0, max_value=1.0))
def test_transitions_round_trip(ab, theta, offset):
    a, b = ab
    # base points close enough that the midpoint lies well inside both domains
    step = 0.3 * min(a, b) / max(a, b)
    c1 = ellipse_chart(a, b, theta)
    c2 = ellipse_chart(a, b, theta + step)
    shared = ellipse_point(a, b, theta + 0.5 * step)
    tm = transition_map(c1, c2, shared)
    t2 = c2.kernel_basis.T @ (shared - c2.base_point) + 0.05 * min(a, b) * offset
    assert c2.domain_contains(t2) and c1.domain_contains(tm(t2))
    assert tm.mismatch(t2) <= 1e-10


@CHART_SETTINGS
@given(ellipses(), angle)
def test_a_vector_does_not_depend_on_query_order(ab, theta):
    chart = ellipse_chart(*ab, theta)
    ts = chart.domain_samples(8, seed=3)
    first, second = replace(chart), replace(chart)
    forward = [first.a_vector(t) for t in ts]
    backward = [second.a_vector(t) for t in reversed(ts)][::-1]
    for u, v in zip(forward, backward):
        assert np.array_equal(u, v)
