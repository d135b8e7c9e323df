import numpy as np
import pytest

from germforge import registry
from germforge._linalg import fd_jacobian, is_surjective, newton, svd_split


class Counted:
    """Callable wrapper that counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def smooth_map(x):
    return np.array([np.sin(x[0]) * x[1] + x[2] ** 2, np.exp(0.3 * x[0]) - x[1] * x[2]])


def test_fd_jacobian_makes_two_evaluations_per_coordinate():
    for n in (1, 3):
        f = Counted(lambda x: smooth_map(np.resize(x, 3)))
        fd_jacobian(f, np.linspace(0.2, 0.7, n))
        assert f.calls == 2 * n


def test_fd_jacobian_matches_central_difference_formula():
    x = np.array([0.3, -0.8, 1.1])
    h = 1e-6 * (1.0 + float(np.sum(np.abs(x))))
    expected = np.zeros((2, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        expected[:, j] = (smooth_map(x + e) - smooth_map(x - e)) / (2.0 * h)
    assert np.array_equal(fd_jacobian(smooth_map, x), expected)


def test_fd_jacobian_of_empty_point_is_sized_by_one_evaluation():
    f = Counted(lambda x: np.ones(2))
    J = fd_jacobian(f, np.zeros(0))
    assert J.shape == (2, 0)
    assert f.calls == 1


def test_newton_converges_on_square_system():
    x, res, converged = newton(lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]]),
                               np.array([1.0, 0.5]))
    assert converged
    assert res <= 1e-13
    assert np.allclose(x, np.full(2, np.sqrt(0.5)), atol=1e-12)


def test_newton_reports_a_stall_without_raising():
    # x^2 + 1 has no real zero; Gauss-Newton stalls at the minimum x = 0
    f = lambda x: np.array([x[0] ** 2 + 1.0])
    x, res, converged = newton(f, np.array([0.5]))
    assert not converged
    assert res == float(np.max(np.abs(f(x))))
    assert res >= 1.0


def test_newton_reports_a_failed_linear_solve_without_raising():
    # NaN Jacobian entries: the step is never solved for
    f = lambda x: np.array([1.0 if x[0] == 0.5 else np.nan])
    x, res, converged = newton(f, np.array([0.5]))
    assert not converged
    assert res == 1.0
    assert np.array_equal(x, [0.5])


def test_newton_stops_before_solving_with_a_non_finite_jacobian(capfd):
    # the section is inf just past a domain edge at x = 1, inside the FD stencil
    f = lambda x: np.where(x < 1.0, x - 2.0, np.inf)
    x, res, converged = newton(f, np.array([1.0 - 1e-6]))
    assert not converged
    assert np.array_equal(x, [1.0 - 1e-6])
    assert res == float(np.max(np.abs(f(x))))
    # LAPACK reports the illegal value by printing, not by raising
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_stops_at_a_non_finite_residual_before_the_jacobian():
    # off the domain on both sides of the start: a Jacobian would take inf - inf
    f = Counted(lambda x: np.array([np.inf]))
    x, res, converged = newton(f, np.array([0.0]))
    assert (x.tolist(), res, converged) == ([0.0], np.inf, False)
    assert f.calls == 1


def test_newton_takes_least_squares_steps_on_non_square_systems():
    # underdetermined and linear: one minimum-norm step lands on the zero
    x, res, converged = newton(lambda x: np.array([x[0] + x[1] + x[2] - 1.0, x[0] - x[1]]), np.zeros(3))
    assert converged
    assert np.allclose(x, np.full(3, 1.0 / 3.0), atol=1e-12)
    # the rotating-line filled section, a 3 -> 2 map
    fs = registry.rotating_line_filled_section()
    x, res, converged = newton(fs.evaluate_flat, np.array([0.2, 1.0, 0.3]))
    assert converged
    assert res <= 1e-13
    v, e = x[:1], x[1:]
    assert np.max(np.abs(fs.model.projection(v) @ e - e)) < 1e-9


def test_newton_returns_empty_point_at_once():
    f = Counted(lambda x: np.ones(1))
    x, res, converged = newton(f, np.zeros(0))
    assert x.shape == (0,)
    assert (res, converged) == (0.0, True)
    assert f.calls == 0


def test_svd_split_of_an_empty_operator_returns_orthonormal_bases():
    # a map from R^0 to R^2: no kernel, the whole target as cokernel
    rank, kernel, coker, sigma = svd_split(np.zeros((2, 0)))
    assert rank == 0 and kernel.shape == (0, 0) and sigma.size == 0
    assert np.array_equal(coker, np.eye(2))
    # a map from R^3 to R^0: the whole source as kernel, no cokernel
    rank, kernel, coker, sigma = svd_split(np.zeros((0, 3)))
    assert rank == 0 and coker.shape == (0, 0)
    assert np.array_equal(kernel, np.eye(3))


@pytest.mark.parametrize("T", [[[1e-9, 0.0]], [[1e-7, 0.0]], [[1e-9, 0.0], [0.0, 1e-10]],
                               [[1.0, 0.0], [0.0, 1e-9]], [[3.0, 0.0, 1e-9]], [[5e-9]]])
def test_is_surjective_agrees_with_the_svd_split_rank(T):
    # below sigma_max = 1 the two cutoffs used to differ: [[1e-9, 0]] read
    # as onto, where svd_split gives rank 0
    assert is_surjective(T) == (svd_split(T)[0] == len(T))


def test_determinant_line_of_a_map_from_r0_has_an_orthonormal_cokernel():
    from germforge.orientation import determinant_line

    dl = determinant_line(np.zeros((2, 0)))
    assert dl.kernel_dim == 0 and dl.cokernel_dim == 2
    assert np.allclose(dl.cokernel_basis.T @ dl.cokernel_basis, np.eye(2))
