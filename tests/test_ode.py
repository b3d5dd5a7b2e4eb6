import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qmemctl import DivergenceError, TimeGrid, integrate_matrix_ode, sample_grid
from qmemctl.ode import rk4_stage_times, sample_grid_at


def test_zero_rhs_constant_solution():
    grid = integrate_matrix_ode(lambda t, x: np.zeros_like(x), np.eye(3), 0.0, 2.0, 50)
    assert np.array_equal(grid.values, np.broadcast_to(np.eye(3), (51, 3, 3)))
    assert grid.times[0] == 0.0 and grid.times[-1] == 2.0


def test_scalar_exponential():
    grid = integrate_matrix_ode(lambda t, x: x, np.array([[1.0]]), 0.0, 1.0, 100)
    assert abs(grid.values[-1][0, 0] - math.e) < 1e-8


def test_backward_constant_terminal_value_exact():
    lam = np.array([[2.0, -1.0], [-1.0, 2.0]])
    grid = integrate_matrix_ode(
        lambda t, x: np.zeros_like(x), lam, 0.0, 1.0, 10, direction="backward"
    )
    assert np.array_equal(grid.values[-1], lam)
    assert np.array_equal(grid.values[0], lam)


def test_backward_matches_time_reversed_forward():
    a = np.array([[0.0, 1.0], [-1.0, -0.5]])
    # dX/dt = A X backward from X(1) = I equals expm(A (t - 1)).
    grid = integrate_matrix_ode(lambda t, x: a @ x, np.eye(2), 0.0, 1.0, 200,
                                direction="backward")
    np.testing.assert_allclose(grid.values[0], expm(-a), rtol=0, atol=1e-9)


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    ref = expm(a)

    def err(steps):
        grid = integrate_matrix_ode(lambda t, x: a @ x, np.eye(3), 0.0, 1.0, steps)
        return np.max(np.abs(grid.values[-1] - ref))

    ratio = err(50) / err(100)
    assert 13.0 <= ratio <= 19.0


def test_symmetrize_is_noop_for_symmetric_flows():
    sym = np.array([[1.0, 0.3], [0.3, 2.0]])

    def rhs(t, x):
        return -x  # maps symmetric to symmetric

    plain = integrate_matrix_ode(rhs, sym, 0.0, 1.0, 64)
    forced = integrate_matrix_ode(rhs, sym, 0.0, 1.0, 64, symmetrize=True)
    np.testing.assert_allclose(plain.values, forced.values, rtol=0, atol=1e-15)


def test_post_step_hook_applied():
    def clip(state):
        return np.minimum(state, 0.5)

    grid = integrate_matrix_ode(lambda t, x: np.ones_like(x), np.zeros((1, 1)),
                                0.0, 2.0, 20, post_step=clip)
    assert grid.values[-1][0, 0] == 0.5


def test_divergence_reports_step_and_time():
    # dx/dt = x^2 from x(0) = 1 blows up at t = 1.
    with pytest.raises(DivergenceError, match=r"step \d+.*t = "):
        integrate_matrix_ode(lambda t, x: x * x, np.array([[1.0]]), 0.0, 2.0, 40)


def test_divergence_raises_without_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=r"step \d+.*t = ") as err:
            integrate_matrix_ode(lambda t, x: x * x, np.array([[1.0]]), 0.0, 2.0, 40)
    assert str(err.value) == "non-finite state at step 23 of 40 (t = 1.15)"


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_rhs_evaluated_on_the_stage_lattice(direction):
    t0, t1, steps = 0.3, 2.9, 7
    seen = []

    def rhs(t, x):
        seen.append(t)
        return -x

    integrate_matrix_ode(rhs, np.eye(2), t0, t1, steps, direction=direction)
    lattice = rk4_stage_times(t0, t1, steps)
    expected = [lattice[i] for k in range(steps)
                for i in (2 * k, 2 * k + 1, 2 * k + 1, 2 * k + 2)]
    if direction == "backward":
        expected = [(t0 + t1) - s for s in expected]
    assert seen == expected
    assert lattice[0] == t0 and lattice[-1] == t1
    h = (t1 - t0) / steps
    assert np.array_equal(np.rint((lattice - t0) / (0.5 * h)), np.arange(2 * steps + 1))


def test_single_step_grid():
    grid = integrate_matrix_ode(lambda t, x: np.zeros_like(x), np.eye(2), 0.0, 5.0, 1)
    assert len(grid.times) == 2
    assert np.array_equal(grid.values[1], np.eye(2))


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        integrate_matrix_ode(lambda t, x: x, np.eye(1), 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        integrate_matrix_ode(lambda t, x: x, np.eye(1), 0.0, 1.0, 0)


class TestSampleGrid:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((11, 2, 2))
        grid = TimeGrid(np.linspace(0.0, 1.0, 11), values)
        for i, t in enumerate(grid.times):
            assert np.array_equal(sample_grid(grid, float(t)), values[i])

    def test_constant_grid(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 5), np.ones((5, 2, 2)))
        np.testing.assert_array_equal(sample_grid(grid, 0.33), np.ones((2, 2)))

    def test_linear_function_reproduced(self):
        times = np.linspace(0.0, 1.0, 21)
        grid = TimeGrid(times, times.reshape(-1, 1, 1))
        assert abs(sample_grid(grid, 0.35)[0, 0] - 0.35) < 1e-15

    def test_out_of_range_rejected(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 5), np.ones((5, 1, 1)))
        with pytest.raises(ValueError):
            sample_grid(grid, -0.1)
        with pytest.raises(ValueError):
            sample_grid(grid, 1.1)

    def test_vectorised_form_matches_per_time_calls(self):
        rng = np.random.default_rng(1)
        times = np.linspace(0.0, 5.0, 41)
        grid = TimeGrid(times, rng.standard_normal((41, 3, 2)))
        fuzz = 64.0 * np.finfo(float).eps * 5.0
        ts = np.concatenate([
            rk4_stage_times(0.0, 5.0, 40), rk4_stage_times(0.0, 5.0 + 0.25 * fuzz, 40),
            rng.uniform(0.0, 5.0, 50), [-0.5 * fuzz, 5.0 + 0.5 * fuzz, -0.0],
        ])
        table = sample_grid_at(grid, ts)
        assert table.shape == (len(ts), 3, 2)
        for t, row in zip(ts, table):
            assert np.array_equal(row, sample_grid(grid, float(t)))

    def test_vectorised_form_on_one_node_grid(self):
        grid = TimeGrid([0.0], np.ones((1, 2, 2)))
        assert np.array_equal(sample_grid_at(grid, [0.0, 0.0]), np.ones((2, 2, 2)))

    def test_vectorised_form_rejects_out_of_range(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 5), np.ones((5, 1, 1)))
        with pytest.raises(ValueError, match=r"t = 1\.1 outside"):
            sample_grid_at(grid, [0.5, 1.1, -0.1])
