import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import n8_spec, reference_spec
from qmemctl import (
    DivergenceError,
    TimeGrid,
    derive_system_matrices,
    hamiltonian_matrix,
    integrate_matrix_ode,
    sample_grid,
    solve_control,
    solve_filter,
)
from qmemctl import ode
from qmemctl.ode import lattice_values, mobius_riccati, node_times, rk4_stage_times


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


class TestLatticeValues:
    """ode.lattice_values: node values interpolated on a lattice of sub points per step."""

    @staticmethod
    def _values(steps, seed=1):
        return np.random.default_rng(seed).standard_normal((steps + 1, 3, 2))

    @pytest.mark.parametrize("steps, sub", [(1, 1), (1, 2), (40, 2), (40, 4), (37, 8)])
    def test_nodes_returned_bitwise(self, steps, sub):
        values = self._values(steps)
        table = lattice_values(values, sub, 0, steps * sub + 1)
        assert table.shape == (steps * sub + 1, 3, 2)
        assert np.array_equal(table[::sub], values)

    @pytest.mark.parametrize("sub", [1, 2, 4])
    def test_block_equals_slice_of_whole_lattice(self, sub):
        steps = 37
        values = self._values(steps, seed=2)
        whole = lattice_values(values, sub, 0, steps * sub + 1)
        rng = np.random.default_rng(3)
        blocks = [(0, 1), (0, steps * sub + 1), (steps * sub, steps * sub + 1), (5, 5)]
        blocks += [tuple(sorted(rng.integers(0, steps * sub + 2, 2))) for _ in range(20)]
        for lo, hi in blocks:
            assert np.array_equal(lattice_values(values, sub, lo, hi), whole[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("t0, t1, steps, sub", [
        (0.0, 4.0, 16, 4), (0.0, 5.0, 40, 2), (0.3, 2.9, 7, 4), (0.0, 5.0, 10_000, 2),
        (-1.0, 3.0, 13, 8),
    ])
    def test_agrees_with_sample_grid(self, t0, t1, steps, sub):
        # sample_grid takes its weight from rounded times, off by up to about
        # eps |t| / h, so the node values sample a smooth function, as gain
        # schedules do: the error then stays near eps |t| |v'| whatever h is.
        rng = np.random.default_rng(4)
        rate, phase = rng.uniform(-2.0, 2.0, (2, 3, 2))
        times = node_times(t0, t1, steps)
        values = np.sin(times[:, None, None] * rate + phase)
        grid = TimeGrid(times, values)
        points = np.arange(steps * sub + 1)
        if points.size > 2000:
            points = np.unique(np.r_[points[:200], points[-200:], rng.choice(points, 1000)])
        h = (t1 - t0) / steps
        table = lattice_values(values, sub, 0, steps * sub + 1)
        scale = 1.0 + np.max(np.abs(values))
        for j in points:
            t = min(t0 + j * (h / sub), t1)
            assert np.max(np.abs(table[j] - sample_grid(grid, t))) <= 1e-15 * scale, j


class TestExpmMinusIdentity:
    """ode.expm_minus_identity against scipy.linalg.expm, and exact exponentials.

    Errors are measured relative to 1 + max |expm(A) - I|.  Random general
    matrices are compared with scipy only below theta_13 (1-norm 5.37): far
    above it the two differ by up to 4e-11 on random inputs, and a 40-digit
    reference puts the error on scipy's side.  Far above theta_13 the
    references are the scenario Hamiltonians, for which the two agree, and
    exponentials known in closed form.
    """

    SIZES = [1, 2, 3, 4, 5, 8, 13, 16, 32]

    @staticmethod
    def _rel(actual, expected):
        return np.max(np.abs(actual - expected)) / (1.0 + np.max(np.abs(expected)))

    def _check(self, a, exact=None):
        expected = (expm(a) if exact is None else exact) - np.eye(len(a))
        assert self._rel(ode.expm_minus_identity(a), expected) <= 1e-13

    @pytest.mark.parametrize("size", SIZES)
    def test_zero_matrix_gives_zero(self, size):
        assert not ode.expm_minus_identity(np.zeros((size, size))).any()

    @pytest.mark.parametrize("size", SIZES)
    def test_small_matrices_keep_relative_accuracy(self, size):
        # expm(A) - I = A + A^2/2 + A^3/6 + ... to double precision at |A| = 1e-6,
        # where forming expm(A) first would lose ten digits.
        a = np.random.default_rng(size).standard_normal((size, size))
        a *= 1e-6 / np.linalg.norm(a, 1)
        series = a + a @ a / 2.0 + a @ a @ a / 6.0
        err = np.max(np.abs(ode.expm_minus_identity(a) - series))
        assert err <= 1e-15 * np.max(np.abs(series))

    @pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.5, 2.5])
    @pytest.mark.parametrize("size", SIZES)
    def test_random_matrices_below_theta13(self, size, norm):
        rng = np.random.default_rng(size)
        for _ in range(3):
            a = rng.standard_normal((size, size))
            self._check(a * (norm / np.linalg.norm(a, 1)))

    @pytest.mark.parametrize("scale", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("spec", [reference_spec(10_000), n8_spec(1, 10_000)],
                             ids=["reference", "n8"])
    def test_scenario_hamiltonians(self, spec, scale):
        h, _ = hamiltonian_matrix(derive_system_matrices(spec))
        self._check(h * (spec.tau / spec.steps))
        self._check(h * scale)
        assert np.linalg.norm(h * 20.0, 1) > 20 * ode._THETA13

    @pytest.mark.parametrize("norm", [0.5, 20.0, 60.0])
    @pytest.mark.parametrize("size", [2, 8, 32])
    def test_symmetric_matrices_of_known_spectrum(self, size, norm):
        rng = np.random.default_rng(size)
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        lam = rng.uniform(-1.0, 1.0, size)
        lam *= norm / np.max(np.abs(lam))
        self._check((q * lam) @ q.T, exact=(q * np.exp(lam)) @ q.T)

    @pytest.mark.parametrize("a, b, c", [(-300.0, 400.0, 2.0), (100.0, -500.0, 99.0),
                                         (-0.5, 1000.0, -700.0)])
    def test_nonnormal_triangular_closed_form(self, a, b, c):
        exact = np.array([[np.exp(a), b * (np.exp(a) - np.exp(c)) / (a - c)],
                          [0.0, np.exp(c)]])
        self._check(np.array([[a, b], [0.0, c]]), exact=exact)


def _riccati_case(seed, n=3):
    """Random alpha, beta = B B', gamma = C C' and a PSD initial value."""
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((n, n))
    b, c, p = 0.5 * rng.standard_normal((3, n, n))
    return alpha, b @ b.T, c @ c.T, p @ p.T


def _escape_case(p0, steps):
    """dP/dt = P^2 on the first diagonal entry from diag(p0, 0) over [0, 2].

    The entry escapes at t = 1 / p0; X = Phi11 + Phi12 P is 1 - s P on it, so
    it vanishes there.  |M|_1 = 1, so a block spans floor(0.25 / h) nodes.
    """
    eye = np.eye(2)
    return (0 * eye, 0 * eye, -eye, np.diag([p0, 0.0]), 0.0, 2.0, steps)


def _overflow_case():
    """dp/dt = 2p from 1e307 over [0, 2] in 200 steps: P + P' overflows near t = 1.098."""
    zero = np.zeros((1, 1))
    return (np.ones((1, 1)), zero, zero, np.array([[1e307]]), 0.0, 2.0, 200)


def _block_length(case):
    """Nodes per batched solve: min(64, steps, floor(0.25 / (|M|_1 h))), at least 1."""
    alpha, beta, gamma, _, t0, t1, steps = case
    reach = np.linalg.norm(np.block([[-alpha.T, gamma], [beta, alpha]]), 1) * (t1 - t0) / steps
    return max(1, min(ode._MOBIUS_BLOCK, steps, int(0.25 / reach)))


def _divergence_message(case, monkeypatch, block):
    monkeypatch.setattr(ode, "_MOBIUS_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            mobius_riccati(*case)
    return str(err.value)


def _singular_case():
    """`_escape_case` with p0 = -1 / E12, E = expm(2 h M) - I.

    The X that reaches node 2 from P0 in one span, 1 + p0 E12, is exactly
    zero, and so is the X of step 2 when stepping one node at a time.
    """
    alpha, beta, gamma, *_ = _escape_case(1.0, 100)
    m = np.block([[-alpha.T, gamma], [beta, alpha]])
    return _escape_case(-1.0 / ode.expm_minus_identity(m * (2 * 0.02))[0, 2], 100)


class TestMobiusRiccati:
    def test_matches_fine_rk4(self):
        alpha, beta, gamma, p0 = _riccati_case(1)

        def rhs(_t, p):
            return alpha @ p + p @ alpha.T + beta - p @ gamma @ p

        rk4 = integrate_matrix_ode(rhs, p0, 0.0, 1.0, 4000)
        for steps in (1, 8, 40):
            grid = mobius_riccati(alpha, beta, gamma, p0, 0.0, 1.0, steps)
            np.testing.assert_allclose(grid.times, rk4.times[::4000 // steps], rtol=0,
                                       atol=1e-15)
            assert np.array_equal(grid.values[0], p0)
            scale = 1.0 + np.max(np.abs(rk4.values))
            assert np.max(np.abs(grid.values - rk4.values[::4000 // steps])) <= 1e-11 * scale

    def test_step_count_does_not_matter(self):
        alpha, beta, gamma, p0 = _riccati_case(2)
        one = mobius_riccati(alpha, beta, gamma, p0, 0.0, 2.0, 1).values[-1]
        many = mobius_riccati(alpha, beta, gamma, p0, 0.0, 2.0, 500).values[-1]
        assert np.max(np.abs(one - many)) <= 1e-12 * (1.0 + np.max(np.abs(many)))

    def test_states_symmetric(self):
        alpha, beta, gamma, p0 = _riccati_case(3)
        values = mobius_riccati(alpha, beta, gamma, p0, 0.0, 1.0, 30).values
        assert np.array_equal(values, np.swapaxes(values, 1, 2))

    def test_backward_is_the_reversed_forward_solve(self):
        alpha, beta, gamma, p0 = _riccati_case(4)
        forward = mobius_riccati(alpha, beta, gamma, p0, 0.5, 2.0, 12)
        backward = mobius_riccati(alpha, beta, gamma, p0, 0.5, 2.0, 12, direction="backward")
        assert np.array_equal(backward.times, forward.times)
        assert np.array_equal(backward.values, forward.values[::-1])
        assert np.array_equal(backward.values[-1], p0)

    def test_bad_arguments_rejected(self):
        alpha, beta, gamma, p0 = _riccati_case(5)
        with pytest.raises(ValueError):
            mobius_riccati(alpha, beta, gamma, p0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            mobius_riccati(alpha, beta, gamma, p0, 1.0, 1.0, 4)
        with pytest.raises(ValueError, match="direction"):
            mobius_riccati(alpha, beta, gamma, p0, 0.0, 1.0, 4, direction="sideways")

    def test_singular_step_names_step_and_time(self):
        # dP/dt = P^2 from diag(1, 0) escapes at t = 1, where X = I - h P0 is singular.
        eye = np.eye(2)
        with pytest.raises(DivergenceError,
                           match=r"^test: .*Phi11 \+ Phi12 P.* at step 1 of 2 \(t = 1\)$"):
            mobius_riccati(0 * eye, 0 * eye, -eye, np.diag([1.0, 0.0]), 0.0, 2.0, 2,
                           what="test")

    def test_ill_conditioned_step_rejected(self):
        # X = I - h diag(1, 0) has condition number 1e10 at h = 1 - 1e-10.
        eye = np.eye(2)
        with pytest.raises(DivergenceError, match=r"cond\(Phi11 \+ Phi12 P\) = .* step 1 of 1"):
            mobius_riccati(0 * eye, 0 * eye, -eye, np.diag([1.0, 0.0]), 0.0, 1.0 - 1e-10, 1)

    def test_overflow_raises_without_warnings(self):
        # dp/dt = 2p from p(0) = 1e308 overflows in the first step.
        zero = np.zeros((1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                mobius_riccati(np.ones((1, 1)), zero, zero, np.array([[1e308]]), 0.0, 1.0, 1)
        assert str(err.value) == "Riccati solution: non-finite state at step 1 of 1 (t = 1)"


    @pytest.mark.parametrize("case, step, expected", [
        (_singular_case(), 2, r"singular Phi11 \+ Phi12 P at step 2 of 100 \(t = 0.04\)$"),
        (_overflow_case(), 110, r"non-finite state at step 110 of 200 \(t = 1.1\)$"),
        (_escape_case(1.0, 100), 50,
         r"cond\(Phi11 \+ Phi12 P\) = .* at step 50 of 100 \(t = 1\)$"),
    ], ids=["singular", "non_finite", "ill_conditioned"])
    def test_divergence_inside_a_block_named_exactly(self, monkeypatch, case, step, expected):
        # Blocked and per-node stepping name the same step and time, and the
        # failing node is not the first of its block.
        block = _block_length(case)
        assert block > 1 and (step - 1) % block != 0
        blocked = _divergence_message(case, monkeypatch, block)
        per_node = _divergence_message(case, monkeypatch, 1)
        assert re.search(expected, blocked) and re.search(expected, per_node)
        if step != 50:  # X over a longer span has another condition number
            assert blocked == per_node

    @pytest.mark.parametrize("steps", [2000, 10000])
    @pytest.mark.parametrize("spec", [reference_spec, lambda steps: n8_spec(1, steps)],
                             ids=["reference", "n8"])
    def test_blocked_matches_per_node_solve(self, monkeypatch, spec, steps):
        spec = spec(steps)
        sys_m = derive_system_matrices(spec)

        def solve():
            return (solve_filter(sys_m, spec.cov0, spec.tau, steps).P_full,
                    solve_control(sys_m, spec.Pi, spec.tau, steps).Q_full)

        blocked = solve()
        monkeypatch.setattr(ode, "_MOBIUS_BLOCK", 1)
        for a, b in zip(blocked, solve()):
            assert np.max(np.abs(a - b)) <= 1e-13 * (1.0 + np.max(np.abs(b)))


class TestPsdMonitor:
    """warn_if_not_psd screens with a shifted Cholesky and names the node by eigvalsh."""

    @staticmethod
    def _stack(rng, n, min_eigs):
        """Random symmetric matrices with spectra in [min_eig, 1] and max |entry| <= 1."""
        stack = []
        for low in min_eigs:
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = np.concatenate([[low], rng.uniform(0.1, 1.0, n - 1)])
            stack.append((basis * spectrum) @ basis.T)
        return np.array(stack)

    @staticmethod
    def _warns(values):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ode.warn_if_not_psd(values, np.linspace(0.0, 1.0, len(values)), "P")
        return [str(w.message) for w in caught]

    @pytest.mark.parametrize("n", [2, 8])
    def test_names_the_node_below_tolerance(self, n):
        values = self._stack(np.random.default_rng(n), n, [0.2] * 7)
        delta = -ode.PSD_WARN_TOL * (1.0 + np.max(np.abs(values)))
        values[4] = self._stack(np.random.default_rng(1), n, [-2 * delta])[0]
        delta = -ode.PSD_WARN_TOL * (1.0 + np.max(np.abs(values)))
        messages = self._warns(values)
        assert len(messages) == 1
        assert f"at t = {np.linspace(0.0, 1.0, 7)[4]:.6g}" in messages[0]
        assert float(re.search(r"eigenvalue (\S+) at", messages[0]).group(1)) < -delta

    @pytest.mark.parametrize("n", [2, 8])
    def test_silent_within_tolerance(self, n, monkeypatch):
        values = self._stack(np.random.default_rng(n), n, [0.2] * 7)
        delta = -ode.PSD_WARN_TOL * (1.0 + np.max(np.abs(values)))
        values[4] = self._stack(np.random.default_rng(1), n, [-delta / 2])[0]

        def fail(*args):
            raise AssertionError("eigenvalues computed although the screen passed")

        with monkeypatch.context() as patch:  # the shifted Cholesky alone decides
            patch.setattr(np.linalg, "eigvalsh", fail)
            assert self._warns(values) == []

        def refuse(*args):
            raise np.linalg.LinAlgError("screen refused")

        # A screen refused by round-off leaves the verdict to the eigenvalues.
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert self._warns(values) == []

    @pytest.mark.parametrize("n", [2, 8])
    def test_screen_agrees_with_eigvalsh(self, n):
        # Minimum eigenvalues spread over (-6e-8, 2e-8), around the
        # tolerance, which lies in [-2e-8, -1e-8] for entries of at most 1;
        # eigenvalue round-off (~1e-15) decides none of them.
        rng = np.random.default_rng(100 + n)
        outcomes = []
        for _ in range(100):
            values = self._stack(rng, n, rng.uniform(-6e-8, 2e-8, 3))
            bound = ode.PSD_WARN_TOL * (1.0 + np.max(np.abs(values)))
            expected = np.linalg.eigvalsh(values).min() < bound
            assert bool(self._warns(values)) == expected
            outcomes.append(expected)
        assert 10 < sum(outcomes) < 90
