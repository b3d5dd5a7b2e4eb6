import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import n8_spec
from qmemctl import (
    ControlRiccati,
    DivergenceError,
    GridMismatchError,
    bellman_value,
    closedloop,
    decoherence_time,
    derive_system_matrices,
    min_cost_identity,
    moment_rhs,
    ode,
    solve_closed_loop,
    solve_control,
    solve_filter,
)
from qmemctl.closedloop import _closed_loop_coefficients, _cumtrapz, _lyapunov_rhs
from qmemctl.model import ScenarioSpec
from qmemctl.ode import TimeGrid, congruence, integrate_matrix_ode, sample_grid


def _spec(**overrides):
    base = dict(
        n=2, m=2, d=1, r=1, s=2,
        R=np.eye(2), M=np.eye(2), N=[[0.0, 1.0]], D=[[1.0, 0.0]],
        F=np.eye(2), Pi=[[1.0]], mean0=[1.0, 0.0], cov0=0.5 * np.eye(2),
        tau=5.0, steps=1000,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _pipeline(spec):
    sys_m = derive_system_matrices(spec)
    filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
    ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
    closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau)
    return sys_m, filt, ctrl, closed


def _t0(spec):
    return np.kron(np.ones((2, 2)), np.outer(spec.mean0, spec.mean0))


def _lattice_rule(times):
    """Gain at an RK4 stage time by the lattice rule, restated per stage.

    Stage time t is lattice point j = round(t / (h/2)): node k = j / 2, or the
    midpoint of step k = (j - 1) / 2 at weight exactly 1/2; the last node is
    step N - 1 at weight 1.
    """
    steps = len(times) - 1
    per_half_step = 2.0 * steps / (times[-1] - times[0])

    def gain_at(values, t):
        j = round((t - times[0]) * per_half_step)
        k = min(j // 2, steps - 1)
        w = (j - 2 * k) / 2
        return (1.0 - w) * values[k] + w * values[k + 1]

    return gain_at


def _time_search(times):
    """Gain at a stage time by sample_grid, its weight taken from rounded times."""
    return lambda values, t: sample_grid(TimeGrid(times, values), t)


def _lyapunov_rk4_moments(sys_m, filt, ctrl, mean0, tau):
    """T from RK4 of the Lyapunov equation itself, K and c by the lattice rule per stage.

    The bordered state [[T, x], [x', 1]] is stepped by ode's generic RK4 loop
    with the library's Lyapunov stage: the scheme the transition recursion
    replaced, and a fourth-order reference it must converge to.
    """
    times = filt.times
    steps = len(times) - 1
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)
    dim = 2 * mean0.size
    gain_at = _lattice_rule(times)

    def rhs(t, state):
        a = np.zeros((dim + 1, dim + 1))
        f = np.zeros((dim + 1, dim + 1))
        a[:dim, :dim], f[:dim, :dim] = _closed_loop_coefficients(
            gain_at(ctrl.c, t), gain_at(filt.K, t), sys_m)
        return _lyapunov_rhs(a, state, f)

    z0 = np.concatenate([mean0, mean0, [1.0]])
    bordered = integrate_matrix_ode(rhs, np.outer(z0, z0), 0.0, tau, steps).values
    return bordered[:, :dim, :dim]


def _transition_closed_loop(sys_m, filt, ctrl, mean0, tau, gain_override=None,
                            rule=_lattice_rule):
    """T, x_mean, Phi, Delta and H_pont by Z_{k+1} = Psi_k Z_k Psi_k' + F_k, step by step.

    For each step on its own, Psi_k is one RK4 step of X' = a X from X = I
    and F_k one RK4 step of the library's Lyapunov stage from Z = 0, each by
    integrate_matrix_ode over [0, h] with K and c from `rule(times)` at
    every stage time.  Every node is symmetrized, and the recursion restarts
    from the symmetrized state after every closedloop._BLOCK_STEPS steps, as
    the library's blocks do.  With the default lattice rule this is the
    reference the batched maps and the in-place stepper must reproduce
    bitwise.
    """
    times = filt.times
    steps = len(times) - 1
    h = tau / steps
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)
    dim = 2 * mean0.size
    c_values = ctrl.c if gain_override is None else np.asarray(gain_override, dtype=float)
    gain_at = rule(times)

    def one_step(rhs, init):
        return integrate_matrix_ode(rhs, init, 0.0, h, 1).values[1]

    z0 = np.concatenate([mean0, mean0, [1.0]])
    bordered = np.empty((steps + 1, dim + 1, dim + 1))
    bordered[0] = z = np.outer(z0, z0)
    psi = np.eye(dim + 1)
    forcing = np.zeros((dim + 1, dim + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            def coefficients(s, t_k=times[k]):
                return _closed_loop_coefficients(
                    gain_at(c_values, t_k + s), gain_at(filt.K, t_k + s), sys_m)

            def lyapunov(s, y):
                a, f = coefficients(s)
                return _lyapunov_rhs(a, y, f)

            psi[:dim, :dim] = one_step(lambda s, x: coefficients(s)[0] @ x, np.eye(dim))
            forcing[:dim, :dim] = one_step(lyapunov, np.zeros((dim, dim)))
            z = psi @ z @ psi.T + forcing
            bordered[k + 1] = 0.5 * (z + z.T)
            if not np.isfinite(bordered[k + 1]).all():
                raise DivergenceError(
                    f"non-finite state at step {k + 1} of {steps} (t = {times[k + 1]:.6g})")
            if (k + 1) % closedloop._BLOCK_STEPS == 0:
                z = bordered[k + 1]
    moments = bordered[:, :dim, :dim].copy()
    x_mean = bordered[:, :dim, dim].copy()
    delta = np.einsum("ij,tij->t", sys_m.Lambda, moments + filt.P_full)
    energy = np.einsum("tij,tij->t", c_values.swapaxes(1, 2) @ ctrl.Pi @ c_values, moments)
    phi = delta + _cumtrapz(energy, (times[-1] - times[0]) / steps)
    q_dot = ControlRiccati(sys_m, ctrl.Pi).rhs_full(ctrl.Q_full)
    h_pont = (np.einsum("tij,tij->t", ctrl.Q_full, congruence(filt.K, sys_m.G))
              - np.einsum("tij,tij->t", q_dot, moments))
    return dict(T=moments, x_mean=x_mean, Phi=phi, Delta=delta, H_pont=h_pont)


def _separate_mean_pass(sys_m, ctrl, mean0, tau, gain_override=None):
    """x_mean from its own RK4 pass of x' = (sA + sE c(t)) x, c interpolated per stage."""
    times = ctrl.times
    c_values = ctrl.c if gain_override is None else gain_override
    c_grid = TimeGrid(times, c_values)

    def rhs(t, state):
        return (sys_m.sA + sys_m.sE @ sample_grid(c_grid, t)) @ state

    mean0 = np.asarray(mean0, dtype=float)
    return integrate_matrix_ode(rhs, np.concatenate([mean0, mean0]), 0.0, tau,
                                len(times) - 1).values


def _assert_matches_interpolation(spec, gain_override=None):
    sys_m, filt, ctrl, _ = _pipeline(spec)
    override = None if gain_override is None else gain_override(ctrl)
    closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                               gain_override=override)
    expected = _transition_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                       gain_override=override)
    for name, values in expected.items():
        assert np.array_equal(getattr(closed, name), values), name


class TestMomentRhs:
    def test_zero_state_zero_gain(self, ref_sys):
        out = moment_rhs(np.zeros((4, 4)), np.zeros((1, 4)), np.zeros((4, 1)), ref_sys)
        assert not out.any()

    def test_open_loop_form(self, ref_sys):
        rng = np.random.default_rng(2)
        t_seed = rng.standard_normal((4, 4))
        t_mat = t_seed @ t_seed.T
        k = rng.standard_normal((4, 1))
        out = moment_rhs(t_mat, np.zeros((1, 4)), k, ref_sys)
        expected = ref_sys.sA @ t_mat + t_mat @ ref_sys.sA.T + k @ ref_sys.G @ k.T
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_symmetric_output(self, ref_sys):
        rng = np.random.default_rng(3)
        t_seed = rng.standard_normal((4, 4))
        t_mat = t_seed @ t_seed.T
        out = moment_rhs(t_mat, rng.standard_normal((1, 4)),
                         rng.standard_normal((4, 1)), ref_sys)
        np.testing.assert_allclose(out, out.T, atol=1e-13)

    def test_stacked_input_matches_per_node(self, ref_sys):
        rng = np.random.default_rng(8)
        t_stack = rng.standard_normal((5, 4, 4))
        c_stack = rng.standard_normal((5, 1, 4))
        k_stack = rng.standard_normal((5, 4, 1))
        stacked = moment_rhs(t_stack, c_stack, k_stack, ref_sys)
        per_node = np.array([moment_rhs(t, c, k, ref_sys)
                             for t, c, k in zip(t_stack, c_stack, k_stack)])
        np.testing.assert_allclose(stacked, per_node, rtol=0, atol=1e-13)


class TestGainTables:
    """solve_closed_loop builds its transitions from tables, bitwise as the per-step recursion."""

    def test_reference_scenario(self):
        _assert_matches_interpolation(_spec(steps=2000))

    def test_n8_scenario(self):
        _assert_matches_interpolation(n8_spec(1, steps=500))

    def test_gain_override(self):
        rng = np.random.default_rng(21)
        _assert_matches_interpolation(
            _spec(steps=2000),
            gain_override=lambda ctrl: ctrl.c + 0.05 * rng.standard_normal(ctrl.c.shape),
        )

    def test_one_step_grid(self):
        _assert_matches_interpolation(_spec(tau=0.05, steps=1))

    @pytest.mark.parametrize("spec", [_spec(steps=2000), n8_spec(1, steps=2000)],
                             ids=["reference", "n8"])
    def test_close_to_time_search_interpolation(self, spec):
        # The lattice rule weighs a midpoint by exactly 1/2; sample_grid's
        # weight, from rounded times, is off 1/2 by up to about 1e-12.
        sys_m, filt, ctrl, closed = _pipeline(spec)
        expected = _transition_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                           rule=_time_search)
        for name, values in expected.items():
            scale = 1.0 + np.max(np.abs(values))
            assert np.max(np.abs(getattr(closed, name) - values)) <= 1e-15 * scale, name

    def test_no_sample_grid_call(self, monkeypatch, ref_spec, ref_sys, ref_filter,
                                 ref_control, ref_closed):
        def forbidden(*args, **kwargs):
            raise AssertionError("sample_grid called")

        monkeypatch.setattr(ode, "sample_grid", forbidden)
        if hasattr(closedloop, "sample_grid"):
            monkeypatch.setattr(closedloop, "sample_grid", forbidden)
        closed = solve_closed_loop(ref_sys, ref_filter, ref_control, ref_spec.mean0,
                                   ref_spec.tau)
        assert np.array_equal(closed.T, ref_closed.T)
        assert np.array_equal(closed.x_mean, ref_closed.x_mean)


class TestTransitionRecursion:
    """The recursion against RK4 of the Lyapunov equation, and the structure it keeps."""

    @pytest.mark.parametrize("spec", [_spec(steps=250), n8_spec(1, steps=250)],
                             ids=["reference", "n8"])
    def test_fourth_order_against_lyapunov_rk4(self, spec):
        # Both schemes are fourth order, so their gap falls about 16x per
        # doubling while it is above round-off.
        gaps = []
        for steps in (spec.steps, 2 * spec.steps, 4 * spec.steps):
            scaled = dataclasses.replace(spec, steps=steps)
            sys_m, filt, ctrl, closed = _pipeline(scaled)
            expected = _lyapunov_rk4_moments(sys_m, filt, ctrl, scaled.mean0, scaled.tau)
            gaps.append(np.max(np.abs(closed.T - expected)) / np.max(np.abs(expected)))
        assert gaps[0] > 1e-12
        assert gaps[0] / gaps[1] >= 12.0 and gaps[1] / gaps[2] >= 12.0, gaps

    @pytest.mark.parametrize("spec, perturb", [
        (_spec(steps=2000), False),
        (n8_spec(1, steps=500), False),
        (_spec(steps=2000), True),
        (n8_spec(1, steps=500), True),
    ], ids=["reference", "n8", "reference_override", "n8_override"])
    def test_exactly_symmetric_at_every_node(self, spec, perturb):
        sys_m, filt, ctrl, closed = _pipeline(spec)
        if perturb:
            rng = np.random.default_rng(5)
            override = ctrl.c + 0.05 * rng.standard_normal(ctrl.c.shape)
            closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                       gain_override=override)
        assert np.array_equal(closed.T, closed.T.swapaxes(1, 2))


class TestDivergence:
    def test_overflow_names_first_non_finite_step(self):
        # A constant gain of 200 makes sA + sE c unstable enough that Z
        # overflows at step 716, inside the third block of 256 steps.
        spec = _spec(steps=2000)
        sys_m, filt, ctrl, _ = _pipeline(spec)
        override = np.full_like(ctrl.c, 200.0)
        with pytest.raises(DivergenceError) as per_step:
            _transition_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                    gain_override=override)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                  gain_override=override)
        assert str(err.value) == "non-finite state at step 716 of 2000 (t = 1.79)"
        assert str(err.value) == str(per_step.value)
        assert 716 > closedloop._BLOCK_STEPS
        assert (716 - 1) % closedloop._BLOCK_STEPS != 0


class TestBorderedMean:
    """x_mean rides on the border of the Lyapunov state; a separate pass agrees to round-off."""

    @pytest.mark.parametrize("spec, perturb", [
        (_spec(steps=2000), False),
        (n8_spec(1, steps=500), False),
        (_spec(d=0, N=np.zeros((0, 2)), Pi=np.zeros((0, 0)), steps=2000), False),
        (_spec(steps=2000), True),
    ], ids=["reference", "n8", "uncontrolled", "gain_override"])
    def test_matches_separate_pass(self, spec, perturb):
        sys_m, filt, ctrl, _ = _pipeline(spec)
        override = None
        if perturb:
            rng = np.random.default_rng(21)
            override = ctrl.c + 0.05 * rng.standard_normal(ctrl.c.shape)
        closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau,
                                   gain_override=override)
        expected = _separate_mean_pass(sys_m, ctrl, spec.mean0, spec.tau, override)
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(closed.x_mean - expected)) <= 1e-15 * scale


class TestMemory:
    def test_outputs_own_contiguous_data(self, ref_closed):
        for values in (ref_closed.T, ref_closed.x_mean):
            assert values.flags.owndata
            assert values.flags.c_contiguous

    def test_traced_peak_below_bound(self):
        # The coefficient tables span one block of steps, not the whole
        # lattice: full-lattice tables would take this case to about 44 MB.
        spec = n8_spec(1, steps=2000)
        sys_m = derive_system_matrices(spec)
        filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
        ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
        tracemalloc.start()
        try:
            solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestSolveClosedLoop:
    def test_deviation_starts_at_zero(self, ref_closed, baseline_closed):
        assert abs(ref_closed.Delta[0]) <= 1e-14
        assert abs(baseline_closed.Delta[0]) <= 1e-14

    def test_deterministic_zero_system_stays_zero(self):
        spec = _spec(M=np.zeros((2, 2)), cov0=np.zeros((2, 2)), mean0=[0.0, 0.0],
                     steps=200)
        _, _, _, closed = _pipeline(spec)
        assert not closed.T.any()
        assert np.max(np.abs(closed.Delta)) == 0.0
        assert np.max(np.abs(closed.Phi)) == 0.0

    def test_initial_moment_matches_mean(self, ref_spec, ref_closed):
        np.testing.assert_array_equal(ref_closed.T[0], _t0(ref_spec))
        np.testing.assert_array_equal(
            ref_closed.x_mean[0], np.concatenate([ref_spec.mean0, ref_spec.mean0])
        )

    def test_running_cost_dominates_deviation(self, ref_closed):
        # Phi - Delta is the control-energy integral: nonnegative and
        # non-decreasing.  (Phi itself is not monotone; the optimal
        # controller pulls the state back toward its initial value near the
        # horizon, so Delta can fall faster than energy accrues.)
        gap = ref_closed.Phi - ref_closed.Delta
        assert gap.min() >= -1e-12
        assert np.diff(gap).min() >= -1e-12

    def test_uncontrolled_baseline_not_better(self, ref_closed, baseline_closed):
        assert baseline_closed.Delta[-1] >= ref_closed.Phi[-1]

    def test_zero_gain_override_gives_pure_deviation(self, ref_spec, ref_sys,
                                                     ref_filter, ref_control):
        closed = solve_closed_loop(
            ref_sys, ref_filter, ref_control, ref_spec.mean0, ref_spec.tau,
            gain_override=np.zeros_like(ref_control.c),
        )
        np.testing.assert_allclose(closed.Phi, closed.Delta, atol=1e-14)

    def test_grid_mismatch_rejected(self, ref_spec, ref_sys, ref_filter, ref_control):
        short = solve_control(ref_sys, ref_spec.Pi, ref_spec.tau, 100)
        with pytest.raises(GridMismatchError):
            solve_closed_loop(ref_sys, ref_filter, short, ref_spec.mean0, ref_spec.tau)


class TestDeviation:
    def test_tiled_matrix_annihilates(self, ref_sys):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((2, 2))
        s = np.kron(np.ones((2, 2)), block)
        assert abs(np.sum(ref_sys.Lambda * s)) <= 1e-15

    def test_self_pairing(self, ref_sys):
        lam = ref_sys.Lambda
        assert abs(np.sum(lam * lam) - np.linalg.norm(lam) ** 2) <= 1e-12


class TestCostIdentity:
    def test_cost_equals_phi_grid_end(self, ref_spec, ref_control, ref_closed):
        """Phi(tau) = Delta(tau) + trapezoid of <c' Pi c, T> over the grid."""
        c = ref_control.c
        energy = np.einsum("tai,ab,tbj,tij->t", c, ref_spec.Pi, c, ref_closed.T)
        times = ref_closed.times
        h = (times[-1] - times[0]) / (len(times) - 1)
        direct = ref_closed.Delta[-1] + h * (0.5 * (energy[0] + energy[-1]) + energy[1:-1].sum())
        assert abs(direct - ref_closed.Phi[-1]) <= 1e-12 * (1 + abs(direct))

    def test_identity_on_fine_grid(self):
        spec = _spec(steps=4000)
        sys_m, filt, ctrl, closed = _pipeline(spec)
        identity = min_cost_identity(filt, ctrl, _t0(spec), sys_m.Lambda, sys_m.G)
        phi = closed.Phi[-1]
        assert abs(phi - identity) <= 1e-6 * (1.0 + abs(phi))

    def test_uncontrolled_identity_reduces_to_deviation(self):
        spec = _spec(d=0, N=np.zeros((0, 2)), Pi=np.zeros((0, 0)), steps=2000)
        sys_m, filt, ctrl, closed = _pipeline(spec)
        identity = min_cost_identity(filt, ctrl, _t0(spec), sys_m.Lambda, sys_m.G)
        delta = closed.Delta[-1]
        assert abs(identity - delta) <= 1e-6 * (1.0 + abs(delta))
        assert closed.Phi[-1] == closed.Delta[-1]

    def test_no_noise_no_signal_zero_cost(self):
        spec = _spec(M=np.zeros((2, 2)), cov0=np.zeros((2, 2)), mean0=[0.0, 0.0],
                     steps=200)
        sys_m, filt, ctrl, closed = _pipeline(spec)
        identity = min_cost_identity(filt, ctrl, _t0(spec), sys_m.Lambda, sys_m.G)
        assert identity == 0.0
        assert closed.Phi[-1] == 0.0


class TestPontryaginHamiltonian:
    def test_matches_primal_form_everywhere(self, ref_spec, ref_sys, ref_filter,
                                            ref_control, ref_closed):
        """H_pont = <Q,KGK'> - <Qdot,T> equals <Q,R(T,c)> + <c'Pi c,T> identically."""
        idx = np.linspace(0, len(ref_closed.times) - 1, 7).astype(int)
        for i in idx:
            q = ref_control.Q_full[i]
            t_mat = ref_closed.T[i]
            k = ref_filter.K[i]
            c = ref_control.c[i]
            primal = (np.sum(q * moment_rhs(t_mat, c, k, ref_sys))
                      + np.sum((c.T @ ref_spec.Pi @ c) * t_mat))
            assert abs(ref_closed.H_pont[i] - primal) <= 1e-10 * (1.0 + abs(primal))

    def test_static_trivial_system_is_identically_zero(self):
        spec = _spec(R=np.zeros((2, 2)), M=np.zeros((2, 2)), d=0,
                     N=np.zeros((0, 2)), Pi=np.zeros((0, 0)), steps=100)
        _, _, _, closed = _pipeline(spec)
        assert np.max(np.abs(closed.H_pont)) == 0.0

    def test_time_average_consistent_with_quadrature(self, ref_closed):
        h = ref_closed.times[1] - ref_closed.times[0]
        integral = np.trapezoid(ref_closed.H_pont, dx=h)
        tau = ref_closed.times[-1]
        mean = integral / tau
        assert abs(integral - tau * mean) <= 1e-12 * (1.0 + abs(integral))


class TestBellman:
    def test_boundary_condition(self, ref_sys, ref_filter, ref_control):
        rng = np.random.default_rng(8)
        seed = rng.standard_normal((4, 4))
        gamma = seed @ seed.T
        value = bellman_value(ref_control.times[-1], gamma, ref_control, ref_filter,
                              ref_sys.G)
        assert abs(value - np.sum(ref_sys.Lambda * gamma)) <= 1e-12

    def test_zero_state_leaves_tail_integral(self, ref_sys, ref_filter, ref_control):
        value = bellman_value(0.0, np.zeros((4, 4)), ref_control, ref_filter, ref_sys.G)
        kgk = ref_filter.K @ ref_sys.G @ np.swapaxes(ref_filter.K, 1, 2)
        integrand = np.einsum("tij,tij->t", ref_control.Q_full, kgk)
        h = ref_control.times[1] - ref_control.times[0]
        assert abs(value - np.trapezoid(integrand, dx=h)) <= 1e-12

    def test_value_plus_terminal_filter_cost_is_minimum(self, ref_spec, ref_sys,
                                                        ref_filter, ref_control,
                                                        ref_closed):
        psi = bellman_value(0.0, _t0(ref_spec), ref_control, ref_filter, ref_sys.G)
        total = psi + np.sum(ref_sys.Lambda * ref_filter.P_full[-1])
        identity = min_cost_identity(ref_filter, ref_control, _t0(ref_spec),
                                     ref_sys.Lambda, ref_sys.G)
        assert abs(total - identity) <= 1e-12 * (1.0 + abs(identity))

    def test_off_grid_time_rejected(self, ref_sys, ref_filter, ref_control):
        with pytest.raises(ValueError):
            bellman_value(ref_control.times[1] * 0.5 + ref_control.times[2] * 0.5,
                          np.eye(4), ref_control, ref_filter, ref_sys.G)


class TestDecoherenceTime:
    def test_flat_zero_cost_never_crosses(self):
        times = np.linspace(0.0, 5.0, 11)
        assert decoherence_time(times, np.zeros(11), 0.1, 1.0) is None

    def test_threshold_below_first_rise_interpolates_near_zero(self):
        times = np.linspace(0.0, 1.0, 11)
        phi = np.linspace(0.0, 1.0, 11)
        t_cross = decoherence_time(times, phi, 1e-3, 1.0)
        assert 0.0 < t_cross < times[1]
        assert abs(t_cross - 1e-3) < 1e-12

    def test_halfway_crossing_stable_under_refinement(self):
        _, _, _, coarse = _pipeline(_spec(steps=1000))
        threshold = 0.5 * coarse.Phi[-1]
        t_coarse = decoherence_time(coarse.times, coarse.Phi, 0.5, coarse.Phi[-1])
        _, _, _, fine = _pipeline(_spec(steps=4000))
        t_fine = decoherence_time(fine.times, fine.Phi, 1.0, threshold)
        assert t_coarse is not None and t_fine is not None
        assert abs(t_coarse - t_fine) < 5e-3
        idx = int(np.searchsorted(coarse.times, t_coarse))
        assert coarse.Phi[idx - 1] - 1e-12 <= threshold <= coarse.Phi[idx] + 1e-12

    def test_nonpositive_threshold_rejected(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            decoherence_time(times, np.ones(5), 0.0, 1.0)
        with pytest.raises(ValueError):
            decoherence_time(times, np.ones(5), 0.1, -1.0)


def test_gain_perturbations_never_beat_optimum(ref_spec, ref_sys, ref_filter,
                                               ref_control, ref_closed):
    rng = np.random.default_rng(77)
    times = ref_control.times
    phi_opt = ref_closed.Phi[-1]
    knots = np.linspace(times[0], times[-1], 9)
    for _ in range(6):
        knot_values = rng.standard_normal((9,) + ref_control.c.shape[1:])
        delta = np.empty_like(ref_control.c)
        for a in range(delta.shape[1]):
            for b in range(delta.shape[2]):
                delta[:, a, b] = np.interp(times, knots, knot_values[:, a, b])
        delta *= 0.05 / np.max(np.abs(delta))
        perturbed = solve_closed_loop(
            ref_sys, ref_filter, ref_control, ref_spec.mean0, ref_spec.tau,
            gain_override=ref_control.c + delta,
        )
        assert perturbed.Phi[-1] >= phi_opt - 1e-8
