import warnings

import numpy as np
import pytest

from qmemctl import ControlRiccati, derive_system_matrices, solve_control
from qmemctl.control import solve_control_cascade
from qmemctl.model import ScenarioSpec
from qmemctl.ode import assemble_blocks


def _spec(**overrides):
    base = dict(
        n=2, m=2, d=1, r=1, s=2,
        R=np.eye(2), M=np.eye(2), N=[[0.0, 1.0]], D=[[1.0, 0.0]],
        F=np.eye(2), Pi=[[1.0]], mean0=[1.0, 0.0], cov0=0.5 * np.eye(2),
        tau=5.0, steps=1000,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_block_assembly_matches_full_rhs(ref_sys, ref_spec):
    rng = np.random.default_rng(9)
    for _ in range(10):
        q1 = _random_symmetric(rng, 2)
        q2 = rng.standard_normal((2, 2))
        q3 = _random_symmetric(rng, 2)
        dq1, dq2, dq3 = ControlRiccati(ref_sys, ref_spec.Pi).rhs_blocks(q1, q2, q3)
        # Q2 is the bottom-left block: Q = [[Q1, Q2'], [Q2, Q3]].
        assembled = assemble_blocks(dq1, dq2.T, dq3)
        full = ControlRiccati(ref_sys, ref_spec.Pi).rhs_full(assemble_blocks(q1, q2.T, q3))
        np.testing.assert_allclose(assembled, full, rtol=0, atol=1e-12)


def test_full_rhs_on_stacked_input_matches_per_node(ref_sys, ref_spec):
    rng = np.random.default_rng(10)
    stack = np.array([assemble_blocks(_random_symmetric(rng, 2), rng.standard_normal((2, 2)),
                                      _random_symmetric(rng, 2)) for _ in range(5)])
    stacked = ControlRiccati(ref_sys, ref_spec.Pi).rhs_full(stack)
    per_node = np.array([ControlRiccati(ref_sys, ref_spec.Pi).rhs_full(q) for q in stack])
    np.testing.assert_allclose(stacked, per_node, rtol=0, atol=1e-13)


def test_zero_solution_is_fixed_point(ref_sys, ref_spec):
    assert not ControlRiccati(ref_sys, ref_spec.Pi).rhs_full(np.zeros((4, 4))).any()


def test_cascade_decoupling_with_zero_q2(ref_sys, ref_spec):
    dq1, dq2, _ = ControlRiccati(ref_sys, ref_spec.Pi).rhs_blocks(
        np.eye(2), np.zeros((2, 2)), np.eye(2))
    assert not dq1.any()
    assert not dq2.any()


def test_no_actuation_gives_backward_lyapunov(ref_spec):
    spec = _spec(d=0, N=np.zeros((0, 2)), Pi=np.zeros((0, 0)))
    sys_m = derive_system_matrices(spec)
    rng = np.random.default_rng(4)
    q2 = rng.standard_normal((2, 2))
    q3 = _random_symmetric(rng, 2)
    dq1, dq2, dq3 = ControlRiccati(sys_m, spec.Pi).rhs_blocks(np.eye(2), q2, q3)
    assert not dq1.any()
    np.testing.assert_allclose(dq2, -sys_m.A.T @ q2, atol=1e-14)
    np.testing.assert_allclose(dq3, -sys_m.A.T @ q3 - q3 @ sys_m.A, atol=1e-14)


class TestSolveControl:
    def test_terminal_conditions_exact(self, ref_sys, ref_control):
        sigma = ref_sys.Sigma
        np.testing.assert_array_equal(ref_control.Q1[-1], sigma)
        np.testing.assert_array_equal(ref_control.Q2[-1], -sigma)
        np.testing.assert_array_equal(ref_control.Q3[-1], sigma)
        np.testing.assert_array_equal(ref_control.Q_full[-1], ref_sys.Lambda)

    def test_free_dynamics_keeps_terminal_weight(self):
        spec = _spec(R=np.zeros((2, 2)), M=np.zeros((2, 2)), d=0,
                     N=np.zeros((0, 2)), Pi=np.zeros((0, 0)), steps=100)
        sys_m = derive_system_matrices(spec)
        ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
        np.testing.assert_allclose(
            ctrl.Q_full, np.broadcast_to(sys_m.Lambda, ctrl.Q_full.shape),
            rtol=0, atol=1e-12,
        )
        assert ctrl.c.shape == (101, 0, 4)

    def test_two_node_grid_terminal_exact(self, ref_sys, ref_spec, ref_control):
        # One Moebius step over the whole horizon is exact, so Q(0) matches
        # the default grid's and no PSD warning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ctrl = solve_control(ref_sys, ref_spec.Pi, ref_spec.tau, 1)
        assert len(ctrl.times) == 2
        np.testing.assert_array_equal(ctrl.Q_full[-1], ref_sys.Lambda)
        q0 = ref_control.Q_full[0]
        scale = 1.0 + np.max(np.abs(q0))
        assert np.max(np.abs(ctrl.Q_full[0] - q0)) <= 1e-10 * scale

    def test_block_vs_full_agreement(self, ref_sys, ref_spec, ref_control):
        # The RK4 block cascade is the independent reference for the Moebius solve.
        ref = solve_control_cascade(ref_sys, ref_spec.Pi, ref_spec.tau, ref_spec.steps)
        assembled = assemble_blocks(ref.Q1, np.swapaxes(ref.Q2, 1, 2), ref.Q3)
        scale = 1.0 + np.max(np.abs(ref_control.Q_full))
        assert np.max(np.abs(assembled - ref_control.Q_full)) <= 1e-8 * scale

    def test_solution_psd_and_symmetric(self, ref_control):
        sym = np.max(np.abs(ref_control.Q_full - np.swapaxes(ref_control.Q_full, 1, 2)))
        assert sym <= 1e-12
        assert np.linalg.eigvalsh(ref_control.Q_full).min() >= -1e-8
        assert np.linalg.eigvalsh(ref_control.Q3).min() >= -1e-8

    def test_q1_shrinks_backward_from_sigma(self, ref_sys, ref_control):
        # dQ1/dt is a Gram form, so Q1(t) <= Q1(tau) = Sigma for t <= tau.
        gaps = ref_sys.Sigma[None] - ref_control.Q1
        assert np.linalg.eigvalsh(gaps).min() >= -1e-8


class TestFeedbackGain:
    def test_zero_blocks_zero_gain(self, ref_sys, ref_spec):
        c = ControlRiccati(ref_sys, ref_spec.Pi).gain(np.zeros((2, 2)), np.zeros((2, 2)))
        assert c.shape == (1, 4)
        assert not c.any()

    def test_terminal_gain_is_initial_restoring_feedback(self, ref_sys, ref_spec,
                                                         ref_control):
        sigma = ref_sys.Sigma
        pi_inv = np.linalg.inv(ref_spec.Pi)
        expected = -pi_inv @ ref_sys.E.T @ np.hstack([-sigma, sigma])
        np.testing.assert_allclose(ref_control.c[-1], expected, atol=1e-14)
        np.testing.assert_allclose(
            ControlRiccati(ref_sys, ref_spec.Pi).gain(ref_control.Q2[-1], ref_control.Q3[-1]),
            expected, atol=1e-14,
        )

    def test_terminal_proportional_gain_psd(self, scenario_factory):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = scenario_factory(rng, 4, 4)
            if spec.d == 0:
                continue
            sys_m = derive_system_matrices(spec)
            gain = spec.F @ sys_m.E @ np.linalg.inv(spec.Pi) @ sys_m.E.T @ spec.F.T
            assert np.linalg.eigvalsh(0.5 * (gain + gain.T)).min() >= -1e-12


def test_hjb_minimizer_property(ref_sys, ref_spec, ref_filter, ref_control):
    """The optimal gain minimizes the Hamiltonian integrand for any PSD state."""
    rng = np.random.default_rng(31)
    times = ref_control.times
    node_count = len(times)
    for idx in rng.integers(0, node_count, size=5):
        q = ref_control.Q_full[idx]
        k = ref_filter.K[idx]
        c_opt = ref_control.c[idx]
        kgk = k @ ref_sys.G @ k.T
        seed = rng.standard_normal((4, 4))
        gamma = seed @ seed.T  # full-rank PSD

        def integrand(u):
            a_cl = ref_sys.sA + ref_sys.sE @ u
            r = a_cl @ gamma + gamma @ a_cl.T + kgk
            return np.sum(q * r) + np.sum((u.T @ ref_spec.Pi @ u) * gamma)

        base = integrand(c_opt)
        for _ in range(20):
            delta = rng.standard_normal(c_opt.shape)
            delta *= 0.1 / np.linalg.norm(delta)
            assert integrand(c_opt + delta) >= base - 1e-10
