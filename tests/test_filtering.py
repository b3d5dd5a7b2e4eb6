import functools

import numpy as np
import pytest

from conftest import reference_spec
from qmemctl import (
    FilterRiccati,
    derive_system_matrices,
    hamiltonian_matrix,
    integrate_matrix_ode,
    solve_filter,
)
from qmemctl.filtering import solve_filter_cascade
from qmemctl.ode import TimeGrid, assemble_blocks, sample_grid


_spec = functools.partial(reference_spec, steps=1000)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_block_assembly_matches_full_rhs(ref_sys):
    rng = np.random.default_rng(5)
    for _ in range(10):
        p1 = _random_symmetric(rng, 2)
        p2 = rng.standard_normal((2, 2))
        p3 = _random_symmetric(rng, 2)
        dp1, dp2, dp3 = FilterRiccati(ref_sys).rhs_blocks(p1, p2, p3)
        assembled = assemble_blocks(dp1, dp2, dp3)
        full = FilterRiccati(ref_sys).rhs_full(assemble_blocks(p1, p2, p3))
        np.testing.assert_allclose(assembled, full, rtol=0, atol=1e-12)


def test_full_rhs_on_stacked_input_matches_per_node(ref_sys):
    rng = np.random.default_rng(6)
    stack = np.array([assemble_blocks(_random_symmetric(rng, 2), rng.standard_normal((2, 2)),
                                      _random_symmetric(rng, 2)) for _ in range(5)])
    stacked = FilterRiccati(ref_sys).rhs_full(stack)
    per_node = np.array([FilterRiccati(ref_sys).rhs_full(p) for p in stack])
    np.testing.assert_allclose(stacked, per_node, rtol=0, atol=1e-13)


def test_full_rhs_zero_fixed_point():
    sys_m = derive_system_matrices(_spec(M=np.zeros((2, 2))))  # B = 0, C = 0
    rhs = FilterRiccati(sys_m).rhs_full(np.zeros((4, 4)))
    assert not rhs.any()


def test_blocks_decouple_when_p2_zero(ref_sys):
    p3 = np.diag([1.0, 2.0])
    dp1, dp2, _ = FilterRiccati(ref_sys).rhs_blocks(np.eye(2), np.zeros((2, 2)), p3)
    assert not dp1.any()
    assert not dp2.any()


def test_blocks_with_zero_observation():
    # M with a zero second row gives C = 2DJM = 0 while B stays nonzero,
    # so only the B D' correlation survives in the P3 innovation term.
    sys_m = derive_system_matrices(_spec(M=np.array([[1.0, 0.5], [0.0, 0.0]])))
    assert not sys_m.C.any() and sys_m.B.any()
    rng = np.random.default_rng(2)
    p2 = rng.standard_normal((2, 2))
    p3_seed = rng.standard_normal((2, 2))
    p3 = p3_seed @ p3_seed.T
    dp1, dp2, dp3 = FilterRiccati(sys_m).rhs_blocks(np.eye(2), p2, p3)
    assert not dp1.any()
    np.testing.assert_allclose(dp2, p2 @ sys_m.A.T, atol=1e-14)
    ginv = np.linalg.inv(sys_m.G)
    bd = sys_m.B @ sys_m.D.T
    expected = (sys_m.A @ p3 + p3 @ sys_m.A.T + sys_m.B @ sys_m.B.T
                - bd @ ginv @ bd.T)
    np.testing.assert_allclose(dp3, expected, atol=1e-13)


class TestKalmanGain:
    def test_zero_for_zero_state_and_coupling(self):
        sys_m = derive_system_matrices(_spec(M=np.zeros((2, 2))))
        assert not FilterRiccati(sys_m).gain(np.zeros((4, 4))).any()

    def test_block_structure(self, ref_sys):
        rng = np.random.default_rng(1)
        p1 = _random_symmetric(rng, 2)
        p2 = rng.standard_normal((2, 2))
        p3 = _random_symmetric(rng, 2)
        k = FilterRiccati(ref_sys).gain(assemble_blocks(p1, p2, p3))
        ginv = np.linalg.inv(ref_sys.G)
        np.testing.assert_allclose(k[:2], p2 @ ref_sys.C.T @ ginv, atol=1e-13)
        np.testing.assert_allclose(
            k[2:], (p3 @ ref_sys.C.T + ref_sys.B @ ref_sys.D.T) @ ginv, atol=1e-13
        )

    def test_smoother_gain_vanishes_with_p2(self, ref_sys):
        k = FilterRiccati(ref_sys).gain(assemble_blocks(np.eye(2), np.zeros((2, 2)), np.eye(2)))
        assert not k[:2].any()


class TestSolveFilter:
    def test_initial_blocks_exact(self, ref_spec, ref_filter):
        for block in (ref_filter.P1[0], ref_filter.P2[0], ref_filter.P3[0]):
            np.testing.assert_array_equal(block, ref_spec.cov0)
        np.testing.assert_array_equal(ref_filter.P_full[0], np.tile(ref_spec.cov0, (2, 2)))

    def test_no_noise_no_uncertainty_stays_zero(self):
        spec = _spec(M=np.zeros((2, 2)), cov0=np.zeros((2, 2)), steps=200)
        sys_m = derive_system_matrices(spec)
        filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
        assert not filt.P_full.any()
        assert not filt.K.any()

    def test_smoothing_error_never_grows(self, ref_filter):
        shrink = ref_filter.P1[0] - ref_filter.P1[-1]
        assert np.linalg.eigvalsh(shrink).min() >= -1e-8
        diffs = ref_filter.P1[:-1] - ref_filter.P1[1:]
        assert np.linalg.eigvalsh(diffs).min() >= -1e-8

    def test_zero_observation_freezes_smoother_covariance(self):
        spec = _spec(M=np.zeros((2, 2)), steps=200)
        sys_m = derive_system_matrices(spec)
        filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
        np.testing.assert_allclose(filt.P1, np.broadcast_to(spec.cov0, filt.P1.shape),
                                   rtol=0, atol=1e-12)

    def test_block_vs_full_agreement_long_horizon(self):
        # The RK4 block cascade is the independent reference for the Moebius solve.
        spec = _spec(tau=10.0, steps=4000)
        sys_m = derive_system_matrices(spec)
        filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
        ref = solve_filter_cascade(sys_m, spec.cov0, spec.tau, spec.steps)
        assembled = assemble_blocks(ref.P1, ref.P2, ref.P3)
        scale = 1.0 + np.max(np.abs(filt.P_full))
        assert np.max(np.abs(assembled - filt.P_full)) <= 1e-8 * scale

    def test_blocks_symmetric_at_every_node(self, ref_filter):
        assert np.max(np.abs(ref_filter.P1 - np.swapaxes(ref_filter.P1, 1, 2))) <= 1e-12
        assert np.max(np.abs(ref_filter.P3 - np.swapaxes(ref_filter.P3, 1, 2))) <= 1e-12

    def test_full_solution_stays_psd(self, ref_filter):
        assert np.linalg.eigvalsh(ref_filter.P_full).min() >= -1e-8

    def test_psd_monitor_warns(self):
        spec = _spec(steps=50)
        sys_m = derive_system_matrices(spec)
        with pytest.warns(RuntimeWarning, match="semidefinite"):
            solve_filter(sys_m, np.diag([-1e-6, 1e-6]), spec.tau, spec.steps)

    def test_gain_minimality(self, ref_spec, ref_sys, ref_filter):
        """Any detuned gain produces a covariance at least as large."""
        rng = np.random.default_rng(17)
        k_grid = TimeGrid(ref_filter.times, ref_filter.K)
        steps = len(ref_filter.times) - 1
        sbd = ref_sys.sB @ ref_sys.D.T  # noise correlation term reused below

        for _ in range(3):
            delta = rng.standard_normal(ref_filter.K.shape[1:])
            delta *= 0.1 / np.linalg.norm(delta)

            def rhs(t, p):
                k = sample_grid(k_grid, t) + delta
                drift = ref_sys.sA - k @ ref_sys.sC
                noise = ref_sys.sB - k @ ref_sys.D
                return drift @ p + p @ drift.T + noise @ noise.T

            perturbed = integrate_matrix_ode(
                rhs, np.tile(ref_spec.cov0, (2, 2)), 0.0, ref_spec.tau, steps,
                post_step=lambda s: 0.5 * (s + s.swapaxes(-2, -1)),
            )
            gap = perturbed.values - ref_filter.P_full
            assert np.linalg.eigvalsh(gap).min() >= -1e-8


class TestHamiltonianMatrix:
    def test_zero_eigenvalue_multiplicity(self, ref_sys):
        h, eigs = hamiltonian_matrix(ref_sys)
        assert h.shape == (8, 8)
        assert np.sum(np.abs(eigs) <= 1e-8) >= 2 * ref_sys.n

    def test_trivial_system_gives_zero(self):
        spec = _spec(R=np.zeros((2, 2)), M=np.zeros((2, 2)))
        sys_m = derive_system_matrices(spec)
        h, _ = hamiltonian_matrix(sys_m)
        assert not h.any()

    def test_offdiagonal_blocks_symmetric(self, ref_sys):
        h, _ = hamiltonian_matrix(ref_sys)
        beta = h[:4, 4:]
        gamma = h[4:, :4]
        np.testing.assert_allclose(beta, beta.T, atol=1e-14)
        np.testing.assert_allclose(gamma, gamma.T, atol=1e-14)
