import functools

import numpy as np
import pytest

from conftest import reference_spec
from qmemctl import (
    DimensionError,
    InvalidScenarioError,
    build_structure_matrices,
    derive_system_matrices,
    physical_realizability_residual,
    validate_spec,
)
from qmemctl.model import SystemMatrices

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


_spec = functools.partial(reference_spec, steps=100)


class TestStructureMatrices:
    def test_single_mode_values(self):
        theta, j = build_structure_matrices(2, 2)
        np.testing.assert_array_equal(theta, [[0.0, 0.5], [-0.5, 0.0]])
        np.testing.assert_array_equal(j, J2)

    def test_kronecker_block_structure(self):
        theta, j = build_structure_matrices(4, 4)
        np.testing.assert_array_equal(theta, np.kron(np.eye(2), 0.5 * J2))
        np.testing.assert_array_equal(j, np.kron(np.eye(2), J2))

    @pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (0, 2), (2, 0), (-2, 2)])
    def test_bad_dimensions_rejected(self, n, m):
        with pytest.raises(DimensionError):
            build_structure_matrices(n, m)

    def test_antisymmetry(self):
        theta, j = build_structure_matrices(6, 4)
        np.testing.assert_array_equal(theta, -theta.T)
        np.testing.assert_array_equal(j, -j.T)


class TestDerive:
    def test_single_mode_dynamics(self):
        sys_m = derive_system_matrices(_spec())
        np.testing.assert_allclose(sys_m.A, [[-1.0, 1.0], [-1.0, -1.0]], atol=0)
        np.testing.assert_allclose(sys_m.B, [[0.0, 1.0], [-1.0, 0.0]], atol=0)
        np.testing.assert_allclose(sys_m.C, [[0.0, 2.0]], atol=0)
        np.testing.assert_allclose(sys_m.G, [[1.0]], atol=0)
        np.testing.assert_allclose(sys_m.E, [[1.0], [0.0]], atol=0)

    def test_zero_coupling(self):
        sys_m = derive_system_matrices(_spec(M=np.zeros((2, 2))))
        assert not sys_m.B.any()
        assert not sys_m.C.any()
        np.testing.assert_allclose(sys_m.A, 2.0 * sys_m.Theta @ np.eye(2))

    def test_augmented_sparsity_exact(self):
        sys_m = derive_system_matrices(_spec())
        n = sys_m.n
        assert not sys_m.sA[:n, :].any() and not sys_m.sA[n:, :n].any()
        np.testing.assert_array_equal(sys_m.sA[n:, n:], sys_m.A)
        assert not sys_m.sB[:n, :].any()
        np.testing.assert_array_equal(sys_m.sB[n:, :], sys_m.B)
        assert not sys_m.sC[:, :n].any()
        np.testing.assert_array_equal(sys_m.sC[:, n:], sys_m.C)
        assert not sys_m.sE[:n, :].any()
        np.testing.assert_array_equal(sys_m.sE[n:, :], sys_m.E)

    def test_terminal_weight_structure(self):
        sys_m = derive_system_matrices(_spec())
        np.testing.assert_array_equal(
            sys_m.Lambda, np.kron([[1.0, -1.0], [-1.0, 1.0]], sys_m.Sigma)
        )
        eigs = np.linalg.eigvalsh(sys_m.Lambda)
        assert eigs.min() >= -1e-12
        assert np.sum(eigs > 1e-10) == sys_m.s

    def test_deterministic(self):
        a = derive_system_matrices(_spec())
        b = derive_system_matrices(_spec())
        for name in ("A", "B", "E", "C", "G", "Sigma", "Lambda", "sA", "sB", "sC", "sE"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_invalid_spec_raises(self):
        with pytest.raises(InvalidScenarioError):
            derive_system_matrices(_spec(D=np.eye(2), r=2))


class TestValidate:
    def test_reference_is_valid(self):
        assert validate_spec(_spec()).ok

    def test_quadrature_row_measurement_valid(self):
        # 1x4 row hits one quadrature per pair: DJD' is a scalar of an
        # antisymmetric form, hence zero.
        spec = _spec(m=4, M=np.ones((4, 2)), D=[[1.0, 0.0, 0.0, 1.0]])
        report = validate_spec(spec)
        assert report.ok, report.summary()

    def test_identity_measurement_rejected(self):
        report = validate_spec(_spec(D=np.eye(2), r=2))
        assert any("DJD" in v.invariant for v in report.violations)

    def test_semidefinite_penalty_rejected(self):
        report = validate_spec(_spec(Pi=[[0.0]]))
        assert any("Pi" in v.invariant for v in report.violations)

    def test_nonsymmetric_energy_rejected(self):
        report = validate_spec(_spec(R=[[1.0, 2.0], [0.0, 1.0]]))
        assert any(v.invariant == "R symmetric" for v in report.violations)

    def test_indefinite_cov0_rejected(self):
        report = validate_spec(_spec(cov0=[[1.0, 0.0], [0.0, -1.0]]))
        assert any("cov0" in v.invariant for v in report.violations)

    def test_rank_deficient_selector_rejected(self):
        report = validate_spec(_spec(F=[[1.0, 0.0], [2.0, 0.0]]))
        assert any("F" in v.invariant for v in report.violations)

    def test_shape_violations_reported_not_raised(self):
        report = validate_spec(_spec(R=np.eye(3)))
        assert any(v.invariant == "R shape" for v in report.violations)

    def test_never_raises_on_garbage_dims(self):
        report = validate_spec(_spec(n=3, m=2))
        assert not report.ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["R", "M", "N", "D", "F", "Pi", "mean0", "cov0"])
    def test_non_finite_entry_reported_not_raised(self, name, bad):
        value = np.array(getattr(_spec(), name))
        value.flat[0] = bad
        spec = _spec(**{name: value})
        report = validate_spec(spec)
        assert [v.invariant for v in report.violations] == [f"{name} finite"]
        with pytest.raises(InvalidScenarioError, match=f"{name} finite"):
            derive_system_matrices(spec)

    @pytest.mark.parametrize("tau", [np.inf, -np.inf, np.nan])
    def test_non_finite_tau_reported(self, tau):
        spec = _spec(tau=tau)
        assert [v.invariant for v in validate_spec(spec).violations] == ["tau finite"]
        with pytest.raises(InvalidScenarioError, match="tau finite"):
            derive_system_matrices(spec)


class TestPhysicalRealizability:
    def test_valid_scenarios_have_zero_residual(self, scenario_factory):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.choice([2, 4, 6]))
            m = int(rng.choice([2, 4]))
            spec = scenario_factory(rng, n, m)
            sys_m = derive_system_matrices(spec)
            res = physical_realizability_residual(sys_m)
            assert np.max(np.abs(res)) <= 1e-12

    def test_nonsymmetric_energy_breaks_residual(self):
        # Bypass validation and derive A from a nonsymmetric R by hand.
        rng = np.random.default_rng(3)
        r_bad = rng.standard_normal((2, 2))
        r_bad[0, 1] += 1.0  # guarantee asymmetry
        theta, j = build_structure_matrices(2, 2)
        m_mat = rng.standard_normal((2, 2))
        a = 2.0 * theta @ (r_bad + m_mat.T @ j @ m_mat)
        b = 2.0 * theta @ m_mat.T
        sys_m = SystemMatrices(
            n=2, m=2, d=0, r=1, s=2, Theta=theta, J=j, A=a, B=b,
            E=np.zeros((2, 0)), C=2.0 * np.array([[1.0, 0.0]]) @ j @ m_mat,
            D=np.array([[1.0, 0.0]]), G=np.eye(1), Sigma=np.eye(2),
            Lambda=np.kron([[1, -1], [-1, 1]], np.eye(2)),
            sA=np.zeros((4, 4)), sB=np.zeros((4, 2)), sC=np.zeros((1, 4)),
            sE=np.zeros((4, 0)),
        )
        res = physical_realizability_residual(sys_m)
        assert np.max(np.abs(res)) > 1e-6

    def test_free_dynamics_residual_exactly_zero(self):
        spec = _spec(R=np.zeros((2, 2)), M=np.zeros((2, 2)))
        sys_m = derive_system_matrices(spec)
        assert not physical_realizability_residual(sys_m).any()
