import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import reference_spec
from qmemctl import (
    checks,
    cross_moment_check,
    derive_system_matrices,
    gain_schedule,
    simulate_ensemble,
    solve_closed_loop,
    solve_control,
    solve_filter,
)
from qmemctl.montecarlo import GainSchedule


@pytest.fixture(scope="module")
def ref500():
    spec = reference_spec(steps=500)
    sys_m = derive_system_matrices(spec)
    filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
    ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
    closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau)
    return spec, sys_m, filt, ctrl, closed


def _healthy_ensemble(ref500):
    spec, sys_m, filt, ctrl, _ = ref500
    return simulate_ensemble(sys_m, gain_schedule(filt, ctrl), spec.mean0, spec.cov0,
                             paths=200, base_seed=3)


class TestIdentityLimit:
    def test_pinned_at_the_default_density(self):
        assert checks.default_steps(5.0) == 10_000
        assert checks.identity_limit(5.0, 10_000) == checks.COST_IDENTITY_RTOL == 1e-6

    def test_relaxes_quadratically_on_a_coarser_grid(self):
        assert checks.identity_limit(5.0, 800) == pytest.approx(1e-6 * (10_000 / 800) ** 2)

    def test_stays_put_on_a_finer_grid(self):
        assert checks.identity_limit(5.0, 20_000) == 1e-6

    def test_gate_compares_the_relative_residual(self):
        limit = checks.identity_limit(5.0, 800)
        phi = 2.0
        inside = checks.cost_identity(phi, phi - 0.9 * limit * 3.0, 5.0, 800)["cost_identity"]
        outside = checks.cost_identity(phi, phi - 1.1 * limit * 3.0, 5.0, 800)["cost_identity"]
        assert inside["passed"] and inside["limit"] == limit
        assert not outside["passed"]
        assert not checks.cost_identity(phi, math.nan, 5.0, 800)["cost_identity"]["passed"]


class TestZScore:
    def test_ordinary_ratio(self):
        assert checks.z_score(-3.0, 2.0) == 1.5

    def test_degenerate_inputs(self):
        diff = np.array([0.0, 1.0, np.nan, np.inf, 1.0, 0.0])
        se = np.array([0.0, 0.0, 1.0, 1.0, np.nan, np.nan])
        np.testing.assert_array_equal(checks.z_score(diff, se),
                                      [0.0, np.inf, np.inf, np.inf, np.inf, np.inf])


class TestMonteCarloGates:
    def test_non_finite_ensemble_fails_delta_gate(self, ref500):
        # A feedback gain 80 too large: the state stays finite, its square
        # overflows, so the deviation is inf and its standard error NaN.  The
        # failed gate reports it; numpy prints no overflow warning on the way.
        spec, sys_m, filt, ctrl, closed = ref500
        gains = gain_schedule(filt, ctrl)
        c = gains.c.copy()
        c[:, 0, 2] += 80.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            moments = simulate_ensemble(
                sys_m, GainSchedule(gains.times, gains.K, c, gains.Pi), spec.mean0,
                spec.cov0, paths=2000, base_seed=1_234_567)
            rows = cross_moment_check(moments, closed, filt)
            gates = checks.monte_carlo(moments, rows, float(closed.Delta[-1]))
        assert moments.deviation_mean == np.inf and np.isnan(moments.deviation_se)
        assert np.max([row.T_rel_err for row in rows]) == np.inf
        assert gates["mc_delta_within_3se"]["value"] == np.inf
        assert "mc_delta_within_3se" in checks.failed(gates)

    def test_nan_covariance_row_fails_p_gate(self, ref500):
        spec, sys_m, filt, ctrl, closed = ref500
        moments = _healthy_ensemble(ref500)
        second_e = moments.second_e.copy()
        second_e[3, 0, 0] = np.nan  # a non-first checkpoint
        rows = cross_moment_check(dataclasses.replace(moments, second_e=second_e),
                                  closed, filt)
        assert np.isnan(rows[3].P_rel_err) and not np.isnan(rows[0].P_rel_err)
        gates = checks.monte_carlo(moments, rows, float(closed.Delta[-1]))
        assert np.isnan(gates["mc_P_relative_error"]["value"])
        assert not gates["mc_P_relative_error"]["passed"]

    def test_nan_error_mean_fails_e_mean_gate(self, ref500):
        spec, sys_m, filt, ctrl, closed = ref500
        moments = _healthy_ensemble(ref500)
        mean_e = moments.mean_e.copy()
        mean_e[5, 1] = np.nan
        rows = cross_moment_check(dataclasses.replace(moments, mean_e=mean_e), closed, filt)
        assert rows[5].e_mean_max_z == np.inf
        gates = checks.monte_carlo(moments, rows, float(closed.Delta[-1]))
        assert not gates["mc_e_mean"]["passed"]

    def test_non_finite_energy_fails_cost_gate(self, ref500):
        spec, sys_m, filt, ctrl, closed = ref500
        moments = _healthy_ensemble(ref500)
        rows = cross_moment_check(moments, closed, filt)
        delta_ode = float(closed.Delta[-1])
        healthy = checks.monte_carlo(moments, rows, delta_ode)
        assert healthy["mc_cost_finite"] == {"passed": True, "value": [], "limit": []}
        broken = dataclasses.replace(moments, control_energy_mean=np.inf)
        gates = checks.monte_carlo(broken, rows, delta_ode)
        assert math.isfinite(broken.deviation_mean)
        assert gates["mc_delta_within_3se"] == healthy["mc_delta_within_3se"]
        assert gates["mc_cost_finite"]["value"] == ["control_energy_mean"]
        assert "mc_cost_finite" in checks.failed(gates)

    def test_z_limit_is_read_by_the_gates_alone(self, ref500, monkeypatch):
        # The rows are measurements only: lowering the limit below every
        # checkpoint's z-scores leaves them as they are and fails both gates.
        spec, sys_m, filt, ctrl, closed = ref500
        moments = _healthy_ensemble(ref500)
        rows = cross_moment_check(moments, closed, filt)
        delta_ode = float(closed.Delta[-1])
        healthy = checks.monte_carlo(moments, rows, delta_ode)
        assert healthy["mc_mho_checkpoints"]["passed"] and healthy["mc_e_mean"]["passed"]
        limit = 0.5 * min(min(row.mho_max_z, row.e_mean_max_z) for row in rows)
        assert limit > 0.0
        monkeypatch.setattr(checks, "Z_LIMIT", limit)
        assert cross_moment_check(moments, closed, filt) == rows
        gates = checks.monte_carlo(moments, rows, delta_ode)
        assert gates["mc_mho_checkpoints"]["value"] == 0
        assert not gates["mc_mho_checkpoints"]["passed"]
        assert gates["mc_e_mean"] == {"passed": False, "value": False, "limit": True}
