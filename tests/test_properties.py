"""Property tests over random valid scenarios.

Each Riccati equation has a block form and a full 2n x 2n form, and the
Kalman and feedback gains each have the form the solver stores; these tests
check that the forms agree on scenarios drawn by `random_valid_scenario`
(n in {2, 4, 6, 8}, m in {2, 4}) with random symmetric blocks.  Hypothesis
runs derandomized, so the drawn examples are the same on every run.

The end-to-end tests solve both Riccati equations on such scenarios, seeds
0-9 for each (n, m), on each scenario's own grid and on one twice as fine,
and with one node per Moebius block as well as with the default blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_valid_scenario
from qmemctl import (
    ControlRiccati,
    FilterRiccati,
    derive_system_matrices,
    solve_control,
    solve_filter,
)
from qmemctl import ode
from qmemctl.ode import assemble_blocks

RTOL = 1e-10

cases = st.tuples(
    st.sampled_from([2, 4, 6, 8]),
    st.sampled_from([2, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
deterministic = settings(derandomize=True, deadline=None)


def _draw(case):
    """A random valid scenario, its matrices and random blocks (B1, B2, B3).

    B1 and B3 are symmetric; B2 is a general n x n block.
    """
    n, m, seed = case
    rng = np.random.default_rng(seed)
    spec = random_valid_scenario(rng, n, m)
    b1, b3 = (0.5 * (a + a.T) for a in rng.standard_normal((2, n, n)))
    b2 = rng.standard_normal((n, n))
    return spec, derive_system_matrices(spec), b1, b2, b3


def _assert_close(actual, expected):
    scale = 1.0 + np.max(np.abs(expected), initial=0.0)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= RTOL * scale


@deterministic
@given(cases)
def test_filter_block_rhs_equals_full_rhs(case):
    _, sys_m, p1, p2, p3 = _draw(case)
    assembled = assemble_blocks(*FilterRiccati(sys_m).rhs_blocks(p1, p2, p3))
    _assert_close(assembled, FilterRiccati(sys_m).rhs_full(assemble_blocks(p1, p2, p3)))


@deterministic
@given(cases)
def test_control_block_rhs_equals_full_rhs(case):
    spec, sys_m, q1, q2, q3 = _draw(case)
    dq1, dq2, dq3 = ControlRiccati(sys_m, spec.Pi).rhs_blocks(q1, q2, q3)
    # Q2 is the bottom-left block: Q = [[Q1, Q2'], [Q2, Q3]].
    full = ControlRiccati(sys_m, spec.Pi).rhs_full(assemble_blocks(q1, q2.T, q3))
    _assert_close(assemble_blocks(dq1, dq2.T, dq3), full)


@deterministic
@given(cases)
def test_block_gain_equals_kalman_gain(case):
    _, sys_m, p1, p2, p3 = _draw(case)
    _assert_close(FilterRiccati(sys_m).gain_blocks(p2, p3),
                  FilterRiccati(sys_m).gain(assemble_blocks(p1, p2, p3)))


@deterministic
@given(cases)
def test_feedback_gain_equals_solver_gain(case):
    """ControlRiccati.gain agrees with a Pi solve, and with the stacked evaluation
    solve_control applies to its whole (N+1)-node grid."""
    spec, sys_m, q1, q2, q3 = _draw(case)
    direct = -np.linalg.solve(spec.Pi, sys_m.E.T @ np.concatenate([q2, q3], axis=-1))
    _assert_close(ControlRiccati(sys_m, spec.Pi).gain(q2, q3), direct)
    q2s, q3s = np.stack([q1, q2]), np.stack([q3, q2.T])
    per_node = np.array([ControlRiccati(sys_m, spec.Pi).gain(a, b) for a, b in zip(q2s, q3s)])
    _assert_close(ControlRiccati(sys_m, spec.Pi).gain(q2s, q3s), per_node)


def _outside_live_block(coefficient, n):
    """The rows and columns of the frozen initial copy (the leading n)."""
    return np.concatenate([coefficient[:n].ravel(), coefficient[n:, :n].ravel()])


@deterministic
@given(cases)
def test_riccati_coefficients_vanish_outside_the_live_block(case):
    # The frozen initial copy has no dynamics of its own: the 2n x 2n
    # coefficients of both Riccati equations are exactly zero on its rows
    # and columns, which is what lets mobius_riccati step the live block
    # alone, and the control solve's live coefficients are A' and E Pi^-1 E'.
    spec, sys_m, *_ = _draw(case)
    n = sys_m.n
    filt = FilterRiccati(sys_m)
    ctrl = ControlRiccati(sys_m, spec.Pi)
    for coefficient in (filt.alpha, filt.beta, filt.gamma, sys_m.sA.T, ctrl.se_pi_set):
        assert coefficient.shape == (2 * n, 2 * n)
        assert not _outside_live_block(coefficient, n).any()
    _assert_close(ctrl.a_t, sys_m.sA.T[n:, n:])
    _assert_close(ctrl.e_pi_et, ctrl.se_pi_set[n:, n:])


def _solutions(spec, sys_m, steps):
    filt = solve_filter(sys_m, spec.cov0, spec.tau, steps)
    ctrl = solve_control(sys_m, spec.Pi, spec.tau, steps)
    return filt.P_full, ctrl.Q_full


# Both grids step exactly, so they differ by round-off alone.  Round-off is
# amplified by some scenarios: on seed 5 at n = 8, m = 4 a perturbation of Q
# near tau grows 2.8e5-fold by t = 0, and the two grids differ by 2.4e-11, the
# largest gap of the 80 draws.  The PSD bound scales with the solution, as
# the monitor's tolerance PSD_WARN_TOL (1 + max |Q|) does: on seed 8 at n = 8,
# m = 4, max |Q| is 5.4e8 and the round-off eigenvalue is -1.1e-7.
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_riccati_solutions_are_exact_on_random_scenarios(n, m):
    """Finite, unchanged by halving the step (exact steps only), and PSD."""
    for seed in range(10):
        spec = random_valid_scenario(np.random.default_rng(seed), n, m)
        sys_m = derive_system_matrices(spec)
        coarse = _solutions(spec, sys_m, spec.steps)
        fine = _solutions(spec, sys_m, 2 * spec.steps)
        for name, a, b in zip(("P", "Q"), coarse, fine):
            assert np.isfinite(a).all() and np.isfinite(b).all(), (name, seed)
            scale = 1.0 + np.max(np.abs(b))
            gap = np.max(np.abs(a - b[::2]))
            assert gap <= 1e-10 * scale, (name, seed, gap / scale)
            min_eig = np.linalg.eigvalsh(b).min()
            assert min_eig >= -1e-12 * scale, (name, seed, min_eig / scale)


# The largest gap over the 80 draws is 6.8e-14.
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_blocked_riccati_solve_matches_per_node_solve(n, m, monkeypatch):
    """Batched Moebius blocks agree with stepping one node at a time."""
    for seed in range(10):
        spec = random_valid_scenario(np.random.default_rng(seed), n, m)
        sys_m = derive_system_matrices(spec)
        blocked = _solutions(spec, sys_m, spec.steps)
        with monkeypatch.context() as patch:
            patch.setattr(ode, "_MOBIUS_BLOCK", 1)
            per_node = _solutions(spec, sys_m, spec.steps)
        for name, a, b in zip(("P", "Q"), blocked, per_node):
            scale = 1.0 + np.max(np.abs(b))
            gap = np.max(np.abs(a - b))
            assert gap <= 1e-12 * scale, (name, seed, gap / scale)
