"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The reference scenario is
the single-mode cell (n=2, m=2, d=1, r=1, s=2, R=I, M=I, N=[0,1], D=[1,0],
F=I, Pi=[1], mean0=(1,0), cov0=I/2, tau=5) on a 10000-step grid.

Criterion 7 (Pontryagin constancy) is checked in the form that holds for a
Hamiltonian with explicit time dependence: the raw trace
H = <Q,KGK'> - <Qdot,T> moves at dH/dt = <Q, d(KGK')/dt> because the
Kalman-gain forcing is time-dependent, so H(t) - int_0^t <Q, d(KGK')/ds> ds
is the constant.  The raw variation is printed next to it.
"""

import time

import numpy as np

from conftest import random_valid_scenario, reference_spec
from qmemctl import (
    checks,
    FilterRiccati,
    derive_system_matrices,
    hamiltonian_matrix,
    integrate_matrix_ode,
    physical_realizability_residual,
    pipeline,
    solve_closed_loop,
    solve_control,
    solve_filter,
)
from qmemctl.cli import main as cli_main
from qmemctl.closedloop import _cumtrapz
from qmemctl.control import solve_control_cascade
from qmemctl.filtering import solve_filter_cascade
from qmemctl.ode import TimeGrid, assemble_blocks, sample_grid
from scipy.linalg import expm


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name} {detail}"


def test_c01_physical_realizability():
    rng = np.random.default_rng(20250810)
    start = time.perf_counter()
    worst = 0.0
    specs = [reference_spec(steps=100)]
    while len(specs) < 101:
        n = int(rng.choice([2, 4, 6]))
        m = int(rng.choice([2, 4]))
        specs.append(random_valid_scenario(rng, n, m))
    for spec in specs:
        sys_m = derive_system_matrices(spec)
        worst = max(worst, float(np.max(np.abs(physical_realizability_residual(sys_m)))))
    elapsed = time.perf_counter() - start
    _report(1, "physical realizability", worst <= 1e-12 and elapsed < 1.0,
            f"(max residual {worst:.2e}, {elapsed:.2f}s over {len(specs)} scenarios)")


def test_c02_block_cascade_fidelity(acc_spec, acc_run):
    """The Moebius solutions against the independent RK4 block cascades."""
    start = time.perf_counter()
    filt = solve_filter(acc_run.sys, acc_spec.cov0, acc_spec.tau, acc_spec.steps)
    ctrl = solve_control(acc_run.sys, acc_spec.Pi, acc_spec.tau, acc_spec.steps)
    filt_ref = solve_filter_cascade(acc_run.sys, acc_spec.cov0, acc_spec.tau, acc_spec.steps)
    ctrl_ref = solve_control_cascade(acc_run.sys, acc_spec.Pi, acc_spec.tau, acc_spec.steps)
    elapsed = time.perf_counter() - start
    p_dev = np.max(np.abs(assemble_blocks(filt_ref.P1, filt_ref.P2, filt_ref.P3) - filt.P_full))
    p_rel = p_dev / (1.0 + np.max(np.abs(filt.P_full)))
    q2t = np.swapaxes(ctrl_ref.Q2, -2, -1)  # Q2 is the bottom-left block
    q_dev = np.max(np.abs(assemble_blocks(ctrl_ref.Q1, q2t, ctrl_ref.Q3) - ctrl.Q_full))
    q_rel = q_dev / (1.0 + np.max(np.abs(ctrl.Q_full)))
    _report(2, "block-cascade fidelity",
            p_rel <= 1e-8 and q_rel <= 1e-8 and elapsed < 5.0,
            f"(filter {p_rel:.2e}, control {q_rel:.2e}, {elapsed:.2f}s)")


def test_c03_terminal_and_initial_conditions(acc_spec, acc_run):
    ok = (
        np.array_equal(acc_run.control.Q1[-1], acc_run.sys.Sigma)
        and np.array_equal(acc_run.control.Q2[-1], -acc_run.sys.Sigma)
        and np.array_equal(acc_run.control.Q3[-1], acc_run.sys.Sigma)
        and np.array_equal(acc_run.filter.P1[0], acc_spec.cov0)
        and np.array_equal(acc_run.filter.P2[0], acc_spec.cov0)
        and np.array_equal(acc_run.filter.P3[0], acc_spec.cov0)
    )
    _report(3, "terminal/initial conditions exact", ok)


def test_c04_smoothing_monotonicity(acc_run):
    p1 = acc_run.filter.P1
    diffs = p1[:-1] - p1[1:]  # P1(t) - P1(t') for adjacent t<t'
    worst = float(np.linalg.eigvalsh(diffs).min())
    stride = p1[::250]
    pair_worst = 0.0
    for i in range(len(stride)):
        for j in range(i + 1, len(stride)):
            pair_worst = min(pair_worst,
                             float(np.linalg.eigvalsh(stride[i] - stride[j]).min()))
    ok = worst >= -1e-8 and pair_worst >= -1e-8
    _report(4, "smoothing monotonicity",
            ok, f"(adjacent min eig {worst:.2e}, subsampled pairs {pair_worst:.2e})")


def test_c05_kalman_gain_minimality(acc_spec, acc_run):
    sys_m, filt = acc_run.sys, acc_run.filter
    rng = np.random.default_rng(55)
    deltas = np.array([rng.standard_normal(filt.K.shape[1:]) for _ in range(10)])
    deltas *= 0.1 / np.linalg.norm(deltas, axis=(1, 2), keepdims=True)
    k_grid = TimeGrid(filt.times, filt.K)
    steps = len(filt.times) - 1

    def rhs(t, p):
        k = sample_grid(k_grid, t) + deltas
        drift = sys_m.sA - k @ sys_m.sC
        noise = sys_m.sB - k @ sys_m.D
        return drift @ p + p @ drift.swapaxes(1, 2) + noise @ noise.swapaxes(1, 2)

    detuned = integrate_matrix_ode(
        rhs, np.tile(acc_spec.cov0, (len(deltas), 2, 2)), 0.0, acc_spec.tau, steps,
        post_step=lambda s: 0.5 * (s + s.swapaxes(-2, -1)),
    )
    gap = detuned.values - filt.P_full[:, None]
    worst = min(0.0, float(np.linalg.eigvalsh(gap).min()))
    _report(5, "Kalman-gain minimality", worst >= -1e-8, f"(min eig gap {worst:.2e})")


def test_c06_cost_identity(acc_spec):
    start = time.perf_counter()
    gate = pipeline.run(acc_spec, "decoherence").gates["cost_identity"]
    elapsed = time.perf_counter() - start
    ok = gate["passed"] and elapsed < 10.0
    _report(6, "cost identity", ok,
            f"(|Phi - identity| / (1 + |Phi|) = {gate['value']:.2e} vs {gate['limit']:.2e}, "
            f"{elapsed:.2f}s)")


def pontryagin_variations(sys_m, filter_sol, control_sol, closed_sol):
    """Relative variation of the raw trace H and of the corrected invariant.

    K = (P sC' + sB D') G^-1 with sB, D and G constant, so
    d(KGK')/dt = Pdot sC' K' + K sC Pdot exactly, with Pdot the filter
    Riccati right-hand side.  Its pairing with Q is integrated by the same
    composite trapezoid rule the closed-loop costs use.
    """
    def variation(values):
        mean = float(values.mean())
        return float(np.max(np.abs(values - mean)) / (1.0 + abs(mean)))

    times = filter_sol.times
    p_dot = FilterRiccati(sys_m).rhs_full(filter_sol.P_full)
    k_sc_p_dot = filter_sol.K @ sys_m.sC @ p_dot
    kgk_dot = k_sc_p_dot + np.swapaxes(k_sc_p_dot, -2, -1)
    drift = np.einsum("tij,tij->t", control_sol.Q_full, kgk_dot)
    h = (times[-1] - times[0]) / (len(times) - 1)
    corrected = closed_sol.H_pont - _cumtrapz(drift, h)
    return variation(closed_sol.H_pont), variation(corrected)


def test_c07_pontryagin_constancy(acc_run):
    raw, corrected = pontryagin_variations(acc_run.sys, acc_run.filter, acc_run.control,
                                           acc_run.closed)
    _report(
        7, "Pontryagin constancy", corrected <= 1e-5,
        f"(H - int <Q, d(KGK')/dt> dt relative variation {corrected:.3e}; "
        f"raw <Q,KGK'> - <Qdot,T> relative variation {raw:.3e}, since "
        f"dH/dt = <Q, d(KGK')/dt> != 0 for a time-varying Kalman gain)",
    )


def test_c08_controller_optimality(acc_spec, acc_run):
    ctrl = acc_run.control
    rng = np.random.default_rng(88)
    times = ctrl.times
    phi_opt = float(acc_run.closed.Phi[-1])
    knots = np.linspace(times[0], times[-1], 9)
    worst_gap = np.inf
    for _ in range(20):
        knot_values = rng.standard_normal((9,) + ctrl.c.shape[1:])
        delta = np.empty_like(ctrl.c)
        for a in range(delta.shape[1]):
            for b in range(delta.shape[2]):
                delta[:, a, b] = np.interp(times, knots, knot_values[:, a, b])
        delta *= 0.05 / np.max(np.abs(delta))
        perturbed = solve_closed_loop(
            acc_run.sys, acc_run.filter, ctrl, acc_spec.mean0, acc_spec.tau,
            gain_override=ctrl.c + delta,
        )
        worst_gap = min(worst_gap, float(perturbed.Phi[-1]) - phi_opt)

    closed0 = pipeline.run(reference_spec(steps=acc_spec.steps, d=0), "simulate").closed
    baseline_gap = float(closed0.Delta[-1]) - phi_opt

    ok = worst_gap >= -1e-8 and baseline_gap >= 0.0
    _report(8, "controller optimality", ok,
            f"(worst perturbation gap {worst_gap:.2e}, uncontrolled margin "
            f"{baseline_gap:.3f})")


def test_c09_monte_carlo_agreement(acc_spec):
    start = time.perf_counter()
    result = pipeline.run(acc_spec, "montecarlo", paths=10_000, seed=1_234_567)
    elapsed = time.perf_counter() - start

    gates, rows = result.gates, result.rows
    ok = not checks.failed(gates) and elapsed < 60.0
    _report(9, "Monte Carlo agreement", ok,
            f"(delta z {gates['mc_delta_within_3se']['value']:.2f}, "
            f"max P rel {gates['mc_P_relative_error']['value']:.3f}, "
            f"mho {gates['mc_mho_checkpoints']['value']}/{len(rows)}, "
            f"e-mean ok {gates['mc_e_mean']['value']}, failed {checks.failed(gates)}, "
            f"{elapsed:.1f}s)")


def test_c10_hamiltonian_matrix_singularity(acc_run):
    _, eigs = hamiltonian_matrix(acc_run.sys)
    zero_count = int(np.sum(np.abs(eigs) <= 1e-8))
    _report(10, "Hamiltonian-matrix singularity", zero_count >= 2 * acc_run.sys.n,
            f"({zero_count} eigenvalues with modulus <= 1e-8 of {len(eigs)})")


def test_c11_integrator_order():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    ref = expm(a)

    def err(steps):
        grid = integrate_matrix_ode(lambda t, x: a @ x, np.eye(4), 0.0, 1.0, steps)
        return float(np.max(np.abs(grid.values[-1] - ref)))

    ratio = err(64) / err(128)
    _report(11, "integrator order", 13.0 <= ratio <= 19.0,
            f"(error ratio under step halving {ratio:.2f})")


def test_c12_cli_determinism(tmp_path):
    import json

    scenario = {
        "n": 2, "m": 2,
        "R": [[1.0, 0.0], [0.0, 1.0]], "M": [[1.0, 0.0], [0.0, 1.0]],
        "N": [[0.0, 1.0]], "D": [[1.0, 0.0]], "F": [[1.0, 0.0], [0.0, 1.0]],
        "Pi": [[1.0]], "mean0": [1.0, 0.0], "cov0": [[0.5, 0.0], [0.0, 0.5]],
        "tau": 5.0, "steps": 1000,
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(scenario))
    args = ["full", "--scenario", str(scen), "--paths", "1500", "--seed", "7"]
    rc_a = cli_main(args + ["--out", str(tmp_path / "a")])
    rc_b = cli_main(args + ["--out", str(tmp_path / "b")])
    artifacts = ["filter.csv", "control.csv", "closedloop.csv", "montecarlo.csv",
                 "summary.json"]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in artifacts
    )
    _report(12, "CLI determinism", identical and rc_a == rc_b,
            f"(exit {rc_a}/{rc_b}, {len(artifacts)} artifacts byte-compared)")
