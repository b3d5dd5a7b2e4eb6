"""Independent reference figures for the correctness checks.

Solves the same moment equations the pipeline solves, but from scratch: the
system matrices are rebuilt from the scenario JSON, and the full 2n x 2n
filter and control Riccati equations and the closed-loop Lyapunov equation
are integrated in continuous time with SciPy's adaptive DOP853 at tight
tolerances, with the decoherence crossing located by event detection.
Nothing here imports qmemctl, so a change to the program cannot move the
reference along with its own output.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-11
ATOL = 1e-13


def _pairing(k: int) -> np.ndarray:
    return np.kron(np.eye(k // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def system_matrices(data: dict) -> dict:
    """Augmented matrices of a scenario, following the documented parameterization."""
    n, m = int(data["n"]), int(data["m"])
    R = np.asarray(data["R"], float).reshape(n, n)
    M = np.asarray(data["M"], float).reshape(m, n)
    N = np.asarray(data.get("N", np.zeros((0, n))), float).reshape(-1, n)
    D = np.asarray(data["D"], float).reshape(-1, m)
    F = np.asarray(data["F"], float).reshape(-1, n)
    d = N.shape[0]
    theta, J = 0.5 * _pairing(n), _pairing(m)
    A = 2.0 * theta @ (R + M.T @ J @ M)
    z = np.zeros((n, n))
    return {
        "n": n,
        "A": A,
        "sA": np.block([[z, z], [z, A]]),
        "sB": np.vstack([np.zeros((n, m)), 2.0 * theta @ M.T]),
        "sC": np.hstack([np.zeros((D.shape[0], n)), 2.0 * D @ J @ M]),
        "sE": np.vstack([np.zeros((n, d)), 2.0 * theta @ N.T]),
        "D": D,
        "G": D @ D.T,
        "Pi": np.asarray(data.get("Pi", np.zeros((0, 0))), float).reshape(d, d),
        "Lambda": np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), F.T @ F),
        "mean0": np.asarray(data.get("mean0", np.zeros(n)), float).reshape(n),
        "cov0": np.asarray(data.get("cov0", 0.5 * np.eye(n)), float).reshape(n, n),
        "tau": float(data["tau"]),
    }


def reference_figures(data: dict, epsilon: float = 0.1) -> dict:
    """phi_tau, delta_tau and the decoherence time of a scenario (CLI defaults)."""
    s = system_matrices(data)
    sA, sB, sC, sE, D, G = s["sA"], s["sB"], s["sC"], s["sE"], s["D"], s["G"]
    Lam, tau, twon = s["Lambda"], s["tau"], 2 * s["n"]
    ginv = np.linalg.inv(G)
    pi_inv = np.linalg.inv(s["Pi"]) if s["Pi"].size else s["Pi"]
    drive = sE @ pi_inv @ sE.T
    sb_dt, sb_sbt = sB @ D.T, sB @ sB.T

    def control_rhs(r, y):  # r = tau - t, so dQ/dr = -dQ/dt
        q = y.reshape(twon, twon)
        return -(q @ drive @ q - sA.T @ q - q @ sA).ravel()

    ctrl = solve_ivp(control_rhs, (0.0, tau), Lam.ravel(), method="DOP853",
                     rtol=RTOL, atol=ATOL, dense_output=True)
    size = twon * twon

    def forward_rhs(t, y):
        p = y[:size].reshape(twon, twon)
        t_mom = y[size:2 * size].reshape(twon, twon)
        q = ctrl.sol(tau - t).reshape(twon, twon)
        c = -pi_inv @ sE.T @ q
        k = (p @ sC.T + sb_dt) @ ginv
        kgk = k @ G @ k.T
        a_cl = sA + sE @ c
        dp = sA @ p + p @ sA.T + sb_sbt - kgk
        dt = a_cl @ t_mom + t_mom @ a_cl.T + kgk
        energy = np.sum((c.T @ s["Pi"] @ c) * t_mom)
        return np.concatenate([dp.ravel(), dt.ravel(), [energy]])

    mean0, cov0 = s["mean0"], s["cov0"]
    p0 = np.tile(cov0, (2, 2))
    t0 = np.kron(np.ones((2, 2)), np.outer(mean0, mean0))
    threshold = epsilon * (float(np.sum(Lam * (p0 + t0))) + 1.0)

    def phi(y):
        return float(np.sum(Lam * (y[:size] + y[size:2 * size]).reshape(twon, twon)) + y[-1])

    def crossing(_t, y):
        return phi(y) - threshold

    crossing.direction = 1.0
    fwd = solve_ivp(forward_rhs, (0.0, tau), np.concatenate([p0.ravel(), t0.ravel(), [0.0]]),
                    method="DOP853", rtol=RTOL, atol=ATOL, events=crossing)
    if not (ctrl.success and fwd.success):
        raise RuntimeError(f"reference solve failed: {ctrl.message} / {fwd.message}")
    y_end = fwd.y[:, -1]
    phi_tau = phi(y_end)
    crossings = fwd.t_events[0]
    if phi(fwd.y[:, 0]) >= threshold:
        t_dec = 0.0
    else:
        t_dec = float(crossings[0]) if crossings.size else None
    return {
        "phi_tau": phi_tau,
        "delta_tau": phi_tau - float(y_end[-1]),
        "decoherence_time": t_dec,
        "max_re_eig_A": float(np.max(np.linalg.eigvals(s["A"]).real)),
    }
