"""Closed-loop second moments, cost functionals and decoherence time.

Given the filter gain schedule K(t) and control gain schedule c(t) on a
shared grid, the controller-state second moment T obeys the Lyapunov ODE

    dT/dt = (sA + sE c) T + T (sA + sE c)' + K G K'

from T(0) = [[1,1],[1,1]] kron (EX0 EX0').  The plant-plus-initial-copy
second moment is S = T + P (the controller state and the estimation error
are uncorrelated, which the Monte Carlo oracle verifies statistically), the
mean-square deviation is Delta(t) = <Lambda, S(t)>, and the running cost is

    Phi(t) = Delta(t) + int_0^t <c' Pi c, T> ds.

All quadratures are composite trapezoid on the shared grid, which keeps the
minimum-cost identity discretization-consistent.

T and the mean controller state x are stepped together, in one RK4 pass,
as the bordered state Z = [[T, x], [x', 1]] of size (2n+1)^2 from
Z(0) = z0 z0' with z0 = (EX0, EX0, 1).  With a = blockdiag(sA + sE c, 0)
and f = blockdiag(K G K', 0), the one Lyapunov form Z' = a Z + Z a' + f
gives T' = (sA + sE c) T + T (.)' + K G K' in the T block, x' = (sA + sE c) x
on the border, and keeps the corner exactly 1.

RK4 evaluates that right-hand side only at the nodes and midpoints of the
shared grid (the half-step lattice of ode.rk4_stage_times), so a and f are
tabulated there: K and c from ode.sample_grid_at (bitwise equal to
interpolating at each stage), then sA + sE c and K G K' by stacked matmuls.
The tables cover one block of _BLOCK_STEPS steps at a time, refilled in one
preallocated pair of buffers when the stage index leaves the block; RK4 visits
the lattice in increasing order, so every entry is computed exactly once and
the tables hold at most 2 (2 _BLOCK_STEPS + 1) (2n+1)^2 doubles whatever
the step count.  sample_grid is not called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import control_rhs_full
from .errors import GridMismatchError
from .ode import TimeGrid, congruence, integrate_matrix_ode, rk4_stage_times, sample_grid_at
from .ode import sample_grid  # noqa: F401  (perfbench traces closedloop.sample_grid)

# Steps per block of the coefficient tables: their nodes and midpoints,
# 2 _BLOCK_STEPS + 1 lattice points, are tabulated at once.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class ClosedLoopSolution:
    """Closed-loop moment grids and scalar diagnostics."""

    times: np.ndarray
    T: np.ndarray       # (N+1, 2n, 2n)
    S: np.ndarray       # (N+1, 2n, 2n), S = T + P
    Delta: np.ndarray   # (N+1,) mean-square deviation
    Phi: np.ndarray     # (N+1,) running cost
    H_pont: np.ndarray  # (N+1,) Pontryagin Hamiltonian, dH/dt = <Q, d(KGK')/dt>
    U_mean: np.ndarray  # (N+1, d) mean actuator signal
    x_mean: np.ndarray  # (N+1, 2n) mean controller state


def _trapz(values: np.ndarray, h: float) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(h * (0.5 * (values[0] + values[-1]) + values[1:-1].sum()))


def _cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    if values.shape[0] > 1:
        out[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]))
    return out


def _lyapunov_rhs(a: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a X + X a' + f (works on stacked inputs)."""
    return a @ x + x @ a.swapaxes(-2, -1) + f


def _closed_loop_coefficients(c_t: np.ndarray, K_t: np.ndarray, sys):
    """(sA + sE c, K G K') for the gains c and K (works on stacked inputs)."""
    return sys.sA + sys.sE @ c_t, congruence(K_t, sys.G)


def moment_rhs(T: np.ndarray, c_t: np.ndarray, K_t: np.ndarray, sys) -> np.ndarray:
    """Lyapunov right-hand side (sA + sE c) T + T (.)' + K G K' (works on stacked inputs)."""
    a_cl, kgk = _closed_loop_coefficients(c_t, K_t, sys)
    return _lyapunov_rhs(a_cl, T, kgk)


def solve_closed_loop(
    sys,
    filter_sol,
    control_sol,
    mean0: np.ndarray,
    tau: float,
    gain_override: np.ndarray | None = None,
) -> ClosedLoopSolution:
    """Propagate closed-loop moments and assemble every scalar diagnostic.

    `gain_override`, when given, replaces the optimal gain grid c(t) node for
    node (same shape); used for perturbation studies around the optimum.
    Both input solutions must share their time grid.

    T and the mean controller state are integrated together by one RK4 pass
    over [0, tau] in the grid's step count, as the bordered state
    [[T, x], [x', 1]].  Its coefficients a = blockdiag(sA + sE c, 0) and
    f = blockdiag(K G K', 0) are tabulated at the stage times (node k at
    lattice index 2k, the midpoint of step k at 2k + 1), one block of
    _BLOCK_STEPS steps at a time, with K(t) and c(t) linearly interpolated
    from the grid; the right-hand side looks them up by lattice index, and
    no sample_grid call is made.  T and x_mean are returned as owned,
    C-contiguous copies of the bordered grid's blocks.
    """
    if not np.array_equal(filter_sol.times, control_sol.times):
        raise GridMismatchError("filter and control solutions use different grids")
    times = filter_sol.times
    if abs(times[-1] - tau) > 1e-9 * max(1.0, abs(tau)):
        raise GridMismatchError(f"grid ends at {times[-1]}, expected tau = {tau}")
    steps = len(times) - 1
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)

    c_values = control_sol.c if gain_override is None else np.asarray(gain_override, dtype=float)
    if c_values.shape != control_sol.c.shape:
        raise GridMismatchError(
            f"gain override shape {c_values.shape} != {control_sol.c.shape}"
        )
    dim = 2 * mean0.size
    lattice = rk4_stage_times(0.0, tau, steps)
    c_grid = TimeGrid(times, c_values)
    k_grid = TimeGrid(times, filter_sol.K)
    block_size = min(2 * _BLOCK_STEPS + 1, lattice.size)
    # The border rows and columns of a and f stay zero; each refill writes
    # only the top-left blocks.
    a_table = np.zeros((block_size, dim + 1, dim + 1))
    f_table = np.zeros_like(a_table)
    block_start = -block_size  # no block loaded yet
    # The stage times are nonnegative multiples of h/2 = tau / (2 steps) up
    # to round-off far below half a lattice spacing, so rounding (int(x + 0.5))
    # recovers the index.
    per_half_step = 2.0 * steps / tau

    def rhs(t, state):
        nonlocal block_start
        j = int(t * per_half_step + 0.5) - block_start
        if not 0 <= j < block_size:
            block_start += j
            stage_times = lattice[block_start:block_start + block_size]
            a_cl, kgk = _closed_loop_coefficients(
                sample_grid_at(c_grid, stage_times), sample_grid_at(k_grid, stage_times), sys
            )
            a_table[:stage_times.size, :dim, :dim] = a_cl
            f_table[:stage_times.size, :dim, :dim] = kgk
            j = 0
        return _lyapunov_rhs(a_table[j], state, f_table[j])

    z0 = np.concatenate([mean0, mean0, [1.0]])
    bordered = integrate_matrix_ode(
        rhs, np.outer(z0, z0), 0.0, tau, steps, symmetrize=True
    ).values
    # Owned, C-contiguous copies: a strided view of T would send the einsums
    # below down other summation paths, changing their last bits.
    moments = bordered[:, :dim, :dim].copy()
    x_mean = bordered[:, :dim, dim].copy()
    del bordered

    s_values = moments + filter_sol.P_full
    delta = np.einsum("ij,tij->t", sys.Lambda, s_values)

    pi = control_sol.Pi
    energy = np.einsum("tai,ab,tbj,tij->t", c_values, pi, c_values, moments)
    h = (times[-1] - times[0]) / steps if steps else 0.0
    phi = delta + _cumtrapz(energy, h)

    # Pontryagin Hamiltonian at the nodes, using the optimal Riccati solution.
    q = control_sol.Q_full
    q_dot = control_rhs_full(q, sys, pi)
    kgk = congruence(filter_sol.K, sys.G)
    h_pont = np.einsum("tij,tij->t", q, kgk) - np.einsum("tij,tij->t", q_dot, moments)

    u_mean = np.einsum("tij,tj->ti", c_values, x_mean)

    return ClosedLoopSolution(
        times=times, T=moments, S=s_values, Delta=delta, Phi=phi,
        H_pont=h_pont, U_mean=u_mean, x_mean=x_mean,
    )


def min_cost_identity(filter_sol, control_sol, T0: np.ndarray, Lambda: np.ndarray,
                      G: np.ndarray) -> float:
    """Closed-form minimum cost <Lambda, P(tau)> + <Q(0), T(0)> + int <Q, K G K'> dt."""
    times = filter_sol.times
    h = (times[-1] - times[0]) / (len(times) - 1)
    integrand = np.einsum("tij,tij->t", control_sol.Q_full, congruence(filter_sol.K, G))
    return (
        float(np.sum(Lambda * filter_sol.P_full[-1]))
        + float(np.sum(control_sol.Q_full[0] * T0))
        + _trapz(integrand, h)
    )


def bellman_value(t: float, Gamma: np.ndarray, control_sol, filter_sol,
                  G: np.ndarray) -> float:
    """Value function <Q(t), Gamma> + int_t^tau <Q, K G K'> dv at a grid node."""
    times = control_sol.times
    span = max(1.0, float(times[-1] - times[0]))
    matches = np.nonzero(np.abs(times - t) <= 1e-9 * span)[0]
    if matches.size == 0:
        raise ValueError(f"t = {t} is not a grid node")
    idx = int(matches[0])
    h = (times[-1] - times[0]) / (len(times) - 1)
    tail = np.einsum("tij,tij->t", control_sol.Q_full[idx:], congruence(filter_sol.K[idx:], G))
    return float(np.sum(control_sol.Q_full[idx] * Gamma)) + _trapz(tail, h)


def decoherence_time(times: np.ndarray, phi: np.ndarray, epsilon: float,
                     phi_star: float) -> float | None:
    """First time the running cost reaches epsilon * phi_star, or None.

    The crossing is refined by linear interpolation between the bracketing
    nodes.  Raises ValueError when the threshold epsilon * phi_star is not
    positive.
    """
    threshold = epsilon * phi_star
    if not threshold > 0:
        raise ValueError(f"epsilon * phi_star must be positive, got {threshold}")
    times = np.asarray(times, dtype=float)
    phi = np.asarray(phi, dtype=float)
    reached = np.nonzero(phi >= threshold)[0]
    if reached.size == 0:
        return None
    idx = int(reached[0])
    if idx == 0:
        return float(times[0])
    rise = phi[idx] - phi[idx - 1]
    w = (threshold - phi[idx - 1]) / rise if rise > 0 else 1.0
    return float(times[idx - 1] + w * (times[idx] - times[idx - 1]))
