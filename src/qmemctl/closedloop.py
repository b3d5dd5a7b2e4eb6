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
tabulated there: K and c from ode.lattice_values with 2 points per step
(a midpoint weighs its two nodes by exactly 1/2), then sA + sE c and the
symmetrized K G K' by stacked matmuls.  The tables cover one block of
_BLOCK_STEPS steps at a time, refilled in one preallocated pair of buffers
before the block is stepped, so they hold at most
2 (2 _BLOCK_STEPS + 1) (2n+1)^2 doubles whatever the step count.  Step k
of a block reads table rows 2k, 2k + 1 and 2k + 2 directly.

Each stage is one matmul: W = a Y, then W + W' + f, which is exactly
symmetric, so every stage and every new Z is too and no step needs
symmetrizing.  The stages are computed in preallocated buffers in the order
of the generic RK4 loop ode.integrate_matrix_ode, and finiteness is checked
once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlRiccati
from .errors import DivergenceError, GridMismatchError
from .ode import congruence, lattice_values, node_times
# perfbench traces closedloop.integrate_matrix_ode and closedloop.sample_grid.
from .ode import integrate_matrix_ode, sample_grid  # noqa: F401

# Steps per block of the coefficient tables: their nodes and midpoints,
# 2 _BLOCK_STEPS + 1 lattice points, are tabulated at once.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class ClosedLoopSolution:
    """Closed-loop moment grids and scalar diagnostics."""

    times: np.ndarray
    T: np.ndarray       # (N+1, 2n, 2n)
    Delta: np.ndarray   # (N+1,) mean-square deviation
    Phi: np.ndarray     # (N+1,) running cost
    H_pont: np.ndarray  # (N+1,) Pontryagin Hamiltonian, dH/dt = <Q, d(KGK')/dt>
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


def _lyapunov_rhs(a: np.ndarray, x: np.ndarray, f: np.ndarray, out=None, work=None):
    """W + W' + f with W = a X: a X + X a' + f for symmetric X (works on stacked inputs).

    For symmetric f the result is exactly symmetric.  `work` receives W and
    `out` the result when given.
    """
    w = np.matmul(a, x, out=work)
    out = np.add(w, w.swapaxes(-2, -1), out=out)
    out += f
    return out


def _forcing_pairing(q: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<Q, K G K'> at every node of the stacked grids Q and K."""
    return np.einsum("tij,tij->t", q, congruence(k, g))


def _closed_loop_coefficients(c_t: np.ndarray, K_t: np.ndarray, sys):
    """(sA + sE c, K G K') for the gains c and K (works on stacked inputs).

    K G K' is symmetrized, so the Lyapunov right-hand side built from it is
    exactly symmetric.
    """
    kgk = congruence(K_t, sys.G)
    return sys.sA + sys.sE @ c_t, 0.5 * (kgk + kgk.swapaxes(-2, -1))


def moment_rhs(T: np.ndarray, c_t: np.ndarray, K_t: np.ndarray, sys) -> np.ndarray:
    """Lyapunov right-hand side (sA + sE c) T + T (.)' + K G K' for symmetric T
    (works on stacked inputs)."""
    a_cl, kgk = _closed_loop_coefficients(c_t, K_t, sys)
    return _lyapunov_rhs(a_cl, T, kgk)


def _step_bordered(bordered: np.ndarray, c_values: np.ndarray, k_values: np.ndarray,
                   sys, tau: float) -> None:
    """RK4 over [0, tau] of Z' = a Z + Z a' + f, in place from bordered[0].

    a and f are tabulated at the nodes and midpoints of one block of
    _BLOCK_STEPS steps at a time; step k reads lattice points 2k, 2k + 1
    and 2k + 2 of the block.  Raises DivergenceError naming the first
    non-finite step and its time.
    """
    steps = len(bordered) - 1
    dim = bordered.shape[-1] - 1
    h = tau / steps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    # The border rows and columns of a and f stay zero; each refill writes
    # only the top-left blocks.
    a_table = np.zeros((min(2 * _BLOCK_STEPS, 2 * steps) + 1, dim + 1, dim + 1))
    f_table = np.zeros_like(a_table)
    work, probe, k1, k2, k3, k4 = np.empty((6,) + bordered.shape[1:])
    # A diverging state overflows on its way to inf/nan; the finiteness check
    # below reports it as DivergenceError, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, _BLOCK_STEPS):
            last = min(first + _BLOCK_STEPS, steps)
            points = 2 * (last - first) + 1
            a_cl, kgk = _closed_loop_coefficients(
                lattice_values(c_values, 2, 2 * first, 2 * last + 1),
                lattice_values(k_values, 2, 2 * first, 2 * last + 1), sys,
            )
            a_table[:points, :dim, :dim] = a_cl
            f_table[:points, :dim, :dim] = kgk
            for k in range(first, last):
                z = bordered[k]
                j = 2 * (k - first)
                _lyapunov_rhs(a_table[j], z, f_table[j], k1, work)
                np.multiply(k1, half_h, out=probe)
                probe += z
                _lyapunov_rhs(a_table[j + 1], probe, f_table[j + 1], k2, work)
                np.multiply(k2, half_h, out=probe)
                probe += z
                _lyapunov_rhs(a_table[j + 1], probe, f_table[j + 1], k3, work)
                np.multiply(k3, h, out=probe)
                probe += z
                _lyapunov_rhs(a_table[j + 2], probe, f_table[j + 2], k4, work)
                # z + h/6 (k1 + 2 (k2 + k3) + k4), in the order of ode's RK4 loop.
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= sixth_h
                np.add(z, k2, out=bordered[k + 1])
            finite = np.isfinite(bordered[first + 1:last + 1]).all(axis=(1, 2))
            if not finite.all():
                bad = first + 1 + int(np.argmin(finite))
                raise DivergenceError(
                    f"non-finite state at step {bad} of {steps} "
                    f"(t = {node_times(0.0, tau, steps)[bad]:.6g})"
                )


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
    _BLOCK_STEPS steps at a time, with K and c from
    ode.lattice_values(values, 2, lo, hi): node values at the nodes, the two
    neighbouring nodes weighed by exactly 1/2 at a midpoint.  Each step
    reads its three table rows by index.
    T and x_mean are returned as owned, C-contiguous copies of the bordered
    grid's blocks.  Raises DivergenceError naming the first step whose
    state is not finite.
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
    z0 = np.concatenate([mean0, mean0, [1.0]])
    bordered = np.empty((steps + 1, dim + 1, dim + 1))
    bordered[0] = np.outer(z0, z0)
    _step_bordered(bordered, c_values, filter_sol.K, sys, tau)
    # Owned, C-contiguous copies: a strided view of T would send the einsums
    # below down other summation paths, changing their last bits.
    moments = bordered[:, :dim, :dim].copy()
    x_mean = bordered[:, :dim, dim].copy()
    del bordered

    delta = np.einsum("ij,tij->t", sys.Lambda, moments + filter_sol.P_full)

    pi = control_sol.Pi
    energy = np.einsum("tai,ab,tbj,tij->t", c_values, pi, c_values, moments)
    h = (times[-1] - times[0]) / steps if steps else 0.0
    phi = delta + _cumtrapz(energy, h)

    # Pontryagin Hamiltonian at the nodes, using the optimal Riccati solution.
    q = control_sol.Q_full
    q_dot = ControlRiccati(sys, pi).rhs_full(q)
    h_pont = _forcing_pairing(q, filter_sol.K, sys.G) - np.einsum("tij,tij->t", q_dot, moments)

    return ClosedLoopSolution(
        times=times, T=moments, Delta=delta, Phi=phi, H_pont=h_pont, x_mean=x_mean,
    )


def min_cost_identity(filter_sol, control_sol, T0: np.ndarray, Lambda: np.ndarray,
                      G: np.ndarray) -> float:
    """Closed-form minimum cost <Lambda, P(tau)> + <Q(0), T(0)> + int <Q, K G K'> dt."""
    times = filter_sol.times
    h = (times[-1] - times[0]) / (len(times) - 1)
    integrand = _forcing_pairing(control_sol.Q_full, filter_sol.K, G)
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
    tail = _forcing_pairing(control_sol.Q_full[idx:], filter_sol.K[idx:], G)
    return float(np.sum(control_sol.Q_full[idx] * Gamma)) + _trapz(tail, h)


def decoherence_threshold(epsilon: float, phi_star: float) -> float:
    """The running cost epsilon * phi_star that decoherence_time looks for.

    Raises ValueError when it is not positive.
    """
    threshold = epsilon * phi_star
    if not threshold > 0:
        raise ValueError(f"epsilon * phi_star must be positive, got {threshold}")
    return threshold


def decoherence_time(times: np.ndarray, phi: np.ndarray, epsilon: float,
                     phi_star: float) -> float | None:
    """First time the running cost reaches epsilon * phi_star, or None.

    The crossing is refined by linear interpolation between the bracketing
    nodes.  Raises ValueError when the threshold epsilon * phi_star is not
    positive (see decoherence_threshold).
    """
    threshold = decoherence_threshold(epsilon, phi_star)
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
