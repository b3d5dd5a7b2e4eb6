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

T and the mean controller state x are stepped together as the bordered
state Z = [[T, x], [x', 1]] of size (2n+1)^2 from Z(0) = z0 z0' with
z0 = (EX0, EX0, 1).  With a = blockdiag(sA + sE c, 0) and
f = blockdiag(K G K', 0), the one Lyapunov form Z' = a Z + Z a' + f gives
T' = (sA + sE c) T + T (.)' + K G K' in the T block and x' = (sA + sE c) x
on the border.

Over step k its solution is a congruence by the loop's transition plus a
forcing term, so the state is stepped by

    Z_{k+1} = Psi_k Z_k Psi_k' + F_k,

where Psi_k is one RK4 step of the transition equation X' = a X from
X = I, and F_k one RK4 step of the Lyapunov equation from Z = 0 (both
with ode.rk4_step).  So x advances as Psi_k x, the corner stays exactly 1,
and the recursion is fourth order like RK4 of the Lyapunov equation itself;
its stability bound applies to h lambda(a), not to h (lambda_i + lambda_j).

RK4 evaluates a and f only at the nodes and midpoints of the shared grid
(the half-step lattice of ode.rk4_stage_times), so K and c come from
ode.lattice_values with 2 points per step (a midpoint weighs its two nodes
by exactly 1/2), and sA + sE c and the symmetrized K G K' from stacked
matmuls.  One block of _BLOCK_STEPS steps at a time is tabulated, its
Psi_k and F_k built by one batched RK4 step each, and then stepped, so the
per-block scratch is bounded whatever the step count.  Each step is two
matmuls and an add; the block's new states are then symmetrized and
checked for finiteness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .control import ControlRiccati
from .errors import DivergenceError, GridMismatchError
from .ode import congruence, lattice_values, node_times, rk4_step
# perfbench traces closedloop.integrate_matrix_ode and closedloop.sample_grid.
from .ode import integrate_matrix_ode, sample_grid  # noqa: F401

# Steps per block of the coefficient tables: their nodes and midpoints,
# 2 _BLOCK_STEPS + 1 lattice points, are tabulated at once.
_BLOCK_STEPS = 256


class ClosedLoopSolution(NamedTuple):
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


def _lyapunov_rhs(a: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """W + W' + f with W = a X: a X + X a' + f for symmetric X (works on stacked inputs).

    For symmetric f the result is exactly symmetric.
    """
    w = a @ x
    out = w + w.swapaxes(-2, -1)
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
    """Z_{k+1} = Psi_k Z_k Psi_k' + F_k over [0, tau], in place from bordered[0].

    a and f are tabulated at the nodes and midpoints of one block of
    _BLOCK_STEPS steps at a time, and each step's Psi_k and F_k built from
    lattice points 2k, 2k + 1 and 2k + 2 of the block.  Raises
    DivergenceError naming the first non-finite step and its time.
    """
    steps = len(bordered) - 1
    dim = bordered.shape[-1] - 1
    h = tau / steps
    # The bordered maps blockdiag(Psi_k, 1) and blockdiag(F_k, 0): each
    # refill writes only the top-left blocks.
    psi = np.zeros((min(_BLOCK_STEPS, steps), dim + 1, dim + 1))
    psi[:, dim, dim] = 1.0
    forcing = np.zeros_like(psi)
    work = np.empty(bordered.shape[1:])
    # A block's lattice points 2k, 2k + 1 and 2k + 2 of each of its steps k.
    stages = slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2)
    # A diverging state overflows on its way to inf/nan; the finiteness check
    # below reports it as DivergenceError, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, _BLOCK_STEPS):
            last = min(first + _BLOCK_STEPS, steps)
            size = last - first
            a, f = _closed_loop_coefficients(
                lattice_values(c_values, 2, 2 * first, 2 * last + 1),
                lattice_values(k_values, 2, 2 * first, 2 * last + 1), sys,
            )
            # The first stages from I and from 0 are a and f themselves.
            psi[:size, :dim, :dim] = rk4_step(lambda j, x: a[j] @ x, np.eye(dim), h, *stages,
                                              k1=a[stages[0]])
            forcing[:size, :dim, :dim] = rk4_step(lambda j, z: _lyapunov_rhs(a[j], z, f[j]),
                                                  np.zeros((dim, dim)), h, *stages,
                                                  k1=f[stages[0]])
            for z, z_next, p, f_k in zip(bordered[first:last], bordered[first + 1:last + 1],
                                         psi, forcing):
                np.matmul(p, z, out=work)
                np.matmul(work, p.T, out=z_next)
                z_next += f_k
            block = bordered[first + 1:last + 1]
            block += block.swapaxes(1, 2)
            block *= 0.5
            finite = np.isfinite(block).all(axis=(1, 2))
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

    T and the mean controller state are stepped together over [0, tau] in
    the grid's step count, as the bordered state [[T, x], [x', 1]], by
    Z_{k+1} = Psi_k Z_k Psi_k' + F_k (see the module docstring), with K and
    c at the stage times from ode.lattice_values(values, 2, lo, hi): node
    values at the nodes, the two neighbouring nodes weighed by exactly 1/2
    at a midpoint.
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
    energy = np.einsum("tij,tij->t", congruence(c_values.swapaxes(1, 2), pi), moments)
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

    Raises ValueError when it is not positive, or when epsilon or phi_star is
    not positive and finite (two negative factors give a positive product).
    """
    threshold = epsilon * phi_star
    if not threshold > 0:
        raise ValueError(f"epsilon * phi_star must be positive, got {threshold}")
    for name, value in (("epsilon", epsilon), ("phi_star", phi_star)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return threshold


def decoherence_time(times: np.ndarray, phi: np.ndarray, epsilon: float,
                     phi_star: float) -> float | None:
    """First time the running cost reaches epsilon * phi_star, or None.

    The crossing is refined by linear interpolation between the bracketing
    nodes.  Raises ValueError when decoherence_threshold refuses epsilon and
    phi_star.
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
