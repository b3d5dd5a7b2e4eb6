"""Fixed-step matrix ODE integration on a uniform grid, and exact Riccati steps.

Two steppers share the uniform grid of `node_times`:

* `integrate_matrix_ode`: classical 4th-order Runge-Kutta over matrix-valued
  (or generally ndarray-valued) states, forward or backward in time.
  Backward solves reuse the forward stepper through the substitution
  t -> t0 + t1 - t with a negated right-hand side, and grids are always
  stored ascending in time.  The closed-loop moments and the reference
  block cascades of the Riccati equations run on it.
* `mobius_riccati`: the constant-coefficient Riccati equation
  dP/dt = alpha P + P alpha' + beta - P gamma P, stepped exactly on the
  grid.  With Phi = expm(M h) for the Hamiltonian matrix
  M = [[-alpha', gamma], [beta, alpha]], one step is the Moebius map
  P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^-1 (Davison & Maki, IEEE TAC
  1973), exact up to round-off for any h.  `expm_minus_identity` is a
  numpy Pade-13 scaling-and-squaring exponential (Higham, SIAM J. Matrix
  Anal. Appl. 2005).  The filter and control Riccati solves of the
  pipeline use it.

A fixed uniform grid (rather than adaptive stepping) keeps the filter,
control and moment solutions on shared nodes so gain schedules never have
to be resampled against each other.

The RK4 loop evaluates the right-hand side on the half-step lattice of
`rk4_stage_times`: node k at index 2k and the midpoint of step k at index
2k + 1.  A right-hand side driven by gains tabulated on that lattice (the
closed-loop moments are) indexes into its tables instead of interpolating,
so no solver calls `sample_grid`; `sample_grid_at` builds such a table, with
`sample_grid`'s own weight formula, for a block of stage times at once.

The module also owns the stacked block-state layout the reference block
cascades integrate, a (3, n, n) array (B1, B2, B3) standing for the
symmetric [[B1, B2], [B2', B3]], together with the helpers every solver
shares: block assembly, the block-symmetrizing post-step, the PSD monitor
and the congruence K G K'.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError

PSD_WARN_TOL = -1e-8

# A Moebius step solves with X = Phi11 + Phi12 P; beyond this 1-norm condition
# number the solve keeps fewer than about half of the double-precision digits.
MOBIUS_COND_LIMIT = 1e8


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced times (ascending) and one state per node."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("values and times must have one entry per node")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0


def node_times(t0: float, t1: float, steps: int) -> np.ndarray:
    """The grid nodes t0 + k h, k = 0..steps, h = (t1 - t0) / steps.

    The last node is t1 itself, not t0 + steps * h.  Raises ValueError
    unless steps >= 1 and t1 > t0.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    times[-1] = t1
    return times


def rk4_stage_times(t0: float, t1: float, steps: int) -> np.ndarray:
    """Every time the forward RK4 loop evaluates its right-hand side at.

    Node k sits at index 2k and the midpoint t_k + h/2 of step k at index
    2k + 1, so the lattice index of a stage time t is round((t - t0) / (h/2)).
    The nodes are `node_times(t0, t1, steps)`.  Raises ValueError unless
    steps >= 1 and t1 > t0.
    """
    times = node_times(t0, t1, steps)
    h = (t1 - t0) / steps
    lattice = np.empty(2 * steps + 1)
    lattice[0::2] = times
    lattice[1::2] = times[:-1] + 0.5 * h
    return lattice


def _rk4(rhs, init, t0, t1, steps, symmetrize, post_step, clock):
    """Forward RK4 loop; `clock` maps integration time to reported time."""
    stage_times = rk4_stage_times(t0, t1, steps)
    times = stage_times[0::2].copy()
    state = np.array(init, dtype=float)
    h = (t1 - t0) / steps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    values = np.empty((steps + 1,) + state.shape)
    values[0] = state
    # A diverging state overflows on its way to inf/nan; the finiteness check
    # below reports it as DivergenceError, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = times[k]
            t_mid = stage_times[2 * k + 1]
            t_next = times[k + 1]  # exact node time; t + h may overshoot t1 by an ulp
            k1 = rhs(t, state)
            k2 = rhs(t_mid, state + half_h * k1)
            k3 = rhs(t_mid, state + half_h * k2)
            k4 = rhs(t_next, state + h * k3)
            state = state + sixth_h * (k1 + 2.0 * (k2 + k3) + k4)
            if symmetrize:
                state = 0.5 * (state + state.swapaxes(-2, -1))
            if post_step is not None:
                state = post_step(state)
            if not np.isfinite(state).all():
                raise DivergenceError(
                    f"non-finite state at step {k + 1} of {steps} (t = {clock(t_next):.6g})"
                )
            values[k + 1] = state
    return times, values


def integrate_matrix_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    init: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
    direction: str = "forward",
    symmetrize: bool = False,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> TimeGrid:
    """Integrate d(state)/dt = rhs(t, state) with fixed-step RK4.

    Parameters
    ----------
    init : ndarray
        State at t0 for forward solves, at t1 for backward solves.
    direction : "forward" | "backward"
        Backward integrates from t1 down to t0; the result is re-indexed so
        the returned grid is ascending in time either way (the terminal node
        therefore holds `init` exactly).
    symmetrize : bool
        Replace each accepted state by its symmetric part (S + S') / 2.
    post_step : callable, optional
        Applied to each accepted state after symmetrization; used for
        structure fixes on stacked block states.

    Raises
    ------
    ValueError
        If steps < 1, t1 <= t0 or the direction is unknown.
    DivergenceError
        If any state entry stops being finite, naming the step and time.
    """
    if direction == "forward":
        times, values = _rk4(rhs, init, t0, t1, steps, symmetrize, post_step, lambda t: t)
        return TimeGrid(times, values)
    if direction == "backward":
        # Time reversal: s = t0 + t1 - t turns the terminal-value problem into
        # an initial-value problem for the negated right-hand side.
        pivot = t0 + t1

        def reversed_rhs(s, state):
            return -rhs(pivot - s, state)

        times, values = _rk4(
            reversed_rhs, init, t0, t1, steps, symmetrize, post_step, lambda s: pivot - s
        )
        return TimeGrid(times, values[::-1].copy())
    raise ValueError(f"unknown direction {direction!r}")


# Pade-13 numerator coefficients b_0..b_13, and the 1-norm up to which the
# unscaled approximant is accurate to double precision (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm_minus_identity(a: np.ndarray) -> np.ndarray:
    """expm(A) - I by Pade-13 with scaling and squaring (Higham 2005).

    A is scaled by 2^-s so that its 1-norm is at most theta_13, and the
    [13/13] Pade approximant r = (V - U)^-1 (V + U) is formed with six
    matrix products and one solve, then squared s times.  Without squaring
    (1-norm at most theta_13), r - I is formed as (V - U)^-1 2U, free of the
    cancellation in r - I, so it keeps full relative accuracy for small A:
    a Moebius step over a short interval adds this increment to the
    identity only where it must, and round-off does not pile up over many
    steps as it does from a rounded expm(A h).  The zero matrix gives zero.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = np.ldexp(a, -s)
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    if s == 0:
        return np.linalg.solve(v - u, 2.0 * u)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r - ident


def mobius_riccati(
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    init: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
    direction: str = "forward",
    what: str = "Riccati solution",
) -> TimeGrid:
    """Solve dP/dt = alpha P + P alpha' + beta - P gamma P exactly on the grid.

    With Phi = expm(M h), M = [[-alpha', gamma], [beta, alpha]], each step
    maps P to (Phi21 + Phi22 P)(Phi11 + Phi12 P)^-1, which is the exact flow
    over h of the constant-coefficient equation (Davison & Maki 1973).
    Each step restarts from the previous node's P, never from a
    long-horizon Phi(t), whose blocks grow without bound (Kenney & Leipnik
    1985).  P is symmetrized after every step.

    Parameters
    ----------
    alpha, beta, gamma : ndarray
        Constant coefficients; beta and gamma symmetric.
    init : ndarray
        Symmetric P at t0 for forward solves, at t1 for backward solves;
        the first (last) node holds it exactly.
    direction : "forward" | "backward"
        Backward solves take the coefficients of the equation in reversed
        time s = t0 + t1 - t and step from t1 down to t0; the returned grid
        is ascending in time either way.
    what : str
        Names the solution in error messages.

    Raises
    ------
    ValueError
        If steps < 1, t1 <= t0 or the direction is unknown.
    DivergenceError
        If a state stops being finite, or a step's Phi11 + Phi12 P is
        singular or has condition number above MOBIUS_COND_LIMIT, naming
        the step and time.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    times = node_times(t0, t1, steps)
    clock = times if direction == "forward" else (t0 + t1) - times
    state = np.array(init, dtype=float)
    n = state.shape[-1]
    h = (t1 - t0) / steps
    e = expm_minus_identity(np.block([[-alpha.T, gamma], [beta, alpha]]) * h)
    # The step in increment form, transposed: with E = Phi - I,
    # X' = I + E11' + P E12' and P_next' = P + X'^-1 (E21' + P E22' - (X' - I) P),
    # so a short step adds a small increment to P instead of rebuilding it.
    e_head = np.concatenate([e[:n, :n].T, e[n:, :n].T], axis=1)
    e_tail = np.concatenate([e[:n, n:].T, e[n:, n:].T], axis=1)
    ident = np.eye(n)
    values = np.empty((steps + 1, n, n))
    values[0] = state
    x_minus_i = np.empty((steps, n, n))  # X' - I of every step, for the condition guard

    def fail(k, reason):
        return DivergenceError(
            f"{what}: {reason} at step {k + 1} of {steps} (t = {clock[k + 1]:.6g})"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            rows = e_head + state @ e_tail  # [X' - I, Y' - P]
            x_minus_i[k] = rows[:, :n]
            try:
                # X' (P_next - P)' = Y' - X' P, and P_next is symmetric.
                state = state + np.linalg.solve(x_minus_i[k] + ident,
                                                rows[:, n:] - x_minus_i[k] @ state)
            except np.linalg.LinAlgError:
                raise fail(k, "singular Phi11 + Phi12 P") from None
            state = 0.5 * (state + state.T)
            if not np.isfinite(state).all():
                raise fail(k, "non-finite state")
            values[k + 1] = state
    # A 1-norm d = |X' - I| < 1 bounds cond(X') by (1 + d) / (1 - d) (Neumann
    # series), so only steps with d >= 1/2 have their condition number computed.
    far = np.nonzero(~(np.linalg.norm(x_minus_i, 1, axis=(1, 2)) < 0.5))[0]
    cond = np.linalg.cond(x_minus_i[far] + ident, 1)
    bad = np.nonzero(~(cond <= MOBIUS_COND_LIMIT))[0]
    if bad.size:
        k, worst = int(far[bad[0]]), cond[bad[0]]
        raise fail(k, f"cond(Phi11 + Phi12 P) = {worst:.3e} exceeds {MOBIUS_COND_LIMIT:.0e}")
    if direction == "backward":
        values = values[::-1].copy()
    return TimeGrid(times, values)


def sample_grid_at(grid: TimeGrid, ts) -> np.ndarray:
    """`sample_grid` at every time of `ts`, stacked along a new first axis.

    Each entry is bitwise equal to the matching `sample_grid` call: the same
    clamp, node search and weight w = (t - t_i) / (t_{i+1} - t_i), evaluated
    elementwise.  The two are kept apart because a scalar call through this
    form costs about four times as much, and tests call `sample_grid` at
    every RK4 stage.  Raises ValueError, naming the first such time, if any
    time lies outside the grid.
    """
    times = grid.times
    ts = np.asarray(ts, dtype=float)
    lo, hi = times[0], times[-1]
    fuzz = 64.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    outside = (ts < lo - fuzz) | (ts > hi + fuzz)
    if outside.any():
        t = ts[np.argmax(outside)]
        raise ValueError(f"t = {t} outside grid range [{lo}, {hi}]")
    # min(max(t, lo), hi), with Python's choice on ties
    ts = np.where(lo > ts, lo, ts)
    ts = np.where(hi < ts, hi, ts)
    if len(times) == 1:
        return np.repeat(grid.values[:1], ts.size, axis=0)
    idx = np.searchsorted(times, ts, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    w = (ts - times[idx]) / (times[idx + 1] - times[idx])
    w = w.reshape(w.shape + (1,) * (grid.values.ndim - 1))
    out = (1.0 - w) * grid.values[idx]
    out += w * grid.values[idx + 1]
    return out


def sample_grid(grid: TimeGrid, t: float) -> np.ndarray:
    """Linearly interpolate the grid at time t; exact at the nodes.

    For one-off queries such as the off-node gains of tests and perturbation
    studies.  No solver calls it: the closed loop tabulates its gains block
    by block with `sample_grid_at`, the elementwise form of this function.
    """
    times = grid.times
    fuzz = 64.0 * np.finfo(float).eps * max(1.0, abs(times[0]), abs(times[-1]))
    if t < times[0] - fuzz or t > times[-1] + fuzz:
        raise ValueError(f"t = {t} outside grid range [{times[0]}, {times[-1]}]")
    t = min(max(t, float(times[0])), float(times[-1]))
    if len(times) == 1:
        return grid.values[0].copy()
    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = min(max(idx, 0), len(times) - 2)
    w = (t - times[idx]) / (times[idx + 1] - times[idx])
    return (1.0 - w) * grid.values[idx] + w * grid.values[idx + 1]


def assemble_blocks(b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Assemble [[B1, B2], [B2', B3]] (works on stacked (..., n, n) inputs)."""
    top = np.concatenate([b1, b2], axis=-1)
    bottom = np.concatenate([np.swapaxes(b2, -2, -1), b3], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def symmetrize_outer_blocks(blocks: np.ndarray) -> np.ndarray:
    """Post-step for a stacked (B1, B2, B3) state: symmetrize B1 and B3 in place."""
    blocks[0] = 0.5 * (blocks[0] + blocks[0].T)
    blocks[2] = 0.5 * (blocks[2] + blocks[2].T)
    return blocks


def congruence(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K G K' (works on stacked (..., p, q) gains)."""
    return k @ g @ k.swapaxes(-2, -1)


def warn_if_not_psd(values: np.ndarray, times: np.ndarray, what: str) -> None:
    """Warn (never raise) if any node's matrix has an eigenvalue below PSD_WARN_TOL."""
    eigs = np.linalg.eigvalsh(values)
    min_eig = float(eigs.min())
    if min_eig < PSD_WARN_TOL:
        node = int(np.unravel_index(eigs.argmin(), eigs.shape)[0])
        warnings.warn(
            f"{what} lost positive semidefiniteness: min eigenvalue "
            f"{min_eig:.3e} at t = {times[node]:.6g}",
            RuntimeWarning,
            stacklevel=3,
        )
