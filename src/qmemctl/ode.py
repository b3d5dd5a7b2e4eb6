"""Fixed-step matrix ODE integration on a uniform grid.

Classical 4th-order Runge-Kutta over matrix-valued (or generally
ndarray-valued) states, forward or backward in time.  Backward solves reuse
the forward stepper through the substitution t -> t0 + t1 - t with a negated
right-hand side, and grids are always stored ascending in time.  A fixed
uniform grid (rather than adaptive stepping) keeps the filter, control and
moment solutions on shared nodes so gain schedules never have to be
resampled against each other.

The module also owns the stacked block-state layout both Riccati solvers
integrate, a (3, n, n) array (B1, B2, B3) standing for the symmetric
[[B1, B2], [B2', B3]], together with the helpers every solver shares: block
assembly, the block-symmetrizing post-step, the PSD monitor and the
congruence K G K'.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError

PSD_WARN_TOL = -1e-8


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


def _rk4(rhs, init, t0, t1, steps, symmetrize, post_step, clock):
    """Forward RK4 loop; `clock` maps integration time to reported time."""
    state = np.array(init, dtype=float)
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    times[-1] = t1
    values = np.empty((steps + 1,) + state.shape)
    values[0] = state
    for k in range(steps):
        t = times[k]
        t_next = times[k + 1]  # exact node time; t + h may overshoot t1 by an ulp
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * h, state + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, state + (0.5 * h) * k2)
        k4 = rhs(t_next, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if symmetrize:
            state = 0.5 * (state + np.swapaxes(state, -2, -1))
        if post_step is not None:
            state = post_step(state)
        if not np.all(np.isfinite(state)):
            raise DivergenceError(
                f"non-finite state at step {k + 1} of {steps} (t = {clock(times[k + 1]):.6g})"
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
    DivergenceError
        If any state entry stops being finite, naming the step and time.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
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


def sample_grid(grid: TimeGrid, t: float) -> np.ndarray:
    """Linearly interpolate the grid at time t; exact at the nodes."""
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
    return k @ g @ np.swapaxes(k, -2, -1)


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
