"""Backward control Riccati solve and the optimal feedback gain schedule.

The same two-solver design as the filtering module.  `solve_control` steps
the full 2n x 2n Riccati equation dQ/dt = Q sE Pi^-1 sE' Q - sA' Q - Q sA
backward from Q(tau) = Lambda with the exact, blocked Moebius solve of
`ode.mobius_riccati`: in reversed time s = tau - t it reads
dQ/ds = alpha Q + Q alpha' + beta - Q gamma Q with alpha = sA', beta = 0
and gamma = sE Pi^-1 sE'.  Q2 is the bottom-left block, so
Q = [[Q1, Q2'], [Q2, Q3]], and the blocks are slices of that solution.
`solve_control_cascade` integrates the block cascade

    dQ1/dt = Q2' E Pi^-1 E' Q2
    dQ2/dt = (Q3 E Pi^-1 E' - A') Q2
    dQ3/dt = Q3 E Pi^-1 E' Q3 - A' Q3 - Q3 A

backward from Q1(tau) = Q3(tau) = Sigma, Q2(tau) = -Sigma (the blocks of the
terminal weight Lambda) with fixed-step RK4, as the independent reference
the tests compare against.  The feedback gain is
c(t) = -Pi^-1 E' [Q2(t), Q3(t)] at every node, on the same grid the filter
uses.  Each formula is written once, in ControlRiccati; the solvers and
every other caller evaluate them through an instance of it.  With no actuator
channels (d = 0) everything degenerates to backward Lyapunov equations and
a zero-width gain, which is kept as the uncontrolled baseline mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ode import PSD_WARN_TOL  # noqa: F401  (callers read control.PSD_WARN_TOL)
from .ode import (
    assemble_blocks,
    integrate_matrix_ode,
    mobius_riccati,
    symmetrize_outer_blocks,
    warn_if_not_psd,
)


@dataclass(frozen=True)
class ControlSolution:
    """Grids of control Riccati blocks, the gain c(t), and the penalty used."""

    times: np.ndarray
    Q1: np.ndarray      # (N+1, n, n), symmetric
    Q2: np.ndarray      # (N+1, n, n)
    Q3: np.ndarray      # (N+1, n, n), symmetric
    Q_full: np.ndarray  # (N+1, 2n, 2n), symmetric; solve_control's Q1..Q3 are views into it
    c: np.ndarray       # (N+1, d, 2n)
    Pi: np.ndarray      # (d, d)


class ControlRiccati:
    """The control Riccati formulas, with their constant coefficients.

    Pi^-1, E Pi^-1 E' and sE Pi^-1 sE' are computed once at construction, so
    a solver builds one instance for all of its Runge-Kutta stages.
    """

    def __init__(self, sys, Pi: np.ndarray):
        self.sys = sys
        pi_inv = np.linalg.inv(Pi)
        self.e_pi_et = sys.E @ pi_inv @ sys.E.T
        self.se_pi_set = sys.sE @ pi_inv @ sys.sE.T
        self.gain_head = -pi_inv @ sys.E.T  # (d, n)
        self.a_t = sys.A.T

    def rhs_blocks(self, q1, q2, q3):
        """(dQ1, dQ2, dQ3) of the block cascade."""
        drive = q3 @ self.e_pi_et
        dq1 = q2.T @ self.e_pi_et @ q2
        dq2 = (drive - self.a_t) @ q2
        dq3 = drive @ q3 - self.a_t @ q3 - q3 @ self.sys.A
        return dq1, dq2, dq3

    def rhs_full(self, q):
        """dQ of the full 2n x 2n Riccati equation (works on stacked inputs)."""
        sys = self.sys
        return q @ self.se_pi_set @ q - sys.sA.T @ q - q @ sys.sA

    def gain(self, q2, q3):
        """c = -Pi^-1 E' [Q2, Q3], of shape (..., d, 2n)."""
        return self.gain_head @ np.concatenate([q2, q3], axis=-1)


def solve_control(sys, Pi: np.ndarray, tau: float, steps: int) -> ControlSolution:
    """Solve the control Riccati equation backward over [0, tau].

    One Moebius pass steps the full Q exactly from Q(tau) = Lambda, and the
    blocks Q1, Q2, Q3 are views into it.  The terminal node is assigned,
    not stepped, so Q1(tau) = Sigma, Q2(tau) = -Sigma, Q3(tau) = Sigma hold
    exactly.  Q is symmetrized at every node; positive semidefiniteness
    is monitored and reported as a warning only.  Raises DivergenceError if
    a step fails.
    """
    Pi = np.asarray(Pi, dtype=float)
    riccati = ControlRiccati(sys, Pi)
    grid = mobius_riccati(
        sys.sA.T, np.zeros_like(sys.sA), riccati.se_pi_set, sys.Lambda, 0.0, tau, steps,
        direction="backward", what="control Riccati solution",
    )
    q = grid.values
    warn_if_not_psd(q, grid.times, "control Riccati solution")
    n = sys.n
    q2, q3 = q[:, n:, :n], q[:, n:, n:]
    return ControlSolution(
        times=grid.times, Q1=q[:, :n, :n], Q2=q2, Q3=q3,
        Q_full=q, c=riccati.gain(q2, q3), Pi=Pi,
    )


def solve_control_cascade(sys, Pi: np.ndarray, tau: float, steps: int) -> ControlSolution:
    """Reference solve: the block cascade integrated backward with fixed-step RK4.

    Q1 and Q3 are symmetrized after every step; `Q_full` is assembled from
    the blocks.  The fixed step must be fine enough for RK4 on the scenario
    (DivergenceError otherwise).  Tests compare `solve_control` against it;
    the pipeline does not run it.
    """
    Pi = np.asarray(Pi, dtype=float)
    riccati = ControlRiccati(sys, Pi)

    def blocks_rhs(_t, q):
        out = np.empty_like(q)
        out[0], out[1], out[2] = riccati.rhs_blocks(*q)
        return out

    sigma = sys.Sigma
    grid = integrate_matrix_ode(
        blocks_rhs, np.stack([sigma, -sigma, sigma]), 0.0, tau, steps,
        direction="backward", post_step=symmetrize_outer_blocks,
    )
    q1, q2, q3 = np.moveaxis(grid.values, 1, 0)
    return ControlSolution(
        times=grid.times, Q1=q1, Q2=q2, Q3=q3,
        Q_full=assemble_blocks(q1, np.swapaxes(q2, -2, -1), q3),
        c=riccati.gain(q2, q3), Pi=Pi,
    )
