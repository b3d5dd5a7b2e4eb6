"""Forward filtering/smoothing Riccati solve and Kalman gain schedule.

The error covariance P of the joint (initial-copy, live-state) estimator
obeys the full 2n x 2n Riccati equation

    dP/dt = sA P + P sA' + sB sB' - K G K',  K = (P sC' + sB D') G^-1
          = alpha P + P alpha' + beta - P gamma P,

with alpha = sA - sB D' G^-1 sC, beta = sB (I - D' G^-1 D) sB' and
gamma = sC' G^-1 sC.  The frozen initial copy makes all three zero outside
the live (P3) block.  `solve_filter` steps it exactly on the grid with the
blocked Moebius solve of `ode.mobius_riccati` on that live block, and its
blocks P1, P2, P3 (P = [[P1, P2], [P2', P3]]) are slices of that solution.
The block cascade

    dP1/dt = -P2 C' G^-1 C P2'
    dP2/dt =  P2 (A' - C' G^-1 (C P3 + D B'))
    dP3/dt =  A P3 + P3 A' + B B' - (P3 C' + B D') G^-1 (C P3 + D B')

is integrated by `solve_filter_cascade` with fixed-step RK4, an independent
method that the tests compare the Moebius solution against; it converges
only on grids fine enough for RK4.

Both start from every block equal to Re cov(X0), which makes P(0) a
positive-semidefinite singular matrix; nothing in this module factorizes P,
so rank-deficient covariances are handled as-is.  Each formula, and the
Kalman gain in its full and block forms, is written once in FilterRiccati;
the solvers and every other caller evaluate them through an instance of it,
so G is inverted once per instance through its Cholesky factor.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ode import PSD_WARN_TOL  # noqa: F401  (callers read filtering.PSD_WARN_TOL)
from .ode import (
    assemble_blocks,
    congruence,
    integrate_matrix_ode,
    mobius_riccati,
    symmetrize_outer_blocks,
    warn_if_not_psd,
)


class FilterSolution(NamedTuple):
    """Grids of smoother/filter covariance blocks and the Kalman gain K(t)."""

    times: np.ndarray
    P1: np.ndarray      # (N+1, n, n), symmetric
    P2: np.ndarray      # (N+1, n, n)
    P3: np.ndarray      # (N+1, n, n), symmetric
    P_full: np.ndarray  # (N+1, 2n, 2n), symmetric; solve_filter's P1..P3 are views into it
    K: np.ndarray       # (N+1, 2n, r)


def _spd_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite G = L L' via its Cholesky factor.

    Raises numpy.linalg.LinAlgError unless G is positive definite.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(g))
    return l_inv.T @ l_inv


class FilterRiccati:
    """The filtering Riccati formulas, with their constant coefficients.

    The coefficients (G^-1, C' G^-1, B B', ..., and the alpha, beta, gamma
    of the quadratic form) are computed once at construction, so a solver
    builds one instance and evaluates the right-hand sides at every
    Runge-Kutta stage without refactoring G.
    """

    def __init__(self, sys):
        self.sys = sys
        self.ginv = _spd_inverse(sys.G)
        self.ct_gi = sys.C.T @ self.ginv
        self.b_bt = sys.B @ sys.B.T
        self.b_dt = sys.B @ sys.D.T
        self.d_bt = sys.D @ sys.B.T
        self.a_t = sys.A.T
        self.sb_dt = sys.sB @ sys.D.T
        self.sb_sbt = sys.sB @ sys.sB.T
        self.alpha = sys.sA - self.sb_dt @ self.ginv @ sys.sC
        self.beta = sys.sB @ (np.eye(sys.m) - sys.D.T @ self.ginv @ sys.D) @ sys.sB.T
        self.gamma = sys.sC.T @ self.ginv @ sys.sC

    def rhs_blocks(self, p1, p2, p3):
        """(dP1, dP2, dP3) of the block cascade."""
        sys = self.sys
        innov = sys.C @ p3 + self.d_bt
        dp1 = -(p2 @ self.ct_gi) @ (sys.C @ p2.T)
        dp2 = p2 @ (self.a_t - self.ct_gi @ innov)
        dp3 = (
            sys.A @ p3 + p3 @ self.a_t + self.b_bt
            - (p3 @ sys.C.T + self.b_dt) @ self.ginv @ innov
        )
        return dp1, dp2, dp3

    def rhs_full(self, p):
        """dP of the full 2n x 2n Riccati equation (works on stacked inputs)."""
        sys = self.sys
        return (sys.sA @ p + p @ sys.sA.T + self.sb_sbt
                - congruence(self.gain(p), sys.G))

    def gain(self, p):
        """K = (P sC' + sB D') G^-1 from the full covariance."""
        return (p @ self.sys.sC.T + self.sb_dt) @ self.ginv

    def gain_blocks(self, p2, p3):
        """The same K from the blocks: rows (P2 C' G^-1; (P3 C' + B D') G^-1)."""
        k_top = p2 @ self.ct_gi
        k_bottom = p3 @ self.ct_gi + self.b_dt @ self.ginv
        return np.concatenate([k_top, k_bottom], axis=-2)


def solve_filter(sys, cov0: np.ndarray, tau: float, steps: int) -> FilterSolution:
    """Solve the filtering Riccati equation forward over [0, tau].

    One Moebius pass steps the full covariance exactly from the tiled
    initial covariance, and the blocks P1, P2, P3 are views into it.  The
    coefficients vanish outside the live block (P3's), so the pass is given
    alpha, beta and gamma's trailing n x n blocks and solves n x n systems,
    with P1 and P2 as the frozen rows.  P is symmetrized at every node.
    The gain schedule K(t) is stored at every node.  A warning (never an
    error) is emitted if the covariance dips below PSD tolerance anywhere.
    Raises DivergenceError if a step fails.
    """
    cov0 = np.asarray(cov0, dtype=float)
    riccati = FilterRiccati(sys)
    n = sys.n
    grid = mobius_riccati(
        riccati.alpha[n:, n:], riccati.beta[n:, n:], riccati.gamma[n:, n:],
        np.tile(cov0, (2, 2)), 0.0, tau, steps, what="filter covariance",
    )
    p = grid.values
    warn_if_not_psd(p, grid.times, "filter covariance")
    return FilterSolution(
        times=grid.times, P1=p[:, :n, :n], P2=p[:, :n, n:], P3=p[:, n:, n:],
        P_full=p, K=riccati.gain(p),
    )


def solve_filter_cascade(sys, cov0: np.ndarray, tau: float, steps: int) -> FilterSolution:
    """Reference solve: the block cascade integrated with fixed-step RK4.

    P1 and P3 are symmetrized after every step; `P_full` is assembled from
    the blocks and K is the block-form gain.  The fixed step must be fine
    enough for RK4 on the scenario (DivergenceError otherwise).  Tests
    compare `solve_filter` against it; the pipeline does not run it.
    """
    cov0 = np.asarray(cov0, dtype=float)
    riccati = FilterRiccati(sys)

    def blocks_rhs(_t, p):
        out = np.empty_like(p)
        out[0], out[1], out[2] = riccati.rhs_blocks(*p)
        return out

    grid = integrate_matrix_ode(
        blocks_rhs, np.stack([cov0, cov0, cov0]), 0.0, tau, steps,
        post_step=symmetrize_outer_blocks,
    )
    p1, p2, p3 = np.moveaxis(grid.values, 1, 0)
    return FilterSolution(
        times=grid.times, P1=p1, P2=p2, P3=p3,
        P_full=assemble_blocks(p1, p2, p3), K=riccati.gain_blocks(p2, p3),
    )


def hamiltonian_matrix(sys) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian matrix of the filtering Riccati flow and its spectrum.

    Returns ([[alpha, beta], [gamma, -alpha']], eigenvalues) with the
    alpha, beta, gamma of FilterRiccati.  Swapping its block rows and
    columns gives the matrix [[-alpha', gamma], [beta, alpha]], so the two
    share the spectrum.  The frozen initial-copy coordinates force a zero
    eigenvalue of algebraic multiplicity at least 2n; the rest is the
    spectrum of that matrix's live block, whose exponential `solve_filter`
    steps with.
    """
    riccati = FilterRiccati(sys)
    h = np.block([[riccati.alpha, riccati.beta], [riccati.gamma, -riccati.alpha.T]])
    return h, np.linalg.eigvals(h)
