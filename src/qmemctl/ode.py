"""Fixed-step matrix ODE integration on a uniform grid, and exact Riccati steps.

Two steppers share the uniform grid of `node_times`:

* `integrate_matrix_ode`: classical 4th-order Runge-Kutta over matrix-valued
  (or generally ndarray-valued) states, forward or backward in time.
  Backward solves reuse the forward stepper through the substitution
  t -> t0 + t1 - t with a negated right-hand side, and grids are always
  stored ascending in time.  The reference block cascades of the Riccati
  equations run on it.  Its one step, `rk4_step`, also builds the
  closed-loop moments' per-step transition and forcing maps, a whole block
  of steps at a time (`closedloop`).
* `mobius_riccati`: the constant-coefficient Riccati equation
  dP/dt = alpha P + P alpha' + beta - P gamma P, stepped exactly on the
  grid.  With Phi(s) = expm(M s) for the Hamiltonian matrix
  M = [[-alpha', gamma], [beta, alpha]], the flow over s is the Moebius map
  P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^-1 (Davison & Maki, IEEE TAC
  1973), exact up to round-off for any s.  The grid is stepped a block of
  nodes at a time: one batched solve takes a block's first node to each of
  its next B nodes through Phi(h)..Phi(B h).  P may carry a frozen prefix,
  leading coordinates without coefficients (the initial-point smoother's
  copy of the initial variables): the coefficients and M are those of the
  n x n live block, each node solves one n x n system with W, the live
  block of (Phi11 + Phi12 P)', which the condition guard checks, and the
  frozen rows follow by one product.  `expm_minus_identity` is a
  numpy Pade-13 scaling-and-squaring exponential (Higham, SIAM J. Matrix
  Anal. Appl. 2005).  The filter and control Riccati solves of the
  pipeline use it.

A fixed uniform grid (rather than adaptive stepping) keeps the filter,
control and moment solutions on shared nodes so gain schedules never have
to be resampled against each other.

RK4 evaluates the right-hand side on the half-step lattice of
`rk4_stage_times`: node k at index 2k and the midpoint of step k at index
2k + 1.  `lattice_values` is the one rule for values between grid nodes: it
interpolates node values at a block of points of a lattice with any number
of points per step.  The closed-loop moments take their RK4 stage gains
from it (2 points per step) and the Monte Carlo oracle its Euler-Maruyama
substep gains (s points per step); `sample_grid`, which searches for an
arbitrary time, is left to tests and one-off queries.

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

# Relative: warn_if_not_psd scales it by 1 + max |values|.
PSD_WARN_TOL = -1e-8

# A Moebius step solves with X = Phi11 + Phi12 P; beyond this 1-norm condition
# number the solve keeps fewer than about half of the double-precision digits.
MOBIUS_COND_LIMIT = 1e8

# Most nodes mobius_riccati reaches from one node in one batched solve.
_MOBIUS_BLOCK = 64


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


def rk4_step(rhs, state, h, start, mid, end, k1=None):
    """One classical RK4 step of d(state)/dt = rhs(point, state) over h.

    `start`, `mid` and `end` are whatever `rhs` reads for the step's start,
    midpoint and end: times in `integrate_matrix_ode`; in `closedloop`,
    slices of a block's tabulated coefficients, so that numpy broadcasting
    takes every step of the block at once.  `k1`, when given, is
    rhs(start, state), known to the caller without evaluating it.
    """
    if k1 is None:
        k1 = rhs(start, state)
    k2 = rhs(mid, state + (0.5 * h) * k1)
    k3 = rhs(mid, state + (0.5 * h) * k2)
    k4 = rhs(end, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4(rhs, init, t0, t1, steps, post_step, clock):
    """Forward RK4 loop; `clock` maps integration time to reported time."""
    stage_times = rk4_stage_times(t0, t1, steps)
    times = stage_times[0::2].copy()
    state = np.array(init, dtype=float)
    h = (t1 - t0) / steps
    values = np.empty((steps + 1,) + state.shape)
    values[0] = state
    # A diverging state overflows on its way to inf/nan; the finiteness check
    # below reports it as DivergenceError, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            # times[k + 1] is the exact node time; t + h may overshoot t1 by an ulp.
            state = rk4_step(rhs, state, h, times[k], stage_times[2 * k + 1], times[k + 1])
            if post_step is not None:
                state = post_step(state)
            if not np.isfinite(state).all():
                raise DivergenceError(
                    f"non-finite state at step {k + 1} of {steps} "
                    f"(t = {clock(times[k + 1]):.6g})"
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
    post_step : callable, optional
        Applied to each accepted state; used for structure fixes such as
        symmetrization of stacked block states.

    Raises
    ------
    ValueError
        If steps < 1, t1 <= t0 or the direction is unknown.
    DivergenceError
        If any state entry stops being finite, naming the step and time.
    """
    if direction == "forward":
        times, values = _rk4(rhs, init, t0, t1, steps, post_step, lambda t: t)
        return TimeGrid(times, values)
    if direction == "backward":
        # Time reversal: s = t0 + t1 - t turns the terminal-value problem into
        # an initial-value problem for the negated right-hand side.
        pivot = t0 + t1

        def reversed_rhs(s, state):
            return -rhs(pivot - s, state)

        times, values = _rk4(
            reversed_rhs, init, t0, t1, steps, post_step, lambda s: pivot - s
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

    P is N x N and the coefficients n x n, N >= n: they act on P's trailing
    n coordinates, the live block, and the leading N - n coordinates are a
    frozen copy with no coefficients of their own (zero rows and columns of
    the N x N alpha, beta and gamma).  With Phi(s) = expm(M s) of the live
    Hamiltonian M = [[-alpha', gamma], [beta, alpha]], the map
    P -> (Phi21 + Phi22 P)(Phi11 + Phi12 P)^-1 of the padded coefficients is
    the exact flow over s of the constant-coefficient equation (Davison &
    Maki 1973).  The grid is stepped a block of B nodes at a time: each
    block restarts from its first node P_k and reaches P_{k+1}..P_{k+B}
    through Phi(h)..Phi(B h) in one batched solve, never from a long-horizon
    Phi(t), whose blocks grow without bound (Kenney & Leipnik 1985).
    B = min(64, steps, floor(0.25 / (|M|_1 h))), at least 1, so no block
    spans more than |M h B|_1 <= 1/4 and Phi stays close to the identity
    over it; longer spans lose accuracy on scenarios with large |M|.  Every
    P is symmetrized.

    The padded Phi11' + P Phi12' is block upper triangular,
    [[I, P_fl E12'], [0, W]] with E = Phi - I, W = I + E11' + P_ll E12' and
    P_fl, P_ll the frozen and live rows of P's live columns; so each node
    takes one n x n solve with W for the live rows of its increment and one
    product for the frozen rows.  With N = n nothing is frozen.

    Parameters
    ----------
    alpha, beta, gamma : ndarray
        Constant n x n coefficients of the live block; beta and gamma
        symmetric.
    init : ndarray
        Symmetric N x N P at t0 for forward solves, at t1 for backward
        solves; the first (last) node holds it exactly.
    direction : "forward" | "backward"
        Backward solves take the coefficients of the equation in reversed
        time s = t0 + t1 - t and step from t1 down to t0; the returned grid
        is ascending in time either way.
    what : str
        Names the solution in error messages.

    Raises
    ------
    ValueError
        If steps < 1, t1 <= t0, the direction is unknown, the coefficients
        are not all n x n or init is not N x N with N >= n.
    DivergenceError
        If a state stops being finite, or a node's W (all of
        (Phi11 + Phi12 P)' when nothing is frozen) is singular or has
        condition number above MOBIUS_COND_LIMIT, naming the step and time.
        A block whose batched solve fails is stepped again one node at a
        time, so the step named is the one a per-node solve names.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = np.shape(alpha)[0]
    size = np.shape(init)[-1]
    if (any(np.shape(c) != (n, n) for c in (alpha, beta, gamma))
            or np.shape(init) != (size, size) or size < n):
        raise ValueError(
            f"need n x n alpha, beta, gamma and an N x N init with N >= n, got "
            f"{np.shape(alpha)}, {np.shape(beta)}, {np.shape(gamma)} and {np.shape(init)}"
        )
    times = node_times(t0, t1, steps)
    clock = times if direction == "forward" else (t0 + t1) - times
    frozen = size - n
    h = (t1 - t0) / steps
    m = np.block([[-alpha.T, gamma], [beta, alpha]])
    block = min(_MOBIUS_BLOCK, steps)
    reach = np.linalg.norm(m, 1) * h
    if reach * block > 0.25:
        block = max(1, int(0.25 / reach))
    e = np.stack([expm_minus_identity(m * (j * h)) for j in range(1, block + 1)])
    # The span of j steps from P, in increment form, transposed: with
    # E_j = Phi(j h) - I of the padded coefficients, X_j' = I + E11' + P E12'
    # and P_j' = P + X_j'^-1 (E21' + P E22' - (X_j' - I) P), so a short span
    # adds a small increment to P instead of rebuilding it.  Only the live
    # columns of X_j' - I are nonzero; the rows [those columns, Y_j' - P] of
    # each span are e_head + P e_tail, from the live E_j's blocks padded with
    # zeros for the frozen coordinates.
    e_t = e.swapaxes(1, 2)
    e_head = np.zeros((block, size, n + size))
    e_head[:, frozen:, :n] = e_t[:, :n, :n]
    e_head[:, frozen:, n + frozen:] = e_t[:, :n, n:]
    e_tail = np.zeros((block, n, n + size))
    e_tail[:, :, :n] = e_t[:, n:, :n]
    e_tail[:, :, n + frozen:] = e_t[:, n:, n:]
    ident = np.eye(n)
    grid = np.empty((steps + 1, size, size))
    # Nodes in stepping order; a backward solve fills the ascending grid from its end.
    values = grid if direction == "forward" else grid[::-1]
    values[0] = init
    w_minus_i = np.empty((steps, n, n))  # W - I of every node, for the condition guard

    def fail(k, reason):
        return DivergenceError(
            f"{what}: {reason} at step {k + 1} of {steps} (t = {clock[k + 1]:.6g})"
        )

    def step(k, span):
        """Nodes k+1..k+span from node k; the reason it failed, or None."""
        state, w_mi, nodes = values[k], w_minus_i[k:k + span], values[k + 1:k + span + 1]
        rows = e_head[:span] + state[:, frozen:] @ e_tail[:span]
        x_mi = rows[:, :, :n]
        w_mi[...] = x_mi[:, frozen:]
        # X_j' (P_j - P)' = Y_j' - X_j' P, solved for the live rows with W and
        # then for the frozen rows, and P_j is symmetric.
        delta = rows[:, :, n:] - x_mi @ state[frozen:]
        try:
            delta[:, frozen:] = np.linalg.solve(w_mi + ident, delta[:, frozen:])
        except np.linalg.LinAlgError:
            return "singular Phi11 + Phi12 P"
        delta[:, :frozen] -= x_mi[:, :frozen] @ delta[:, frozen:]
        new = state + delta
        nodes[...] = 0.5 * (new + new.swapaxes(1, 2))
        return None if np.isfinite(nodes).all() else "non-finite state"

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, steps, block):
            span = min(block, steps - k)
            if step(k, span) is None:
                continue
            for j in range(k, k + span):
                reason = step(j, 1)
                if reason is not None:
                    raise fail(j, reason)
    # A 1-norm d = |W - I| < 1 bounds cond(W) by (1 + d) / (1 - d) (Neumann
    # series), so only nodes with d >= 1/2 have their condition number computed.
    far = np.nonzero(~(np.linalg.norm(w_minus_i, 1, axis=(1, 2)) < 0.5))[0]
    cond = np.linalg.cond(w_minus_i[far] + ident, 1)
    bad = np.nonzero(~(cond <= MOBIUS_COND_LIMIT))[0]
    if bad.size:
        k, worst = int(far[bad[0]]), cond[bad[0]]
        raise fail(k, f"cond(Phi11 + Phi12 P) = {worst:.3e} exceeds {MOBIUS_COND_LIMIT:.0e}")
    return TimeGrid(times, grid)


def lattice_values(values: np.ndarray, sub: int, lo: int, hi: int) -> np.ndarray:
    """Node values linearly interpolated at points lo..hi-1 of a `sub`-point lattice.

    The lattice has `sub` points per grid step: point j lies at the exact
    fraction f = (j mod sub) / sub of step k = j // sub, and the last node,
    j = N sub, counts as step N - 1 at f = 1.  Each point is
    (1 - f) v[k] + f v[k + 1], so the nodes come back bitwise.  The closed
    loop takes its RK4 stage gains from it (sub = 2: nodes and midpoints) and
    the Monte Carlo oracle its Euler-Maruyama substep gains (sub = s), each
    one block of points at a time; any block is bitwise the same slice of the
    whole lattice.  Needs N >= 1 steps and 0 <= lo <= hi <= N sub + 1.
    """
    j = np.arange(lo, hi)
    k = np.minimum(j // sub, len(values) - 2)
    f = ((j - k * sub) / sub).reshape((-1,) + (1,) * (values.ndim - 1))
    out = (1.0 - f) * values[k]
    out += f * values[k + 1]
    return out


def sample_grid(grid: TimeGrid, t: float) -> np.ndarray:
    """Linearly interpolate the grid at time t; exact at the nodes.

    For one-off queries at arbitrary times, such as the reference gains of
    tests and perturbation studies.  No solver calls it: the solvers need
    gains only on a lattice of whole fractions of a step, and take them from
    `lattice_values` without a time search.
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
    """Warn (never raise) if any node's matrix has an eigenvalue below
    PSD_WARN_TOL (1 + max |values|).

    The tolerance scales with the largest entry over all nodes, because the
    round-off in an eigenvalue of a symmetric matrix grows with its norm.
    A Cholesky factorization of every values + delta I, with delta =
    -PSD_WARN_TOL (1 + max |values|), succeeds exactly when no eigenvalue is
    below -delta, up to round-off, at a fraction of eigvalsh's cost; the
    eigenvalues are computed only when it fails, to name the node and value.
    """
    max_abs = max(float(values.max()), -float(values.min()))  # no |values| temporary
    bound = PSD_WARN_TOL * (1.0 + max_abs)
    try:
        np.linalg.cholesky(values - bound * np.eye(values.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    eigs = np.linalg.eigvalsh(values)
    min_eig = float(eigs.min())
    if min_eig < bound:
        node = int(np.unravel_index(eigs.argmin(), eigs.shape)[0])
        warnings.warn(
            f"{what} lost positive semidefiniteness: min eigenvalue "
            f"{min_eig:.3e} at t = {times[node]:.6g}",
            RuntimeWarning,
            stacklevel=3,
        )
