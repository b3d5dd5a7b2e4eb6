"""Independent Monte Carlo oracle for the moment-level pipeline.

The closed loop is driven by vacuum-state field channels whose quantum Ito
matrix has identity real part, so the real parts of the first and second
moments of the linear plant/controller equations coincide with those of a
classical linear SDE driven by a standard Wiener process.  That classical
surrogate is simulated here path by path with Euler-Maruyama:

    X0 = mean0 + cov0_factor . zeta,  sX(0) = (X0; X0),  x(0) = (1;1) kron mean0
    U  = c(t) x
    dZ = sC sX h + D dw sqrt(h)
    dV = dZ - sC x h
    sX += (sA sX + sE U) h + sB dw sqrt(h)
    x  += (sA x + sE U) h + K(t) dV

with gains linearly interpolated between grid nodes.  Higher-order schemes
would buy nothing because the gain schedules are only piecewise linear in
time.  The scheme is run in the coordinates (e, x) with e = sX - x, which
the same equations give as

    e += (sA - K sC) e h + (sB - K D) dw sqrt(h)
    x += (sA + sE c) x h + K sC e h + K D dw sqrt(h)

so that e, and every statistic of the estimation error, is exactly 0 when
there is no noise and cov0 = 0.  Each path owns a generator seeded by
base_seed XOR splitmix64(index) and writes its draws into its own row.  Only
that per-path drawing is threaded: contiguous path-index ranges are filled by
one thread per available CPU, since numpy's generators release the GIL while
filling.  Which thread fills a row cannot change the row, and the propagation
and the moment sums that follow run in one thread over whole arrays, so every
output is bit-identical whatever the thread count.  Moments are accumulated
only at the requested grid nodes (see checkpoint_nodes); the state is checked
for finiteness at every node.  The oracle returns ensemble statistics only
(simulate_ensemble); two paths with one seed give a single path's trajectory
as their mean.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import checks
from .errors import DivergenceError, GridMismatchError

_MASK64 = (1 << 64) - 1

# Noise is generated in time windows of at most this many doubles per path
# batch, which bounds peak memory without changing any per-path stream.
_NOISE_BUDGET = 1 << 24


def splitmix64(value: int) -> int:
    """One step of the splitmix64 mixer (64-bit avalanche function)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_path_seed(base_seed: int, index: int) -> int:
    return (int(base_seed) & _MASK64) ^ splitmix64(int(index))


def checkpoint_nodes(steps: int, checkpoints: int) -> np.ndarray:
    """Indices of `checkpoints` evenly spaced nodes of a `steps`-step grid.

    The first and last nodes are always included; rounding may merge
    neighbours on a coarse grid, so fewer indices can come back.
    """
    return np.unique(np.round(np.linspace(0, steps, checkpoints)).astype(int))


def _worker_count(paths: int) -> int:
    """One noise-drawing thread per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, paths))


def _draw_normals(rngs, out: np.ndarray, workers: int) -> None:
    """Fill out[i] with standard normals from rngs[i], for every path i.

    Contiguous path-index ranges go to `workers` threads (the calling thread
    takes the first).  Each row is drawn from its own generator alone, so the
    result does not depend on `workers`.
    """
    errors: list[BaseException] = []

    def fill(lo: int, hi: int) -> None:
        try:
            for i in range(lo, hi):
                rngs[i].standard_normal(out=out[i])
        except BaseException as exc:  # re-raised below, once every thread is done
            errors.append(exc)

    bounds = [len(rngs) * w // workers for w in range(workers + 1)]
    threads = [threading.Thread(target=fill, args=(bounds[w], bounds[w + 1]))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    fill(bounds[0], bounds[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative round-off eigenvalues clip to 0."""
    sym = 0.5 * (np.asarray(cov, dtype=float) + np.asarray(cov, dtype=float).T)
    w, v = np.linalg.eigh(sym)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass(frozen=True)
class GainSchedule:
    """Node times with the filter gain K(t), feedback gain c(t) and penalty."""

    times: np.ndarray  # (N+1,)
    K: np.ndarray      # (N+1, 2n, r)
    c: np.ndarray      # (N+1, d, 2n)
    Pi: np.ndarray     # (d, d)


def gain_schedule(filter_sol, control_sol) -> GainSchedule:
    if not np.array_equal(filter_sol.times, control_sol.times):
        raise GridMismatchError("filter and control gains live on different grids")
    return GainSchedule(filter_sol.times, filter_sol.K, control_sol.c, control_sol.Pi)


@dataclass(frozen=True)
class SampleMoments:
    """Ensemble statistics accumulated at the requested grid nodes.

    `nodes` holds the indices, into the gain grid, of the nodes that were
    accumulated, in increasing order; `times` are their times, and row k of
    every per-node array belongs to node `nodes[k]`.  `mean_y` and
    `second_y` are the empirical first/second moments of the stacked vector
    y = (sX; x).  The statistics of the estimation error
    e = sX - x are accumulated from the propagated e itself, never differenced
    from the sX and x blocks: `mean_e` and `second_e` are its first/second
    moments, `cross_xe` is the empirical mean of the outer product x e', and
    `cross_xe_sq` the mean of its entrywise squares (kept so entrywise
    standard errors are available).  Terminal-scalar statistics are taken at
    the horizon whatever the nodes, and carry standard errors directly.
    """

    paths: int
    nodes: np.ndarray
    times: np.ndarray
    mean_y: np.ndarray
    second_y: np.ndarray
    mean_e: np.ndarray
    second_e: np.ndarray
    cross_xe: np.ndarray
    cross_xe_sq: np.ndarray
    deviation_mean: float
    deviation_se: float
    smoothing_sqerr_mean: float
    smoothing_sqerr_se: float
    control_energy_mean: float
    control_energy_se: float
    cost_mean: float
    cost_se: float

    @property
    def joint_dim(self) -> int:
        return self.mean_y.shape[1] // 2

    def x_second(self) -> np.ndarray:
        k = self.joint_dim
        return self.second_y[:, k:, k:]

    def e_mean_se(self) -> np.ndarray:
        var = np.einsum("tii->ti", self.second_e) - self.mean_e ** 2
        return np.sqrt(np.clip(var, 0.0, None) / max(self.paths - 1, 1))

    def cross_xe_se(self) -> np.ndarray:
        # An overflowed entry gives a NaN standard error; checks.z_score
        # fails it, so numpy's warnings are only noise.
        with np.errstate(over="ignore", invalid="ignore"):
            var = self.cross_xe_sq - self.cross_xe ** 2
            return np.sqrt(np.clip(var, 0.0, None) / max(self.paths - 1, 1))


def _substep_gains(gains: GainSchedule, substeps_per_node: int):
    """Gains linearly interpolated at the left endpoint of every substep."""
    times = gains.times
    steps = len(times) - 1
    sub = substeps_per_node
    total = steps * sub
    node = np.arange(total) // sub
    frac = (np.arange(total) % sub) / sub
    k_sub = (1.0 - frac)[:, None, None] * gains.K[node] + frac[:, None, None] * gains.K[node + 1]
    c_sub = (1.0 - frac)[:, None, None] * gains.c[node] + frac[:, None, None] * gains.c[node + 1]
    h = float(times[-1] - times[0]) / total
    return h, k_sub, c_sub


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    count = values.shape[0]
    mean = float(values.mean()) if count else 0.0
    if count < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(count))


def _node_indices(nodes, steps: int) -> np.ndarray:
    """Validated, sorted, de-duplicated node indices; None means every node."""
    if nodes is None:
        return np.arange(steps + 1)
    idx = np.unique(np.asarray(nodes, dtype=int).reshape(-1))
    if idx.size == 0 or idx[0] < 0 or idx[-1] > steps:
        raise ValueError(f"nodes must be a non-empty subset of 0..{steps}, got {nodes!r}")
    return idx


def _propagate(sys, gains: GainSchedule, mean0, cov0_factor, seeds,
               substeps_per_node: int, nodes) -> SampleMoments:
    """Vectorized Euler-Maruyama over all requested paths.

    The per-substep update of the joint row state z = (e, x), e = sX - x, is
    the affine map z <- z M_j' + dw N_j' with the block lower-triangular

        M_j = [[I + h (sA - K_j sC),    0                  ],
               [h K_j sC,               I + h (sA + sE c_j)]],
        N_j = [[sqrt(h) (sB - K_j D)], [sqrt(h) K_j D]],

    which is the innovation-driven scheme dZ = sC sX h + D dw sqrt(h),
    dV = dZ - sC x h, sX += (sA sX + sE U) h + sB dw sqrt(h),
    x += (sA x + sE U) h + K dV with U = c x, rewritten for e and folded into
    one step.  sX = e + x is rebuilt only at the accumulated nodes (`nodes`,
    default every node), with its initial copy taken from the held X0 so that
    it stays bitwise frozen; the finiteness check runs at every node.  The
    noise of each path is drawn into its own row (threaded by path range,
    see _draw_normals) and everything after that runs on whole arrays in one
    thread, so results depend only on (seeds, substeps) and are
    bit-reproducible.
    """
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)
    cov0_factor = np.asarray(cov0_factor, dtype=float)
    times = gains.times
    steps = len(times) - 1
    sub = int(substeps_per_node)
    if sub < 1:
        raise ValueError(f"substeps_per_node must be >= 1, got {sub}")
    total = steps * sub
    nodes = _node_indices(nodes, steps)
    slot = np.full(steps + 1, -1)
    slot[nodes] = np.arange(len(nodes))
    h, k_sub, c_sub = _substep_gains(gains, sub)
    sqrt_h = np.sqrt(h)

    n, m = sys.n, sys.m
    twon = 2 * n
    count = len(seeds)
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    workers = _worker_count(count)

    zeta = np.empty((count, n))
    _draw_normals(rngs, zeta, workers)
    spread0 = zeta @ cov0_factor.T
    plant0 = mean0[None, :] + spread0  # X0
    z_state = np.concatenate(
        [spread0, spread0, np.tile(np.concatenate([mean0, mean0]), (count, 1))], axis=1
    )

    # Per-substep combined update operators (transposed for row states).
    eye = np.eye(twon)
    k_sc = np.matmul(k_sub, sys.sC)            # (S, 2n, 2n)
    k_d = np.matmul(k_sub, sys.D)              # (S, 2n, m)
    m_op = np.zeros((total, 2 * twon, 2 * twon))
    m_op[:, :twon, :twon] = eye + h * sys.sA - h * k_sc
    m_op[:, twon:, :twon] = h * k_sc
    m_op[:, twon:, twon:] = eye + h * (sys.sA + np.matmul(sys.sE, c_sub))
    m_t = np.ascontiguousarray(np.swapaxes(m_op, 1, 2))
    del m_op, k_sc
    n_op = np.empty((total, 2 * twon, m))
    n_op[:, :twon, :] = sqrt_h * (sys.sB - k_d)
    n_op[:, twon:, :] = sqrt_h * k_d
    n_t = np.ascontiguousarray(np.swapaxes(n_op, 1, 2))
    del n_op, k_d

    # Energy integrand ||U||_Pi^2 = |L_j x|^2 with L_j = sqrt(Pi) c_j.
    pi_sqrt = psd_sqrt(gains.Pi)
    l_t = np.ascontiguousarray(np.swapaxes(np.matmul(pi_sqrt, c_sub), 1, 2))
    l_t_final = (pi_sqrt @ gains.c[-1]).T

    kept = len(nodes)
    mean_sum = np.zeros((kept, 2 * twon))
    second_sum = np.zeros((kept, 2 * twon, 2 * twon))
    e_sum = np.zeros((kept, twon))
    e_second_sum = np.zeros((kept, twon, twon))
    cross_sum = np.zeros((kept, twon, twon))
    cross_sq_sum = np.zeros((kept, twon, twon))

    # y = (sX; x) at the current node; its initial-copy block is X0 for good.
    y_state = np.empty((count, 2 * twon))
    y_state[:, :n] = plant0

    def take_node(node_idx: int, substep_idx: int):
        if not np.isfinite(z_state).all():
            finite = np.isfinite(z_state).all(axis=1)
            bad = int(np.nonzero(~finite)[0][0])
            raise DivergenceError(
                f"non-finite path state (seed {int(seeds[bad])}) at substep "
                f"{substep_idx} (t = {times[0] + substep_idx * h:.6g})"
            )
        k = slot[node_idx]
        if k < 0:
            return
        err = z_state[:, :twon]
        x_part = z_state[:, twon:]
        np.add(err[:, n:], x_part[:, n:], out=y_state[:, n:twon])
        y_state[:, twon:] = x_part
        mean_sum[k] += y_state.sum(axis=0)
        second_sum[k] += y_state.T @ y_state
        e_sum[k] += err.sum(axis=0)
        e_second_sum[k] += err.T @ err
        cross_sum[k] += x_part.T @ err
        cross_sq_sum[k] += (x_part * x_part).T @ (err * err)

    take_node(0, 0)
    energy = np.zeros(count)
    g_prev = np.zeros(count)
    window = max(1, min(total, _NOISE_BUDGET // max(1, count * m)))

    j = 0
    # A diverging path overflows on its way to inf/nan; take_node reports it
    # as DivergenceError, so numpy's warnings are only noise.  A path whose
    # state stays finite while its square overflows yields an inf energy,
    # deviation or cost below, which checks.monte_carlo fails (delta z = inf).
    with np.errstate(over="ignore", invalid="ignore"):
        while j < total:
            width = min(window, total - j)
            noise = np.empty((count, width, m))
            _draw_normals(rngs, noise, workers)
            for k in range(width):
                g = ((z_state[:, twon:] @ l_t[j]) ** 2).sum(axis=1)
                if j > 0:
                    energy += (0.5 * h) * (g_prev + g)
                g_prev = g
                z_state = z_state @ m_t[j] + noise[:, k, :] @ n_t[j]
                j += 1
                if j % sub == 0:
                    take_node(j // sub, j)
            del noise

        g_final = ((z_state[:, twon:] @ l_t_final) ** 2).sum(axis=1)
        energy += (0.5 * h) * (g_prev + g_final)

        # sX at the horizon, rebuilt as at the nodes (the horizon may not be one).
        s_final = np.empty((count, twon))
        s_final[:, :n] = plant0
        np.add(z_state[:, n:twon], z_state[:, twon + n:], out=s_final[:, n:])
        deviation = np.einsum("bi,ij,bj->b", s_final, sys.Lambda, s_final)
        smoothing = (z_state[:, :n] ** 2).sum(axis=1)
        cost_paths = deviation + energy

        dev_mean, dev_se = _mean_se(deviation)
        smooth_mean, smooth_se = _mean_se(smoothing)
        energy_mean, energy_se = _mean_se(energy)
        cost_mean, cost_se = _mean_se(cost_paths)

    return SampleMoments(
        paths=count,
        nodes=nodes,
        times=times[nodes],
        mean_y=mean_sum / count,
        second_y=second_sum / count,
        mean_e=e_sum / count,
        second_e=e_second_sum / count,
        cross_xe=cross_sum / count,
        cross_xe_sq=cross_sq_sum / count,
        deviation_mean=dev_mean,
        deviation_se=dev_se,
        smoothing_sqerr_mean=smooth_mean,
        smoothing_sqerr_se=smooth_se,
        control_energy_mean=energy_mean,
        control_energy_se=energy_se,
        cost_mean=cost_mean,
        cost_se=cost_se,
    )


def simulate_ensemble(sys, gains: GainSchedule, mean0, cov0, paths: int,
                      base_seed: int, substeps_per_node: int = 4,
                      seeds: Sequence[int] | None = None,
                      nodes: Sequence[int] | None = None) -> SampleMoments:
    """Simulate an ensemble and accumulate empirical moments per node.

    Moments are accumulated at the gain-grid node indices `nodes` (default
    every node; cross_moment_check needs only checkpoint_nodes(steps,
    checkpoints)), and the terminal scalars at the horizon either way.  A
    non-finite path state raises DivergenceError at the first node, requested
    or not, where it is seen.  The result is bit-identical for any thread
    count, and for any `nodes` at the nodes both runs accumulate.

    Seeds default to derive_path_seed(base_seed, i) for i = 0..paths-1.  The
    `seeds` override serves tests: with paths=2 and two identical seeds the
    empirical variance is zero and every mean is that one path, bitwise.
    """
    if paths < 2:
        raise ValueError(f"need at least 2 paths, got {paths}")
    if seeds is None:
        seeds = [derive_path_seed(base_seed, i) for i in range(paths)]
    elif len(seeds) != paths:
        raise ValueError(f"{len(seeds)} seeds supplied for {paths} paths")
    factor = psd_sqrt(cov0)
    return _propagate(sys, gains, mean0, factor, list(seeds), substeps_per_node, nodes)


@dataclass(frozen=True)
class CheckpointResidual:
    t: float
    mho_max_abs: float
    mho_max_z: float
    e_mean_norm: float
    e_mean_max_z: float
    P_rel_err: float
    T_rel_err: float


@dataclass(frozen=True)
class CrossMomentReport:
    """Per-checkpoint comparison of the ensemble against the ODE pipeline."""

    rows: tuple[CheckpointResidual, ...]
    mho_within_3se: int        # checkpoints whose x e' residual is within 3 sigma
    e_mean_within_3se: bool    # every checkpoint's mean error within 3 sigma
    max_P_rel_err: float
    max_T_rel_err: float


def _rel_err(estimate: np.ndarray, reference: np.ndarray) -> float:
    # An overflowed estimate reads inf (or NaN), which fails its gate.
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.linalg.norm(reference))
        diff = float(np.linalg.norm(estimate - reference))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / denom


def cross_moment_check(moments: SampleMoments, closedloop_sol, filter_sol,
                       checkpoints: int = checks.CHECKPOINTS) -> CrossMomentReport:
    """Compare empirical moments against P, T and the zero cross-correlation.

    Report-only: nothing raises on a statistical miss; checks.monte_carlo
    turns the report into pass/fail gates.  A z-score (checks.z_score) counts
    as within 3 sigma when it is at most checks.Z_LIMIT; a NaN residual
    makes its z-score inf and the maximum relative errors NaN, so it fails.
    Checkpoints are checkpoint_nodes(steps, checkpoints) of the filter grid
    (first and last included); the ensemble must have accumulated each of
    them, so pass the same nodes to simulate_ensemble or let it default to
    every node.
    GridMismatchError is raised when the ensemble's nodes do not lie on the
    filter and closed-loop grids or a checkpoint was not accumulated.
    """
    grid = filter_sol.times
    if moments.nodes[-1] >= len(grid) or not np.array_equal(moments.times, grid[moments.nodes]):
        raise GridMismatchError("ensemble and filter grids differ")
    if not np.array_equal(grid, closedloop_sol.times):
        raise GridMismatchError("ensemble and closed-loop grids differ")

    nodes = checkpoint_nodes(len(grid) - 1, checkpoints)
    missing = np.setdiff1d(nodes, moments.nodes)
    if missing.size:
        raise GridMismatchError(
            f"checkpoint nodes {missing.tolist()} were not accumulated by the ensemble"
        )
    slots = np.searchsorted(moments.nodes, nodes)

    e_mean = moments.mean_e
    e_mean_se = moments.e_mean_se()
    e_second = moments.second_e
    x_second = moments.x_second()
    mho_se = moments.cross_xe_se()

    rows = []
    mho_ok = 0
    e_ok = True
    for i, node in zip(slots, nodes):
        mho_z = checks.z_score(moments.cross_xe[i], mho_se[i])
        e_z = checks.z_score(e_mean[i], e_mean_se[i])
        row = CheckpointResidual(
            t=float(moments.times[i]),
            mho_max_abs=float(np.max(np.abs(moments.cross_xe[i]))),
            mho_max_z=float(np.max(mho_z)),
            e_mean_norm=float(np.linalg.norm(e_mean[i])),
            e_mean_max_z=float(np.max(e_z)),
            P_rel_err=_rel_err(e_second[i], filter_sol.P_full[node]),
            T_rel_err=_rel_err(x_second[i], closedloop_sol.T[node]),
        )
        rows.append(row)
        if row.mho_max_z <= checks.Z_LIMIT:
            mho_ok += 1
        if row.e_mean_max_z > checks.Z_LIMIT:
            e_ok = False

    return CrossMomentReport(
        rows=tuple(rows),
        mho_within_3se=mho_ok,
        e_mean_within_3se=e_ok,
        # np.max, unlike max(), returns NaN when any row is NaN.
        max_P_rel_err=float(np.max([r.P_rel_err for r in rows])),
        max_T_rel_err=float(np.max([r.T_rel_err for r in rows])),
    )
