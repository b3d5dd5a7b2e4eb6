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

with gains linearly interpolated between grid nodes by ode.lattice_values,
the rule the closed-loop moments use too.  Higher-order schemes would buy
nothing because the gain schedules are only piecewise linear in time.  The
scheme is run in the coordinates (e, x) with e = sX - x, which the same
equations give as

    e += (sA - K sC) e h + (sB - K D) dw sqrt(h)
    x += (sA + sE c) x h + K sC e h + K D dw sqrt(h)

so that e, and every statistic of the estimation error, is exactly 0 when
there is no noise and cov0 = 0.  The update is affine and its gains are
fixed within each substep, so the substeps of one grid interval fold into
one map per node (_node_operators): every path advances a whole node with
two matrix products, which also yield the substeps' control-energy terms.
Each path owns a generator seeded by base_seed XOR splitmix64(index), whose
stream is exactly numpy's default_rng(seed)'s.  The generators are built
without a SeedSequence per path: one uint32 array pass computes the four
PCG64 seed words SeedSequence(seed) would give for every seed (_seed_words),
and each path's PCG64 takes its row of words (_path_generators).  The noise is
drawn in tiles: a block of paths by a window of whole node intervals
(_tile_shape), 1 250 paths by 195 nodes on the reference with two drawing
threads.  The block is fixed by the model's shapes (_TILE_FOOTPRINT) and the
window by _NOISE_BUDGET, so neither the memory the noise holds (about 31 MB
for both tiles in flight on the reference) nor the length of a draw call
depends on the path count.  A tile is laid out node-major, (nodes, paths,
draws), so that the noise product of each node reads one contiguous block.
The maps of a window are folded once, and every block advances through the
window with two matrix products a node.  The path chunks of the next tile
are drawn on a thread pool while the calling thread propagates the current
one, since numpy's generators release the GIL while filling; before it
propagates a tile, the calling thread draws the tile's chunks that no pool
thread has started and waits for the rest, and only then submits the next
tile.  The X0 draws, n normals a path, are drawn in the calling thread,
since threads only pass the GIL back and forth over draws that short.
Which thread draws a path cannot change its draws, each path's stream is
consumed in order whatever the tiling, and a row's products do not depend
on the other rows of its block, so every path's state, and every
terminal-scalar statistic, is bit-identical whatever the thread count,
block or window.  Moments of z = (e, x) are accumulated only at the
requested grid nodes, by default the checkpoint_nodes cross_moment_check
compares: as a block passes such a node it adds its own rows' sums of z,
z'z and (x o x)'(e o e) to the node's running sums, and the blocks add in
path order (the partitioned update of Chan, Golub & LeVeque 1983), so no
copy of the population's state is held.  The node moments are therefore
bit-identical whatever the thread count or window; the block, a constant
of the model's shapes, moves them by round-off only.  The state is checked
for finiteness at every node, by one sum that screens the whole block.  The
oracle returns ensemble statistics only (simulate_ensemble); two paths with
one seed give a single path's trajectory as their mean.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import checks
from .errors import DivergenceError, GridMismatchError
from .ode import lattice_values

# Euler-Maruyama substeps per grid interval of the gain schedules.
SUBSTEPS_PER_NODE = 4

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence constants (NEP 19): the running multipliers of its
# entropy hash (A) and output hash (B), its word mixer, and its pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Noise is drawn and propagated in tiles of a block of paths by a window of
# nodes (_tile_shape).  A block has rows paths with rows (4n + s m) ~
# _TILE_FOOTPRINT doubles, one node's state and noise for the block, so that
# the node's two products run on data still in cache (1 250 paths on the
# reference, 312 at n = 8).  The block follows from the model's shapes alone,
# never from the path or thread count.  A row's products do not depend on the
# other rows of its block (the BLAS computes each output row from its own
# input row, which TestThreadedNoise pins), so no path's state changes by a
# bit with the block; the node moments, summed block by block, change by
# round-off only.
_TILE_FOOTPRINT = 20_000

# Doubles that the two noise tiles in flight (the one propagated and the one
# being drawn), the chunks' scratch and one window's folded maps
# hold together; this sets the window width, unless one node interval alone
# is larger (32 MB: 195 nodes on the reference and 141 at n = 8 with two
# drawing threads, so a path's draw call takes 1 560 and 4 512 normals).
# Neither it nor the block depends on the path count, so a long grid or a
# large ensemble needs no more noise memory than a short one, and every draw
# call is as long at 300 paths as at 30 000.  No per-path stream, no bit of a
# map and no bit of any output depends on it.
_NOISE_BUDGET = 1 << 22

# Paths a chunk of a tile holds: each thread, the calling one too, draws one
# chunk at a time into a scratch of its own, then writes it into the
# node-major tile with one transposing assignment while it is still in cache.
_CHUNK = 64


def splitmix64(values) -> np.ndarray:
    """The splitmix64 mixer (64-bit avalanche function), elementwise.

    Takes and returns uint64 values (a 0-d array for a scalar); the steps
    run in place on a uint64 copy, so every sum and product wraps mod 2^64.
    """
    z = np.array(values, dtype=np.uint64)
    z += 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _is_int(value) -> bool:
    """Whether value is an int or a numpy integer, bools excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _uint64_seed(seed, name: str) -> int:
    """seed as a Python int; it must be an int in [0, 2^64), or ValueError names it."""
    if not _is_int(seed) or not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} = {seed!r} is not an int in [0, 2^64)")
    return int(seed)


def _path_seeds(base_seed: int, indices) -> np.ndarray:
    """base_seed XOR splitmix64(index) for every index, as uint64."""
    return splitmix64(indices) ^ np.uint64(_uint64_seed(base_seed, "base_seed"))


def derive_path_seed(base_seed: int, index: int) -> int:
    return int(_path_seeds(base_seed, int(index)))


def _validated_seeds(seeds) -> np.ndarray:
    """The `seeds` override as uint64; every entry must be an int in [0, 2^64)."""
    return np.array([_uint64_seed(seed, f"seeds[{i}]") for i, seed in enumerate(seeds)],
                    dtype=np.uint64)


def _hasher(key: int, mult: int):
    """SeedSequence's uint32 hash, whose key advances by `mult` on every call."""
    def hash_words(words: np.ndarray) -> np.ndarray:
        nonlocal key
        words = words ^ key
        key = key * mult & _MASK32
        words *= key
        words ^= words >> 16
        return words
    return hash_words


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    SeedSequence splits an int seed into little-endian uint32 words, hashes
    them into a pool of four words, mixes every pool word into every other,
    and hashes the pool out into eight words, read as four little-endian
    uint64.  Its hash keys do not depend on the seed, so every step runs on
    all seeds at once in uint32 arrays, where products wrap mod 2^32.  A
    missing word hashes as a word equal to 0, so a seed below 2^32 (one
    word) and a larger one (two) both take the low and the high word, and
    the pool is zero-padded to four.  Returns C-contiguous (len(seeds), 4)
    uint64 rows, the layout PCG64 reads its seed words in.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    entropy_hash = _hasher(_INIT_A, _MULT_A)
    for i in range(_POOL_SIZE):
        pool[i] = entropy_hash(pool[i])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * entropy_hash(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    output_hash = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output_hash(pool[i % _POOL_SIZE]) for i in range(8)]).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)


def _path_generators(words: np.ndarray) -> list:
    """One Generator(PCG64) per row of _seed_words, with default_rng(seed)'s stream.

    default_rng(seed) is Generator(PCG64(SeedSequence(seed))), and PCG64
    reads only generate_state(4, np.uint64) from its seed sequence; here
    that call returns the row.  numpy.random is imported here, not at
    module level, so that importing the package does not load it.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    # PCG64 reads its four words through a raw pointer into the row.
    if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != 4 \
            or not words.flags.c_contiguous:
        raise ValueError("seed words must be a C-contiguous (paths, 4) uint64 array")

    class SeedWords(ISeedSequence):
        """A seed sequence that hands PCG64 one precomputed row of seed words."""

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return [Generator(PCG64(SeedWords(row))) for row in words]


def checkpoint_nodes(steps: int, checkpoints: int) -> np.ndarray:
    """Indices of `checkpoints` evenly spaced nodes of a `steps`-step grid.

    The first and last nodes are always included; rounding may merge
    neighbours on a coarse grid, so fewer indices can come back.  Fewer than
    two checkpoints cannot hold both ends and raise ValueError.
    """
    if checkpoints < 2:
        raise ValueError(f"checkpoints must be >= 2 (first and last node), got {checkpoints}")
    return _distinct(np.round(np.linspace(0, steps, checkpoints)).astype(int))


def _distinct(idx: np.ndarray) -> np.ndarray:
    """The sorted 1-d idx without repeats.

    Not np.unique: in numpy 2.4 it imports numpy.ma, which no other part of
    a run loads.
    """
    return idx[np.r_[True, idx[1:] != idx[:-1]]]


def _worker_count(paths: int) -> int:
    """One noise-drawing thread per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, paths))


def _tile_shape(dim: int, draws: int, cols: int, workers: int, steps: int) -> tuple[int, int]:
    """(rows, width): the paths of a block and the nodes of a window of the noise.

    dim is the state's length, draws a node's normals and cols a row's
    length with its energy terms, per path; workers is the drawing thread
    count and steps the grid's.  Only the window depends on workers and
    steps, and neither on the path count.
    """
    rows = max(1, _TILE_FOOTPRINT // (dim + draws))
    # Doubles per node of a window: the two tiles in flight, the scratch of
    # one chunk per drawing thread, the folded maps W_z and W_w, and, while
    # they are folded, two products and one M_j.
    per_node = ((2 * rows + workers * _CHUNK) * draws + (dim + draws) * cols
                + 3 * dim * dim)
    return rows, max(1, min(steps, _NOISE_BUDGET // per_node))


def _draw_chunk(rngs, tile: np.ndarray, first: int, start: int) -> None:
    """Draw rows start..start + _CHUNK - 1 of the node-major tile (width, rows, draws).

    Row i is path first + i's: width * draws normals from rngs[first + i]
    alone, in one standard_normal call, whose k-th run of `draws` is tile[k, i].
    """
    width, rows, draws = tile.shape
    stop = min(start + _CHUNK, rows)
    chunk = np.empty((stop - start, width * draws))
    for i, row in enumerate(chunk, first + start):
        rngs[i].standard_normal(out=row)
    tile[:, start:stop] = chunk.reshape(stop - start, width, draws).swapaxes(0, 1)


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
    every per-node array belongs to node `nodes[k]`.  `mean` and `second`
    are the empirical first and second moments of the propagated state
    z = (e, x), the estimation error e = sX - x over the controller state x,
    so second[k] = [[E e e', E e x'], [E x e', E x x']]: the sampled leading
    4n block of the chain's second moment.  The error statistics are thus
    read from the propagated e itself, never differenced from sX and x.
    `cross_xe_sq` is the mean of the entrywise squares of x e', kept so the
    x e' block has entrywise standard errors.  Terminal-scalar statistics
    are taken at the horizon whatever the nodes, and carry standard errors
    directly.
    """

    paths: int
    nodes: np.ndarray
    times: np.ndarray
    mean: np.ndarray
    second: np.ndarray
    cross_xe_sq: np.ndarray
    deviation_mean: float
    deviation_se: float
    smoothing_sqerr_mean: float
    smoothing_sqerr_se: float
    control_energy_mean: float
    control_energy_se: float
    cost_mean: float
    cost_se: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    count = values.shape[0]
    mean = float(values.mean()) if count else 0.0
    if count < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(count))


def _node_indices(nodes, steps: int) -> np.ndarray:
    """Validated, sorted, de-duplicated node indices; None means the checkpoints."""
    if nodes is None:
        return checkpoint_nodes(steps, checks.CHECKPOINTS)
    idx = np.asarray(nodes).reshape(-1)
    # a float or string entry would be truncated or parsed by astype
    if idx.dtype.kind not in "iu" or idx.size == 0 or idx.min() < 0 or idx.max() > steps:
        raise ValueError(f"nodes must be a non-empty set of integers in 0..{steps}, "
                         f"got {nodes!r}")
    return _distinct(np.sort(idx).astype(int))


def _node_operators(sys, gains: GainSchedule, sub: int, h: float, pi_sqrt: np.ndarray,
                   q0: int, q1: int):
    """Fold the `sub` Euler-Maruyama substeps of grid intervals q0..q1-1 into one map each.

    The substep j update of the joint row state z = (e, x), e = sX - x, is
    the affine map z <- z M_j' + dw_j N_j' with the block lower-triangular

        M_j = [[I + h (sA - K_j sC),    0                  ],
               [h K_j sC,               I + h (sA + sE c_j)]],
        N_j = [[sqrt(h) (sB - K_j D)], [sqrt(h) K_j D]],

    and its energy integrand is |L_j x_j|^2 with L_j = sqrt(Pi) c_j, the
    gains K_j and c_j taken at the substep's left end by ode.lattice_values
    with `sub` points per step.  Over node q, with z_q the state at the node
    and w_q the node's s m noise draws (substep-major), the returned
    operators give

        z_q W_z[q - q0] + w_q W_w[q - q0] = (z_{q+1}, L_0 x_0, ..., L_{s-1} x_{s-1}),

    x_k being the controller state at the node's substep k.  Returns W_z
    (q1 - q0, 4n, 4n + s d) and W_w (q1 - q0, s m, 4n + s d).  `h` is the
    substep of the whole grid and `pi_sqrt` is sqrt(Pi), both passed in so
    every block of nodes folds with the same bits.  Products of block
    lower-triangular maps keep their zero block exactly, so e stays bitwise
    0 without noise.
    """
    k_sub = lattice_values(gains.K, sub, q0 * sub, q1 * sub)
    c_sub = lattice_values(gains.c, sub, q0 * sub, q1 * sub)
    nodes = q1 - q0
    sqrt_h = np.sqrt(h)
    twon = 2 * sys.n
    dim, m, d = 2 * twon, sys.m, gains.c.shape[1]
    cols = dim + sub * d
    eye = np.eye(twon)

    # reach_z[q] and w_w[q, :, :dim] map the node's state and noise to the
    # state at substep k of node q; substep k's own noise enters after it.
    # Substep k's maps M_j of every node are built in m_op just before use.
    w_z = np.empty((nodes, dim, cols))
    w_w = np.zeros((nodes, sub * m, cols))
    reach_z = np.broadcast_to(np.eye(dim), (nodes, dim, dim))
    reach_w = w_w[:, :, :dim]
    m_op = np.zeros((nodes, dim, dim))
    for k in range(sub):
        k_j, c_j = k_sub[k::sub], c_sub[k::sub]
        k_sc = np.matmul(k_j, sys.sC)
        k_d = np.matmul(k_j, sys.D)
        m_op[:, :twon, :twon] = eye + h * sys.sA - h * k_sc
        m_op[:, twon:, :twon] = h * k_sc
        m_op[:, twon:, twon:] = eye + h * (sys.sA + np.matmul(sys.sE, c_j))
        m_t = np.swapaxes(m_op, 1, 2)
        l_k = np.swapaxes(np.matmul(pi_sqrt, c_j), 1, 2)   # (nodes, 2n, d)
        out = slice(dim + k * d, dim + (k + 1) * d)
        np.matmul(reach_z[:, :, twon:], l_k, out=w_z[:, :, out])
        np.matmul(reach_w[:, :, twon:], l_k, out=w_w[:, :, out])
        reach_z = reach_z @ m_t
        reach_w[...] = reach_w @ m_t
        # N_j' carries substep k's own noise
        reach_w[:, k * m:(k + 1) * m, :twon] = sqrt_h * np.swapaxes(sys.sB - k_d, 1, 2)
        reach_w[:, k * m:(k + 1) * m, twon:] = sqrt_h * np.swapaxes(k_d, 1, 2)
    w_z[:, :, :dim] = reach_z
    return w_z, w_w


def _first_non_finite(z: np.ndarray) -> int:
    """Index of the first row of z with a non-finite entry, or -1.

    One sum screens the whole of z: a NaN or inf entry always makes it
    non-finite, and only then are the rows searched.  A sum of finite entries
    that overflows is searched too, and finds none.  The caller silences the
    sum's overflow, and the NaN of inf - inf, with np.errstate.
    """
    if np.isfinite(z.sum()):
        return -1
    rows = np.nonzero(~np.isfinite(z).all(axis=1))[0]
    return int(rows[0]) if rows.size else -1


def _propagate(sys, gains: GainSchedule, mean0, cov0_factor, seeds,
               substeps_per_node: int, nodes) -> SampleMoments:
    """Vectorized Euler-Maruyama over all requested paths, one tile at a time.

    Each grid interval is one affine map (see _node_operators): the row
    state z = (e, x), e = sX - x, of a path advances to the next node by
    z W_z[q] + w_q W_w[q], which also yields L_k x_k at each of the node's
    substeps for the control energy, integrated by the substep trapezoid
    h sum_{j<S} g_j + (h/2)(g_S - g_0), g_j = |L_j x_j|^2.  This is the
    innovation-driven scheme dZ = sC sX h + D dw sqrt(h), dV = dZ - sC x h,
    sX += (sA sX + sE U) h + sB dw sqrt(h), x += (sA x + sE U) h + K dV with
    U = c x, rewritten for e.

    The noise comes in tiles, a block of paths by a window of nodes (see
    _tile_shape), taken window by window and, within a window, block by
    block; each window's maps are folded once, with the substep h of the
    whole grid and sqrt(Pi) computed here.  A block's state lives in
    preallocated Fortran-order buffers, so the state and the energy terms
    are contiguous column blocks; between tiles each path keeps only z, its
    summed energy squares and its first energy rate.  The finiteness check,
    one sum screening the block's state, runs at every node; a block stops
    at its first non-finite node, and the window's earliest such node, and
    its first path, is reported once every block has run.  At each
    accumulated node (`nodes`, default the checkpoints, node 0 included) a
    block adds its own rows' z, z'z and (x o x)'(e o e) to the node's three
    sums, the blocks in path order.  Only the horizon deviation reads sX,
    as (X0; e + x).  The next tile is drawn on a thread pool, one
    _draw_chunk job a chunk, while this one propagates.  Every path's state
    and the terminal scalars depend only on (seeds, substeps), bit for bit,
    whatever the tiling or thread count; the node sums depend on the block
    too, but not on the window or the thread count.
    """
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)
    cov0_factor = np.asarray(cov0_factor, dtype=float)
    times = gains.times
    steps = len(times) - 1
    if not _is_int(substeps_per_node) or substeps_per_node < 1:
        raise ValueError(f"substeps_per_node must be an int >= 1, got {substeps_per_node!r}")
    sub = int(substeps_per_node)
    nodes = _node_indices(nodes, steps)
    h = float(times[-1] - times[0]) / (steps * sub)
    pi_sqrt = psd_sqrt(gains.Pi)
    slot = np.full(steps + 1, -1)
    slot[nodes] = np.arange(len(nodes))

    n, m, d = sys.n, sys.m, gains.c.shape[1]
    twon = 2 * n
    dim = 2 * twon
    cols = dim + sub * d
    draws = sub * m
    count = len(seeds)
    rngs = _path_generators(_seed_words(seeds))
    workers = _worker_count(count)

    zeta = np.empty((count, n))  # drawn in this thread
    for rng, row in zip(rngs, zeta):
        rng.standard_normal(out=row)
    spread0 = zeta @ cov0_factor.T
    plant0 = mean0[None, :] + spread0  # X0

    kept = len(nodes)
    mean_sum = np.zeros((kept, dim))
    second_sum = np.zeros((kept, dim, dim))
    cross_sq_sum = np.zeros((kept, twon, twon))

    def accumulate(k: int, z: np.ndarray) -> None:
        """Add the moments of a block's states z = (e, x) to slot k."""
        err, x_part = z[:, :twon], z[:, twon:]
        mean_sum[k] += z.sum(axis=0)
        second_sum[k] += z.T @ z
        cross_sq_sum[k] += (x_part * x_part).T @ (err * err)

    def diverged(path: int, node: int) -> DivergenceError:
        return DivergenceError(
            f"non-finite path state (seed {int(seeds[path])}) at substep "
            f"{node * sub} (t = {times[0] + node * sub * h:.6g})"
        )

    # A diverging path overflows on its way to inf/nan; the finiteness check
    # reports it as DivergenceError, so numpy's warnings are only noise.  A
    # path whose state stays finite while its square overflows yields an inf
    # energy, deviation or cost below, which checks.monte_carlo fails (delta
    # z = inf or mc_cost_finite).
    with np.errstate(over="ignore", invalid="ignore"):
        # Every path's state between tiles: z = (e, x), the energy squares
        # summed so far and the energy rate at the first substep.
        z = np.empty((count, dim), order="F")
        z[:, :n] = spread0
        z[:, n:twon] = spread0
        z[:, twon:] = np.concatenate([mean0, mean0])
        bad = _first_non_finite(z)
        if bad >= 0:
            raise diverged(bad, 0)
        squares = np.zeros((count, cols - dim), order="F")
        g_first = np.empty(count)

        rows, width = _tile_shape(dim, draws, cols, workers, steps)
        block = min(rows, count)
        tiles = [(q0, min(q0 + width, steps), lo, min(lo + block, count))
                 for q0 in range(0, steps, width) for lo in range(0, count, block)]
        # a block's state, next state and noise term: (z, L_0 x_0, ..., L_{s-1} x_{s-1})
        buffers = [np.empty(block * cols) for _ in range(3)]
        noise_buffers = [np.empty(block * width * draws) for _ in range(2)]

        def tile(i: int) -> np.ndarray:
            q0, q1, lo, hi = tiles[i]
            size = (q1 - q0) * (hi - lo) * draws
            return noise_buffers[i % 2][:size].reshape(q1 - q0, hi - lo, draws)

        def submit(pool, i: int) -> list:
            """Submit tile i's chunks to the pool in path order, as (job, future) pairs."""
            noise, first = tile(i), tiles[i][2]
            jobs = [partial(_draw_chunk, rngs, noise, first, start)
                    for start in range(0, noise.shape[1], _CHUNK)]
            return [(job, pool.submit(job)) for job in jobs]

        def finish(chunks: list) -> None:
            """Draw here every chunk no pool thread has started, then wait for the rest."""
            for job, future in chunks:
                if future.cancel():
                    job()
            for _, future in chunks:
                if not future.cancelled():
                    future.result()  # re-raises a drawing error

        # Imported here so that importing the package loads no logging.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            chunks = submit(pool, 0)
            for i, (q0, q1, lo, hi) in enumerate(tiles):
                finish(chunks)
                if i + 1 < len(tiles):
                    chunks = submit(pool, i + 1)
                noise = tile(i)
                if lo == 0:
                    w_z = w_w = None  # before the window's operators are folded
                    w_z, w_w = _node_operators(sys, gains, sub, h, pi_sqrt, q0, q1)
                    first_bad = None  # (node, path) of the window's first non-finite state
                state, ahead, drive = (buf[:(hi - lo) * cols].reshape((hi - lo, cols), order="F")
                                       for buf in buffers)
                state[:, :dim] = z[lo:hi]
                if q0 == 0 and slot[0] >= 0:
                    accumulate(0, state[:, :dim])
                for q in range(q0, q1):
                    np.matmul(state[:, :dim], w_z[q - q0], out=ahead)
                    np.matmul(noise[q - q0], w_w[q - q0], out=drive)
                    np.add(ahead, drive, out=ahead)
                    state, ahead = ahead, state
                    terms = state[:, dim:]
                    if q == 0:
                        g_first[lo:hi] = (terms[:, :d] ** 2).sum(axis=1)
                    np.multiply(terms, terms, out=drive[:, dim:])
                    squares[lo:hi] += drive[:, dim:]
                    bad = _first_non_finite(state[:, :dim])
                    if bad >= 0:
                        if first_bad is None or q + 1 < first_bad[0]:
                            first_bad = (q + 1, lo + bad)
                        break
                    if slot[q + 1] >= 0:
                        accumulate(slot[q + 1], state[:, :dim])
                z[lo:hi] = state[:, :dim]
                if hi == count and first_bad is not None:  # the window's last block
                    raise diverged(first_bad[1], first_bad[0])
        del noise_buffers, w_z, w_w

        g_final = ((z[:, twon:] @ (pi_sqrt @ gains.c[-1]).T) ** 2).sum(axis=1)
        energy = h * squares.sum(axis=1) + (0.5 * h) * (g_final - g_first)

        # sX at the horizon: its initial copy is X0 and its live part e + x.
        s_final = np.empty((count, twon))
        s_final[:, :n] = plant0
        np.add(z[:, n:twon], z[:, twon + n:], out=s_final[:, n:])
        deviation = np.einsum("bi,ij,bj->b", s_final, sys.Lambda, s_final)
        smoothing = (z[:, :n] ** 2).sum(axis=1)
        cost_paths = deviation + energy

        dev_mean, dev_se = _mean_se(deviation)
        smooth_mean, smooth_se = _mean_se(smoothing)
        energy_mean, energy_se = _mean_se(energy)
        cost_mean, cost_se = _mean_se(cost_paths)

    return SampleMoments(
        paths=count,
        nodes=nodes,
        times=times[nodes],
        mean=mean_sum / count,
        second=second_sum / count,
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


def check_ensemble(paths: int, base_seed: int) -> None:
    """simulate_ensemble's ValueError unless paths is an int >= 2 and base_seed is in [0, 2^64)."""
    if not _is_int(paths):
        raise ValueError(f"paths must be an int, got {paths!r}")
    if paths < 2:
        raise ValueError(f"need at least 2 paths, got {paths}")
    _uint64_seed(base_seed, "base_seed")


def simulate_ensemble(sys, gains: GainSchedule, mean0, cov0, paths: int,
                      base_seed: int, substeps_per_node: int = SUBSTEPS_PER_NODE,
                      seeds: Sequence[int] | None = None,
                      nodes: Sequence[int] | None = None) -> SampleMoments:
    """Simulate an ensemble and accumulate empirical moments per node.

    Moments are accumulated at the gain-grid node indices `nodes` (default
    checkpoint_nodes(steps, checks.CHECKPOINTS), the nodes cross_moment_check
    compares), and the terminal scalars at the horizon either way.  A
    non-finite path state raises DivergenceError at the first node, requested
    or not, where it is seen.  The result is bit-identical for any thread
    count, and for any `nodes` at the nodes both runs accumulate.

    Seeds default to derive_path_seed(base_seed, i) for i = 0..paths-1.  The
    `seeds` override serves tests: with paths=2 and two identical seeds the
    empirical variance is zero and every mean is that one path, bitwise.
    base_seed, and each entry of `seeds`, must be an int in [0, 2^64), or
    ValueError names it (see check_ensemble).
    """
    check_ensemble(paths, base_seed)
    if seeds is None:
        seeds = _path_seeds(base_seed, np.arange(paths, dtype=np.uint64))
    elif len(seeds) != paths:
        raise ValueError(f"{len(seeds)} seeds supplied for {paths} paths")
    else:
        seeds = _validated_seeds(seeds)
    factor = psd_sqrt(cov0)
    return _propagate(sys, gains, mean0, factor, seeds, substeps_per_node, nodes)


@dataclass(frozen=True)
class CheckpointResidual:
    """The ensemble's residuals against the ODE pipeline at one checkpoint."""

    t: float
    mho_max_abs: float
    mho_max_z: float
    e_mean_norm: float
    e_mean_max_z: float
    P_rel_err: float
    T_rel_err: float


def _rel_err(estimate: np.ndarray, reference: np.ndarray) -> float:
    # An overflowed estimate reads inf (or NaN), which fails its gate.
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.linalg.norm(reference))
        diff = float(np.linalg.norm(estimate - reference))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / denom


def cross_moment_check(moments: SampleMoments, closedloop_sol, filter_sol
                       ) -> tuple[CheckpointResidual, ...]:
    """Measure the ensemble against P, T and the zero cross-correlation.

    Returns one row per node in moments.nodes (the checkpoints unless
    simulate_ensemble was given other nodes): the largest z-score
    (checks.z_score) of the x e' residual and of the mean estimation error,
    and the relative errors of the sampled error covariance against P and of
    the sampled controller moment against T.  Measurement only: nothing here
    applies a limit, and checks.monte_carlo makes every verdict from the
    rows.  A non-finite residual gives an inf z-score and a NaN or inf
    relative error.  GridMismatchError is raised when the ensemble's nodes
    do not lie on the filter and closed-loop grids.
    """
    grid = filter_sol.times
    if moments.nodes[-1] >= len(grid) or not np.array_equal(moments.times, grid[moments.nodes]):
        raise GridMismatchError("ensemble and filter grids differ")
    if not np.array_equal(grid, closedloop_sol.times):
        raise GridMismatchError("ensemble and closed-loop grids differ")

    twon = moments.mean.shape[1] // 2
    e_mean = moments.mean[:, :twon]
    e_second = moments.second[:, :twon, :twon]
    x_second = moments.second[:, twon:, twon:]
    cross_xe = moments.second[:, twon:, :twon]
    scale = max(moments.paths - 1, 1)
    e_var = np.einsum("tii->ti", e_second) - e_mean ** 2
    e_mean_se = np.sqrt(np.clip(e_var, 0.0, None) / scale)
    # An overflowed x e' entry gives a NaN standard error; checks.z_score
    # fails it, so numpy's warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        mho_var = moments.cross_xe_sq - cross_xe ** 2
        mho_se = np.sqrt(np.clip(mho_var, 0.0, None) / scale)

    return tuple(
        CheckpointResidual(
            t=float(moments.times[i]),
            mho_max_abs=float(np.max(np.abs(cross_xe[i]))),
            mho_max_z=float(np.max(checks.z_score(cross_xe[i], mho_se[i]))),
            e_mean_norm=float(np.linalg.norm(e_mean[i])),
            e_mean_max_z=float(np.max(checks.z_score(e_mean[i], e_mean_se[i]))),
            P_rel_err=_rel_err(e_second[i], filter_sol.P_full[node]),
            T_rel_err=_rel_err(x_second[i], closedloop_sol.T[node]),
        )
        for i, node in enumerate(moments.nodes)
    )
