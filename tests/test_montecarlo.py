import dataclasses
import functools
import importlib.util
import re
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import n8_spec, random_valid_scenario, reference_spec
from qmemctl import (
    DivergenceError,
    GridMismatchError,
    checkpoint_nodes,
    cross_moment_check,
    derive_path_seed,
    gain_schedule,
    pipeline,
    psd_sqrt,
    simulate_ensemble,
)
from qmemctl import montecarlo
from qmemctl.model import ScenarioSpec
from qmemctl.montecarlo import GainSchedule, splitmix64


_spec = functools.partial(reference_spec, steps=500)


@pytest.fixture(scope="module")
def mc_setup():
    spec = _spec()
    run = pipeline.run(spec, "simulate")
    return (spec, run.sys, run.filter, run.control, run.closed,
            gain_schedule(run.filter, run.control))


def _benchmark_workloads():
    """WORKLOADS of perfbench/workloads.py, loaded by path with its sibling modules."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    sys.path.insert(0, str(bench))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module.WORKLOADS


def em_deviation_oracle(sys, gains, mean0, cov0, substeps_per_node):
    """Exact first/second moments of the Euler scheme, propagated directly.

    Builds the one-step transition from the raw update equations applied to
    basis vectors, so it is independent of the sampling engine, and returns
    the scheme's exact E(sX' Lambda sX) at the horizon.
    """
    mean0 = np.asarray(mean0, dtype=float).reshape(-1)
    n = sys.n
    twon = 2 * n
    dim = 2 * twon
    times = gains.times
    steps = len(times) - 1
    total = steps * substeps_per_node
    h = float(times[-1] - times[0]) / total
    sqrt_h = np.sqrt(h)

    mu = np.concatenate([mean0, mean0, mean0, mean0])
    cov = np.zeros((dim, dim))
    cov[:twon, :twon] = np.tile(np.asarray(cov0, dtype=float), (2, 2))
    sigma = cov + np.outer(mu, mu)

    basis = np.eye(dim)
    noise_basis = np.eye(sys.m)
    for j in range(total):
        node, frac = divmod(j, substeps_per_node)
        w = frac / substeps_per_node
        k_t = (1 - w) * gains.K[node] + w * gains.K[node + 1]
        c_t = (1 - w) * gains.c[node] + w * gains.c[node + 1]

        s_part, x_part = basis[:, :twon], basis[:, twon:]
        u = x_part @ c_t.T
        dv = h * ((s_part - x_part) @ sys.sC.T)
        s_next = s_part + h * (s_part @ sys.sA.T + u @ sys.sE.T)
        x_next = x_part + h * (x_part @ sys.sA.T + u @ sys.sE.T) + dv @ k_t.T
        f_op = np.concatenate([s_next, x_next], axis=1).T

        sn = sqrt_h * (noise_basis @ sys.sB.T)
        xn = sqrt_h * (noise_basis @ sys.D.T) @ k_t.T
        g_op = np.concatenate([sn, xn], axis=1).T

        mu = f_op @ mu
        sigma = f_op @ sigma @ f_op.T + g_op @ g_op.T
    return float(np.sum(sys.Lambda * sigma[:twon, :twon]))


def _assert_moments_identical(a, b):
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), field.name
        else:
            assert left == right, field.name


def _run_bounded(fn, timeout=120.0):
    """Run fn in a thread joined with a timeout; return its result or re-raise."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "simulation did not finish in time"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _draw_on_pool(rngs, tile, first, workers):
    """Draw every chunk of a tile on a pool of `workers` threads; re-raise a drawing error."""
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(montecarlo._draw_chunk, rngs, tile, first, start)
                       for start in range(0, tile.shape[1], montecarlo._CHUNK)]:
            future.result()


def _splitmix64_int(value: int) -> int:
    """splitmix64 on Python ints, independent of the vectorised one."""
    mask = (1 << 64) - 1
    z = (value + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


_EDGE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1]


class TestSeeding:
    def test_splitmix_reference_vector(self):
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_vectorised_splitmix_matches_scalar_formula(self):
        indices = np.arange(1000, dtype=np.uint64)
        mixed = splitmix64(indices)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [_splitmix64_int(i) for i in range(1000)]
        assert mixed.tolist() == [derive_path_seed(0, i) for i in range(1000)]
        assert [derive_path_seed(123, i) for i in range(1000)] == \
               [123 ^ _splitmix64_int(i) for i in range(1000)]

    def test_derived_seeds_distinct_and_stable(self):
        seeds = [derive_path_seed(123, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert seeds == [derive_path_seed(123, i) for i in range(1000)]

    @pytest.mark.parametrize("seeds", [
        _EDGE_SEEDS,
        [derive_path_seed(123, i) for i in range(1000)],
    ], ids=["edge", "derived"])
    def test_seed_words_match_seed_sequence(self, seeds):
        # Pins the vectorised SeedSequence: if numpy ever changes its
        # seeding, this fails instead of every stream shifting silently.
        words = montecarlo._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64)
                             for s in seeds])
        assert np.array_equal(words, expected)

    def test_generators_match_default_rng(self):
        seeds = _EDGE_SEEDS + [derive_path_seed(123, i) for i in range(100)]
        rngs = montecarlo._path_generators(
            montecarlo._seed_words(np.array(seeds, dtype=np.uint64)))
        for seed, rng in zip(seeds, rngs):
            reference = np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state, seed
            assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5)), seed

    @pytest.mark.parametrize("words", [
        np.zeros((3, 4)),                                   # float64
        np.zeros((3, 8), dtype=np.uint64),                  # too many words
        np.asfortranarray(np.zeros((3, 4), dtype=np.uint64)),  # rows not contiguous
    ], ids=["dtype", "shape", "order"])
    def test_generators_refuse_malformed_words(self, words):
        with pytest.raises(ValueError, match="C-contiguous"):
            montecarlo._path_generators(words)

    @pytest.mark.parametrize("bad", [-1, 2**64, 3.0, True])
    def test_seed_override_must_be_uint64_int(self, mc_setup, bad):
        spec, sys_m, _, _, _, gains = mc_setup
        with pytest.raises(ValueError, match=re.escape(f"seeds[1] = {bad!r}")):
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2,
                              base_seed=0, seeds=[5, bad])

    @pytest.mark.parametrize("bad", [-1, 2**64, True])
    def test_base_seed_must_be_uint64_int(self, mc_setup, bad):
        spec, sys_m, _, _, _, gains = mc_setup
        message = re.escape(f"base_seed = {bad!r} is not an int in [0, 2^64)")
        with pytest.raises(ValueError, match=message):
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2, base_seed=bad)
        with pytest.raises(ValueError, match=message):
            derive_path_seed(bad, 0)

    def test_base_seed_accepts_the_uint64_range(self):
        assert derive_path_seed(np.uint64(2**64 - 1), 0) == (2**64 - 1) ^ _splitmix64_int(0)
        assert derive_path_seed(0, 3) == _splitmix64_int(3)

    def test_seed_override_accepts_the_uint64_range(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        top = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2,
                                base_seed=0, seeds=[0, np.uint64(2**64 - 1)])
        assert np.isfinite(top.mean_y).all()


class TestPsdSqrt:
    def test_square_root_property(self):
        rng = np.random.default_rng(5)
        seed = rng.standard_normal((4, 4))
        cov = seed @ seed.T
        factor = psd_sqrt(cov)
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)

    def test_singular_covariance_supported(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        factor = psd_sqrt(cov)
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)

    def test_negative_roundoff_clipped(self):
        factor = psd_sqrt(np.array([[1.0, 0.0], [0.0, -1e-14]]))
        assert np.isfinite(factor).all()


def _one_path(sys_m, gains, mean0, cov0, seed, substeps_per_node=4):
    """Two paths with one seed, at every node: their means are that path, bitwise."""
    return simulate_ensemble(sys_m, gains, mean0, cov0, paths=2, base_seed=0,
                             substeps_per_node=substeps_per_node, seeds=[seed, seed],
                             nodes=np.arange(len(gains.times)))


class TestSamplePath:
    def test_bit_identical_on_rerun(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        a = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=99)
        b = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=99)
        assert np.array_equal(a.mean_y, b.mean_y)
        assert a.control_energy_mean == b.control_energy_mean

    def test_initial_copy_frozen(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        path = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=5)
        np.testing.assert_array_equal(path.mean_y[:, :2],
                                      np.broadcast_to(path.mean_y[0, :2], (len(path.times), 2)))

    def test_controller_initialized_at_duplicated_mean(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        path = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=5)
        np.testing.assert_array_equal(path.mean_y[0, 4:],
                                      np.concatenate([spec.mean0, spec.mean0]))
        assert path.times[0] == 0.0

    def test_noiseless_path_tracks_mean_ode(self):
        spec = _spec(M=np.zeros((2, 2)), cov0=np.zeros((2, 2)), steps=500)
        run = pipeline.run(spec, "simulate")
        sys_m, filt, closed = run.sys, run.filter, run.closed
        gains = gain_schedule(filt, run.control)
        assert not filt.K.any()  # no observation channel content
        path = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=1, substeps_per_node=4)
        err4 = np.max(np.abs(path.mean_y[:, 4:] - closed.x_mean))
        assert err4 < 5e-3  # Euler bias only, O(h)
        np.testing.assert_allclose(path.mean_y[:, :4], path.mean_y[:, 4:], atol=1e-12)
        path8 = _one_path(sys_m, gains, spec.mean0, spec.cov0, seed=1, substeps_per_node=8)
        err8 = np.max(np.abs(path8.mean_y[:, 4:] - closed.x_mean))
        assert 1.5 <= err4 / err8 <= 3.0  # first-order convergence


def test_single_step_increment_covariance():
    # Static plant with identity-padded noise: the one-step increment of sX
    # is exactly sqrt(h) sB dw, so its covariance is h sB sB'.
    from qmemctl.model import SystemMatrices

    n, m = 2, 2
    sb = np.vstack([np.zeros((n, m)), np.eye(m)])
    zero_nn = np.zeros((n, n))
    sys_m = SystemMatrices(
        n=n, m=m, d=0, r=1, s=n,
        Theta=zero_nn, J=np.zeros((m, m)), A=zero_nn, B=np.eye(m),
        E=np.zeros((n, 0)), C=np.zeros((1, n)), D=np.array([[1.0, 0.0]]),
        G=np.eye(1), Sigma=np.eye(n),
        Lambda=np.kron([[1.0, -1.0], [-1.0, 1.0]], np.eye(n)),
        sA=np.zeros((2 * n, 2 * n)), sB=sb, sC=np.zeros((1, 2 * n)),
        sE=np.zeros((2 * n, 0)),
    )
    h = 0.25
    gains = GainSchedule(
        times=np.array([0.0, h]),
        K=np.zeros((2, 2 * n, 1)),
        c=np.zeros((2, 0, 2 * n)),
        Pi=np.zeros((0, 0)),
    )
    moments = simulate_ensemble(sys_m, gains, np.zeros(n), np.zeros((n, n)),
                                paths=100_000, base_seed=314, substeps_per_node=1)
    cov = moments.second_y[1][:2 * n, :2 * n]
    expected = h * sb @ sb.T
    assert np.max(np.abs(cov - expected)) <= 0.05 * h


class TestEnsemble:
    def test_rejects_degenerate_path_counts(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        with pytest.raises(ValueError):
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=1, base_seed=1)
        with pytest.raises(ValueError):
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=3,
                              base_seed=1, seeds=[1, 2])

    def test_bit_identical_on_rerun(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        a = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                              base_seed=2024)
        b = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                              base_seed=2024)
        for field in ("mean_y", "second_y", "cross_xe", "cross_xe_sq"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.deviation_mean, a.cost_mean, a.cost_se) == \
               (b.deviation_mean, b.cost_mean, b.cost_se)

    def test_identical_seeds_collapse_variance(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2,
                                    base_seed=0, seeds=[11, 11])
        spread = moments.second_y[-1] - np.outer(moments.mean_y[-1], moments.mean_y[-1])
        assert np.max(np.abs(spread)) == 0.0
        assert moments.deviation_se == 0.0

    def test_second_moments_symmetric_psd(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=500,
                                    base_seed=7)
        sym = np.max(np.abs(moments.second_y - np.swapaxes(moments.second_y, 1, 2)))
        assert sym <= 1e-12
        assert np.linalg.eigvalsh(moments.second_y).min() >= -1e-10

    def test_matches_moment_pipeline(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                                    base_seed=1234567)
        delta_ode = closed.Delta[-1]
        assert abs(moments.deviation_mean - delta_ode) <= 3.0 * moments.deviation_se
        assert abs(moments.cost_mean - closed.Phi[-1]) <= 3.0 * moments.cost_se
        smooth_ode = float(np.trace(filt.P1[-1]))
        assert abs(moments.smoothing_sqerr_mean - smooth_ode) <= 0.05 * smooth_ode

    def test_standard_error_scales_with_path_count(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        small = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=1000,
                                  base_seed=55)
        large = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                                  base_seed=55)
        ratio = large.deviation_se / small.deviation_se
        assert 0.6 <= ratio <= 0.82  # ~ 1/sqrt(2)

    def test_error_mean_residual_shrinks_with_paths(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        # RMS over checkpoints and entries of the estimator-mean residual;
        # quadrupling paths should halve it, modulo sampling noise.
        idx = np.linspace(0, len(gains.times) - 1, 10).astype(int)
        small = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=1000,
                                  base_seed=99, nodes=idx)
        large = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=4000,
                                  base_seed=99, nodes=idx)
        rms_small = np.sqrt(np.mean(small.mean_e ** 2))
        rms_large = np.sqrt(np.mean(large.mean_e ** 2))
        assert 0.25 <= rms_large / rms_small <= 1.0

    def test_checkpoint_nodes_match_all_node_ensemble(self, mc_setup):
        spec, sys_m, filt, _, closed, gains = mc_setup
        nodes = checkpoint_nodes(500, 10)
        full = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                                 base_seed=2024, nodes=np.arange(501))
        # the default accumulates the checkpoints
        sparse = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                                   base_seed=2024)
        # the horizon need not be a requested node for the terminal scalars
        inner = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                                  base_seed=2024, nodes=[250, 0])
        assert np.array_equal(full.nodes, np.arange(501))
        assert np.array_equal(sparse.nodes, nodes)
        assert np.array_equal(sparse.times, gains.times[nodes])
        assert np.array_equal(inner.nodes, [0, 250])
        for part, idx in ((sparse, nodes), (inner, [0, 250])):
            for field in ("mean_y", "second_y", "mean_e", "second_e", "cross_xe",
                          "cross_xe_sq"):
                assert np.array_equal(getattr(part, field), getattr(full, field)[idx]), field
            for field in ("deviation_mean", "deviation_se", "smoothing_sqerr_mean",
                          "smoothing_sqerr_se", "control_energy_mean",
                          "control_energy_se", "cost_mean", "cost_se"):
                assert getattr(part, field) == getattr(full, field), field
        full_rows = cross_moment_check(full, closed, filt)
        assert cross_moment_check(sparse, closed, filt) == tuple(full_rows[k] for k in nodes)

    def test_reproduces_the_benchmark_pin(self, mc_setup):
        # The benchmark's mc_ref inputs (the reference at 500 steps, 10 000
        # paths, seed 1 234 567) and its pinned delta_mc, read from
        # perfbench/workloads.py: any change to the noise streams or their
        # order moves it.
        spec, sys_m, _, _, _, gains = mc_setup
        mc_ref = _benchmark_workloads()["mc_ref"]
        assert (mc_ref.scenario, mc_ref.steps) == ("reference", spec.steps)
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=mc_ref.paths,
                                    base_seed=mc_ref.mc_seed)
        assert moments.deviation_mean == pytest.approx(mc_ref.delta_mc, rel=1e-8, abs=0)

    def test_rejects_nodes_off_grid(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        # entries that are not integers, which a cast would truncate or parse
        for nodes in ([0, 501], [-1, 3], [], [2.5, 7.9], ["3"], [2.0], [True, False]):
            with pytest.raises(ValueError, match="nodes"):
                simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2,
                                  base_seed=1, nodes=nodes)

    def test_divergence_between_checkpoints_fails_loudly(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        huge = GainSchedule(gains.times, np.full_like(gains.K, 1e12), gains.c, gains.Pi)
        nodes = checkpoint_nodes(500, 10)
        seeds = {derive_path_seed(8, i) for i in range(4)}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as sparse:
                simulate_ensemble(sys_m, huge, spec.mean0, spec.cov0, paths=4,
                                  base_seed=8, nodes=nodes)
            with pytest.raises(DivergenceError) as dense:
                simulate_ensemble(sys_m, huge, spec.mean0, spec.cov0, paths=4,
                                  base_seed=8, nodes=np.arange(501))
        message = str(sparse.value)
        assert message == str(dense.value)
        found = re.search(r"seed (\d+)\) at substep (\d+)", message)
        assert found is not None, message
        assert int(found.group(1)) in seeds
        substep = int(found.group(2))
        # caught at an unrequested node, before the first checkpoint after 0
        assert 0 < substep < 4 * nodes[1] and substep % 4 == 0
        assert (substep // 4) not in nodes

    @pytest.mark.parametrize("nodes", [None, np.arange(501)])
    def test_divergence_raises_without_overflow_warnings(self, mc_setup, nodes):
        spec, sys_m, _, _, _, gains = mc_setup
        huge = GainSchedule(gains.times, np.full_like(gains.K, 1e6), gains.c, gains.Pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                simulate_ensemble(sys_m, huge, spec.mean0, spec.cov0, paths=4,
                                  base_seed=8, nodes=nodes)
        # path 0 leaves the floats first, at substep 84 of 4 per node (h = 0.0025)
        assert str(err.value) == (
            f"non-finite path state (seed {derive_path_seed(8, 0)}) at substep 84 (t = 0.21)"
        )


def _substep_reference(sys_m, gains, mean0, cov0, seeds, sub, nodes):
    """Euler-Maruyama one substep at a time, as the oracle's per-node maps fold it.

    Every path draws its X0 normals and then all its substep noise from its
    own generator, so its stream is the one simulate_ensemble consumes in
    windows.  Returns simulate_ensemble's SampleMoments for the same inputs.
    """
    mean0 = np.asarray(mean0, dtype=float)
    n, m = sys_m.n, sys_m.m
    twon = 2 * n
    count = len(seeds)
    steps = len(gains.times) - 1
    total = steps * sub
    h = float(gains.times[-1] - gains.times[0]) / total
    nodes = np.unique(nodes)
    rngs = [np.random.default_rng(s) for s in seeds]
    zeta = np.array([rng.standard_normal(n) for rng in rngs])
    noise = np.array([rng.standard_normal((total, m)) for rng in rngs])
    spread0 = zeta @ psd_sqrt(cov0).T
    plant0 = mean0 + spread0
    e = np.concatenate([spread0, spread0], axis=1)
    x = np.tile(np.concatenate([mean0, mean0]), (count, 1))
    pi_root = psd_sqrt(gains.Pi)
    sums = {name: [] for name in ("mean_y", "second_y", "mean_e", "second_e",
                                  "cross_xe", "cross_xe_sq")}

    def plant(e, x):
        return np.concatenate([plant0, e[:, n:] + x[:, n:]], axis=1)

    def record(e, x):
        y = np.concatenate([plant(e, x), x], axis=1)
        for name, value in (("mean_y", y.sum(axis=0)), ("second_y", y.T @ y),
                            ("mean_e", e.sum(axis=0)), ("second_e", e.T @ e),
                            ("cross_xe", x.T @ e), ("cross_xe_sq", (x * x).T @ (e * e))):
            sums[name].append(value / count)

    def energy_rate(x, c):
        return (((x @ (pi_root @ c).T)) ** 2).sum(axis=1)

    if nodes[0] == 0:
        record(e, x)
    energy = np.zeros(count)
    for j in range(total):
        node, frac = divmod(j, sub)
        w = frac / sub
        k_j = (1 - w) * gains.K[node] + w * gains.K[node + 1]
        c_j = (1 - w) * gains.c[node] + w * gains.c[node + 1]
        rate = energy_rate(x, c_j)
        energy += (0.5 * h) * (rate if j == 0 else 2.0 * rate)
        dw = np.sqrt(h) * noise[:, j]
        e, x = (e + h * e @ (sys_m.sA - k_j @ sys_m.sC).T + dw @ (sys_m.sB - k_j @ sys_m.D).T,
                x + h * x @ (sys_m.sA + sys_m.sE @ c_j).T + h * e @ (k_j @ sys_m.sC).T
                + dw @ (k_j @ sys_m.D).T)
        if (j + 1) % sub == 0 and (j + 1) // sub in nodes:
            record(e, x)
    energy += (0.5 * h) * energy_rate(x, gains.c[-1])

    s_final = plant(e, x)
    deviation = np.einsum("bi,ij,bj->b", s_final, sys_m.Lambda, s_final)
    scalars = {}
    for name, values in (("deviation", deviation),
                         ("smoothing_sqerr", (e[:, :n] ** 2).sum(axis=1)),
                         ("control_energy", energy), ("cost", deviation + energy)):
        scalars[name + "_mean"] = values.mean()
        scalars[name + "_se"] = values.std(ddof=1) / np.sqrt(count)
    return montecarlo.SampleMoments(
        paths=count, nodes=nodes, times=gains.times[nodes],
        **{name: np.array(values) for name, values in sums.items()}, **scalars)


class TestNodeOperators:
    # (scenario, substeps, window budget in node intervals, nodes).  The
    # random draws cover d = 0, 1, 2 at each n; the budget is forced through
    # _tile_shape as the whole node intervals it holds, at least one (None
    # keeps the shipped shape, a window of the whole grid here), so a budget
    # of 0.5 still gives windows of one node; 3 intervals over 100 steps
    # leave a last window of one node.  The windows do not depend on the
    # accumulated nodes.
    CASES = [
        (("random", 2, 2, 11), 1, None, None),      # d = 0
        (("random", 2, 2, 1), 8, 1, None),          # d = 1
        (("random", 2, 4, 4), 4, 3, "checkpoints"),  # d = 2
        (("random", 4, 2, 0), 1, 0.5, None),        # d = 2
        (("random", 4, 2, 1), 8, 1, "checkpoints"),  # d = 1
        (("random", 4, 4, 2), 4, 0.5, [0, 37, 100]),  # d = 0
        (("random", 8, 2, 1), 4, 3, None),          # d = 1
        (("random", 8, 4, 2), 8, 1, "checkpoints"),  # d = 0
        (("random", 8, 4, 4), 1, 3, [50]),          # d = 2
        (("n8", 7, 100), 4, None, "checkpoints"),   # d = 2
    ]

    @pytest.mark.parametrize("scenario, sub, budget, nodes", CASES)
    def test_matches_substep_loop(self, monkeypatch, scenario, sub, budget, nodes):
        spec = (random_valid_scenario(np.random.default_rng(scenario[3]), *scenario[1:3])
                if scenario[0] == "random" else n8_spec(*scenario[1:]))
        run = pipeline.run(spec, "control")
        sys_m, gains = run.sys, gain_schedule(run.filter, run.control)
        paths = 12
        width = spec.steps
        if budget is not None:
            width = max(1, int(budget))
            shape = montecarlo._tile_shape
            monkeypatch.setattr(montecarlo, "_tile_shape",
                                lambda *args: (shape(*args)[0], width))
        fold = montecarlo._node_operators
        windows = []
        monkeypatch.setattr(montecarlo, "_node_operators",
                            lambda *args: windows.append(args[-1] - args[-2]) or fold(*args))
        if nodes is None:
            nodes = np.arange(spec.steps + 1)
        elif nodes == "checkpoints":
            nodes = checkpoint_nodes(spec.steps, 10)
        seeds = [derive_path_seed(31, i) for i in range(paths)]
        folded = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=paths,
                                   base_seed=31, substeps_per_node=sub, nodes=nodes)
        assert windows == [min(width, spec.steps - q0) for q0 in range(0, spec.steps, width)]
        reference = _substep_reference(sys_m, gains, spec.mean0, spec.cov0, seeds, sub, nodes)
        for field in dataclasses.fields(reference):
            ref = np.asarray(getattr(reference, field.name), dtype=float)
            got = np.asarray(getattr(folded, field.name), dtype=float)
            assert got.shape == ref.shape, field.name
            if ref.size:
                scale = 1.0 + np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale, field.name

    def test_peak_memory_below_two_noise_windows(self, mc_setup, monkeypatch):
        # 6000 paths are five path blocks of the reference shapes, so two
        # tiles are in flight at every tile boundary.
        spec, sys_m, _, _, _, gains = mc_setup
        budget = 1 << 21  # doubles: 16 MB
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", budget)
        tracemalloc.start()
        try:
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=6000,
                              base_seed=5, nodes=checkpoint_nodes(spec.steps, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * budget

    def test_peak_memory_bounded_with_few_paths(self, monkeypatch):
        # The operators are folded one window at a time, and the window is
        # sized for a full path block, so a long grid stays within the
        # budget even when a few paths draw little noise; whole-grid
        # operators took this case to about 360 MB.
        spec = n8_spec(1, steps=4000)
        run = pipeline.run(spec, "control")
        sys_m, gains = run.sys, gain_schedule(run.filter, run.control)
        budget = 1 << 21  # doubles: 16 MB
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", budget)
        tracemalloc.start()
        try:
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=4,
                              base_seed=5, nodes=checkpoint_nodes(spec.steps, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * budget

    def test_peak_memory_does_not_grow_with_the_tiles(self, monkeypatch):
        # 16 substeps make a path block 500 paths, so both ensembles fill
        # whole blocks and their tiles are the same size: the peaks differ
        # by the per-path state alone, the generators and at most 8 (4n + s d)
        # doubles a path (z, its energy squares, the horizon scalars), never
        # by noise.
        spec = _spec(steps=100)
        run = pipeline.run(spec, "control")
        sys_m, gains = run.sys, gain_schedule(run.filter, run.control)
        sub = 16
        assert montecarlo._TILE_FOOTPRINT // (4 * spec.n + sub * spec.m) < 2000
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", 1 << 20)
        seeds = montecarlo._path_seeds(5, np.arange(6000, dtype=np.uint64))
        peaks = []
        tracemalloc.start()
        try:
            generators = montecarlo._path_generators(montecarlo._seed_words(seeds))
            generator_bytes = tracemalloc.get_traced_memory()[0]
            del generators
            for paths in (2000, 8000):
                tracemalloc.reset_peak()
                simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=paths,
                                  base_seed=5, substeps_per_node=sub,
                                  nodes=checkpoint_nodes(spec.steps, 10))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        state_bytes = 6000 * 8 * 8 * (4 * spec.n + sub * spec.d)
        assert peaks[1] - peaks[0] <= generator_bytes + state_bytes


class TestTileShape:
    # The shipped constants at the benchmark's Monte Carlo shapes: the
    # reference at mc_ref's 500 steps and the n = 8 scenario at 2000 steps,
    # with one drawing thread and with two.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scenario, steps", [("reference", 500), ("n8", 2000)])
    def test_shipped_tiles_fit_the_budget_and_keep_draw_calls_long(self, scenario, steps,
                                                                   workers):
        spec = _spec(steps=steps) if scenario == "reference" else n8_spec(1, steps)
        sub = montecarlo.SUBSTEPS_PER_NODE
        dim, draws = 4 * spec.n, sub * spec.m
        rows, width = montecarlo._tile_shape(dim, draws, dim + sub * spec.d, workers, steps)
        assert 2 * rows * width * draws <= 1 << 22  # both tiles in flight, in doubles
        assert width * draws >= 1500  # normals a path draws in one call

    def test_window_clamped_to_the_grid_and_to_one_node(self):
        assert montecarlo._tile_shape(8, 8, 12, 2, 10)[1] == 10
        assert montecarlo._tile_shape(20_000, 20_000, 20_000, 2, 10) == (1, 1)

    def test_screen_passes_finite_entries_whose_sum_overflows(self):
        z = np.full((3, 4), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):  # as _propagate calls it
            assert not np.isfinite(z.sum())
            assert montecarlo._first_non_finite(z) == -1
            for bad in (np.inf, -np.inf, np.nan):
                z[2, 1] = z[1, 3] = bad
                assert montecarlo._first_non_finite(z) == 1

    def test_overflowing_block_sum_does_not_raise(self, mc_setup, monkeypatch):
        # Every path starts at x = (1e307, 0, 1e307, 0) with cov0 = 0, so the
        # block's state sums to inf while every entry stays finite (x then
        # decays): the screen trips, the row search finds nothing, and the
        # run completes.
        spec, sys_m, _, _, _, gains = mc_setup
        screen = montecarlo._first_non_finite
        tripped = []

        def spy(z):
            tripped.append(not np.isfinite(z.sum()))
            return screen(z)

        monkeypatch.setattr(montecarlo, "_first_non_finite", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = simulate_ensemble(sys_m, gains, [1e307, 0.0], np.zeros((2, 2)),
                                        paths=12, base_seed=3)
        # the check at node 0 and at the first propagated node, at least
        assert len(tripped) == 501 and tripped[0] and tripped[1]
        assert np.isfinite(moments.mean_e).all()


class TestThreadedNoise:
    def test_moments_independent_of_worker_count(self, mc_setup, monkeypatch):
        # 301 paths in blocks of 37 leave a last block of 5, and windows of
        # 23 nodes cross the checkpoints at arbitrary offsets.  The node sums
        # are added block by block, so the reference keeps the blocks and
        # runs them through one window of every node on one thread.
        spec, sys_m, _, _, _, gains = mc_setup
        nodes = checkpoint_nodes(500, 10)

        def simulate():
            return simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=301,
                                     base_seed=77, nodes=nodes)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_tile_shape",
                          lambda dim, draws, cols, workers, steps: (37, steps))
            patch.setattr(montecarlo, "_worker_count", lambda paths: 1)
            reference = _run_bounded(simulate)

        monkeypatch.setattr(montecarlo, "_tile_shape", lambda *args: (37, 23))
        fold = montecarlo._node_operators
        windows = []
        monkeypatch.setattr(montecarlo, "_node_operators",
                            lambda *args: windows.append(args[-1] - args[-2]) or fold(*args))
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(montecarlo, "_worker_count", lambda paths, w=workers: w)
                windows.clear()
                _assert_moments_identical(_run_bounded(simulate), reference)
                assert windows == [23] * 21 + [17], workers
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before

    def test_one_block_draws_its_windows_in_stream_order(self, mc_setup, monkeypatch):
        # 40 paths are one chunk of one block, so consecutive tiles hold the
        # same paths: a tile submitted before the one before it is drawn
        # would take those paths' normals out of order.  Each draw sleeps,
        # releasing the GIL, so that two draws from one path would overlap.
        spec, sys_m, _, _, _, gains = mc_setup
        nodes = checkpoint_nodes(500, 10)
        build = montecarlo._path_generators
        overlaps = []

        class Exclusive:
            def __init__(self, rng):
                self.rng, self.busy = rng, False

            def standard_normal(self, out):
                overlaps.append(self.busy)
                self.busy = True
                time.sleep(1e-4)
                self.rng.standard_normal(out=out)
                self.busy = False

        monkeypatch.setattr(montecarlo, "_path_generators",
                            lambda words: [Exclusive(rng) for rng in build(words)])

        def simulate():
            return simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=40,
                                     base_seed=5, nodes=nodes)

        with monkeypatch.context() as patch:  # one tile: every path, every node
            patch.setattr(montecarlo, "_NOISE_BUDGET", 1 << 40)
            patch.setattr(montecarlo, "_worker_count", lambda paths: 1)
            reference = _run_bounded(simulate)

        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", 1 << 21)  # windows of 50 nodes
        fold = montecarlo._node_operators
        windows = []
        monkeypatch.setattr(montecarlo, "_node_operators",
                            lambda *args: windows.append(args[-1] - args[-2]) or fold(*args))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3, 4):
                monkeypatch.setattr(montecarlo, "_worker_count", lambda paths, w=workers: w)
                windows.clear()
                _assert_moments_identical(_run_bounded(simulate), reference)
                assert len(windows) > 5, workers
                assert not any(overlaps), workers
        finally:
            sys.setswitchinterval(interval)

    def test_draw_calls_do_not_shorten_with_more_paths(self, mc_setup, monkeypatch):
        # Every path makes the same standard_normal calls whatever the
        # ensemble: 3000 paths are three path blocks, 300 a part of one.
        spec, sys_m, _, _, _, gains = mc_setup
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", 1 << 20)
        build = montecarlo._path_generators
        calls = []

        class Recorder:
            def __init__(self, rng):
                self.rng, self.lengths = rng, []
                calls.append(self.lengths)

            def standard_normal(self, out):
                self.lengths.append(len(out))
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(montecarlo, "_path_generators",
                            lambda words: [Recorder(rng) for rng in build(words)])
        per_path = []
        for paths in (300, 3000):
            calls.clear()
            _run_bounded(lambda: simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0,
                                                   paths=paths, base_seed=3,
                                                   nodes=checkpoint_nodes(spec.steps, 10)))
            assert len(calls) == paths and all(c == calls[0] for c in calls)
            per_path.append(calls[0])
        assert per_path[0] == per_path[1]
        assert len(per_path[0]) > 2 and sum(per_path[0]) == spec.n + 500 * 4 * spec.m

    def test_draw_calls_do_not_depend_on_the_accumulated_nodes(self, mc_setup, monkeypatch):
        # Accumulating every node holds no state, so it cuts no window short.
        spec, sys_m, _, _, _, gains = mc_setup
        build = montecarlo._path_generators
        calls = []

        class Recorder:
            def __init__(self, rng):
                self.rng, self.lengths = rng, []
                calls.append(self.lengths)

            def standard_normal(self, out):
                self.lengths.append(len(out))
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(montecarlo, "_path_generators",
                            lambda words: [Recorder(rng) for rng in build(words)])
        per_nodes = []
        for nodes in (None, np.arange(spec.steps + 1)):
            calls.clear()
            _run_bounded(lambda: simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0,
                                                   paths=300, base_seed=3, nodes=nodes))
            assert len(calls) == 300 and all(c == calls[0] for c in calls)
            per_nodes.append(calls[0])
        assert per_nodes[0] == per_nodes[1]
        assert sum(per_nodes[0]) == spec.n + spec.steps * 4 * spec.m

    @pytest.mark.parametrize("poisoned, named", [((30, 20), 37), ((20, 20), 3)],
                             ids=["later-tile-earlier-node", "same-node"])
    def test_divergence_named_at_the_earliest_node_across_tiles(self, mc_setup, monkeypatch,
                                                               poisoned, named):
        # Paths 3 (block 0) and 37 (block 2) draw inf over grid intervals
        # poisoned[0] and poisoned[1], both inside the first window of 40
        # nodes; the first non-finite node, then the first path there, is
        # named, whichever block reaches it first.
        spec, sys_m, _, _, _, gains = mc_setup
        n, draws = spec.n, 4 * spec.m
        monkeypatch.setattr(montecarlo, "_tile_shape", lambda *args: (16, 40))
        monkeypatch.setattr(montecarlo, "_worker_count", lambda paths: 2)
        build = montecarlo._path_generators

        class Poisoned:
            def __init__(self, rng, interval):
                self.rng, self.drawn = rng, 0
                self.span = (n + interval * draws, n + (interval + 1) * draws)

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                lo, hi = (min(max(b - self.drawn, 0), len(out)) for b in self.span)
                out[lo:hi] = np.inf
                self.drawn += len(out)

        def generators(words):
            rngs = build(words)
            for path, interval in zip((3, 37), poisoned):
                rngs[path] = Poisoned(rngs[path], interval)
            return rngs

        monkeypatch.setattr(montecarlo, "_path_generators", generators)
        threads_before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                _run_bounded(lambda: simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0,
                                                       paths=50, base_seed=8,
                                                       nodes=checkpoint_nodes(500, 10)))
        # raised while the next tile's chunks are in flight
        assert threading.active_count() == threads_before
        node = min(poisoned) + 1
        assert str(err.value) == (
            f"non-finite path state (seed {derive_path_seed(8, named)}) at substep "
            f"{4 * node} (t = {gains.times[node]:.6g})"
        )

    @pytest.mark.parametrize("failing_call", [2, 4])
    def test_drawing_thread_exception_reraised(self, mc_setup, monkeypatch, failing_call):
        # The failing generator is path 150's, in the third of four blocks,
        # so each of its tiles is drawn while the tile before it propagates:
        # its second call draws its first tile, its fourth its third.
        spec, sys_m, _, _, _, gains = mc_setup
        monkeypatch.setattr(montecarlo, "_TILE_FOOTPRINT", 64 * 16)
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", 1 << 16)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda paths: 3)
        build = montecarlo._path_generators

        class Failing:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == failing_call:
                    raise RuntimeError("generator failed")
                return self.rng.standard_normal(out=out)

        def generators(words):
            rngs = build(words)
            rngs[150] = Failing(rngs[150])
            return rngs

        monkeypatch.setattr(montecarlo, "_path_generators", generators)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="generator failed"):
            _run_bounded(lambda: simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0,
                                                   paths=200, base_seed=1))
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("paths", [2, 2 * montecarlo._CHUNK + 5, 3 * montecarlo._CHUNK + 1])
    @pytest.mark.parametrize("width", [1, 4])
    def test_window_is_node_major(self, workers, paths, width):
        # The tile's chunks, the last one short, drawn by up to 3 pool threads;
        # its rows belong to paths 5 onwards.
        draws, first = 3, 5
        seeds = [derive_path_seed(17, i) for i in range(first + paths)]
        rngs = [np.random.default_rng(s) for s in seeds]
        out = np.full((width, paths, draws), np.nan)
        threads_before = threading.active_count()
        _draw_on_pool(rngs, out, first, workers)
        assert threading.active_count() == threads_before
        for i, seed in enumerate(seeds[first:]):
            stream = np.random.default_rng(seed).standard_normal(width * draws)
            for k in range(width):
                assert np.array_equal(out[k, i], stream[k * draws:(k + 1) * draws]), (k, i)

    def test_worker_exception_reraised(self):
        class Broken:
            def standard_normal(self, out):
                raise RuntimeError("generator failed")

        paths = 2 * montecarlo._CHUNK + 5
        rngs = [np.random.default_rng(i) for i in range(paths)]
        rngs[paths // 2] = Broken()  # in the second of three chunks
        for workers in (1, 2, 3):
            threads_before = threading.active_count()
            with pytest.raises(RuntimeError, match="generator failed"):
                _draw_on_pool(rngs, np.empty((2, paths, 5)), 0, workers)
            assert threading.active_count() == threads_before, workers


def test_ensemble_loads_no_numpy_ma():
    """A small ensemble in a fresh interpreter leaves numpy.ma unloaded.

    np.unique imports it in numpy 2.4; no part of a run needs it.
    """
    import os
    import subprocess

    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        from qmemctl import cross_moment_check, gain_schedule, pipeline, simulate_ensemble
        from qmemctl.model import ScenarioSpec
        spec = ScenarioSpec(n=2, m=2, d=1, r=1, s=2, R=np.eye(2), M=np.eye(2),
                            N=[[0.0, 1.0]], D=[[1.0, 0.0]], F=np.eye(2), Pi=[[1.0]],
                            mean0=[1.0, 0.0], cov0=0.5 * np.eye(2), tau=1.0, steps=50)
        run = pipeline.run(spec, "montecarlo", paths=20, seed=1)
        moments = simulate_ensemble(run.sys, gain_schedule(run.filter, run.control),
                                    spec.mean0, spec.cov0, paths=20, base_seed=1,
                                    nodes=[50, 0, 25, 25])
        cross_moment_check(moments, run.closed, run.filter)
        print(*sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
    """)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []


class TestWeakConvergence:
    def test_euler_bias_below_monte_carlo_resolution(self, mc_setup):
        """Halving the substep moves the scheme's exact deviation by less
        than one standard error at 1e4 paths (bias measured through the
        exact moment recursion of the Euler map, free of sampling noise)."""
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        dev4 = em_deviation_oracle(sys_m, gains, spec.mean0, spec.cov0, 4)
        dev8 = em_deviation_oracle(sys_m, gains, spec.mean0, spec.cov0, 8)
        sample = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                                   base_seed=13)
        se_at_1e4 = sample.deviation_se * np.sqrt(2000.0 / 10_000.0)
        assert abs(dev4 - dev8) < se_at_1e4
        # and the recursion itself is consistent with the Riccati pipeline
        assert abs(dev4 - closed.Delta[-1]) < 20.0 * se_at_1e4

    def test_sampled_estimates_agree_across_substeps(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        mom4 = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                                 base_seed=21, substeps_per_node=4)
        mom8 = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                                 base_seed=21, substeps_per_node=8)
        band = 3.0 * np.hypot(mom4.deviation_se, mom8.deviation_se)
        assert abs(mom4.deviation_mean - mom8.deviation_mean) <= band


class TestCrossMomentCheck:
    def test_noiseless_residuals_vanish(self):
        spec = _spec(M=np.zeros((2, 2)), cov0=np.zeros((2, 2)), steps=300)
        run = pipeline.run(spec, "montecarlo", paths=10, seed=3)
        for row in run.rows:
            assert row.mho_max_abs == 0.0
            assert row.e_mean_norm == 0.0
            assert row.P_rel_err == 0.0
            assert row.T_rel_err < 2e-2  # Euler vs RK4 discretization only
        assert run.gates["mc_mho_checkpoints"]["value"] == len(run.rows)
        assert run.gates["mc_e_mean"]["value"]

    def test_reference_statistics_within_bands(self):
        run = pipeline.run(_spec(), "montecarlo", paths=4000, seed=1234567)
        assert len(run.rows) == 10
        assert run.gates["mc_mho_checkpoints"]["value"] >= 9
        assert run.gates["mc_P_relative_error"]["value"] <= 0.05
        assert np.max([row.T_rel_err for row in run.rows]) <= 0.05

    @pytest.mark.parametrize("checkpoints", [0, 1])
    def test_fewer_than_two_checkpoints_rejected(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoints"):
            checkpoint_nodes(500, checkpoints)

    def test_two_checkpoints_are_the_ends(self):
        assert checkpoint_nodes(500, 2).tolist() == [0, 500]

    def test_grid_mismatch_rejected(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        other = _spec(steps=100)
        o_run = pipeline.run(other, "control")
        moments = simulate_ensemble(o_run.sys, gain_schedule(o_run.filter, o_run.control),
                                    other.mean0, other.cov0, paths=10, base_seed=1)
        with pytest.raises(GridMismatchError):
            cross_moment_check(moments, closed, filt)
