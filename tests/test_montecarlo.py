import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import n8_spec, random_valid_scenario
from qmemctl import (
    DivergenceError,
    GridMismatchError,
    checkpoint_nodes,
    cross_moment_check,
    derive_path_seed,
    derive_system_matrices,
    gain_schedule,
    psd_sqrt,
    simulate_ensemble,
    solve_closed_loop,
    solve_control,
    solve_filter,
)
from qmemctl import montecarlo
from qmemctl.model import ScenarioSpec
from qmemctl.montecarlo import GainSchedule, splitmix64


def _spec(**overrides):
    base = dict(
        n=2, m=2, d=1, r=1, s=2,
        R=np.eye(2), M=np.eye(2), N=[[0.0, 1.0]], D=[[1.0, 0.0]],
        F=np.eye(2), Pi=[[1.0]], mean0=[1.0, 0.0], cov0=0.5 * np.eye(2),
        tau=5.0, steps=500,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _pipeline(spec):
    sys_m = derive_system_matrices(spec)
    filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
    ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
    closed = solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau)
    return sys_m, filt, ctrl, closed


@pytest.fixture(scope="module")
def mc_setup():
    spec = _spec()
    sys_m, filt, ctrl, closed = _pipeline(spec)
    return spec, sys_m, filt, ctrl, closed, gain_schedule(filt, ctrl)


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


class TestSeeding:
    def test_splitmix_reference_vector(self):
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derived_seeds_distinct_and_stable(self):
        seeds = [derive_path_seed(123, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert seeds == [derive_path_seed(123, i) for i in range(1000)]


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
    """Two paths with one seed: their means are that path, bitwise."""
    return simulate_ensemble(sys_m, gains, mean0, cov0, paths=2, base_seed=0,
                             substeps_per_node=substeps_per_node, seeds=[seed, seed])


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
        sys_m, filt, ctrl, closed = _pipeline(spec)
        gains = gain_schedule(filt, ctrl)
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
        small = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=1000,
                                  base_seed=99)
        large = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=4000,
                                  base_seed=99)
        # RMS over checkpoints and entries of the estimator-mean residual;
        # quadrupling paths should halve it, modulo sampling noise.
        idx = np.linspace(0, len(gains.times) - 1, 10).astype(int)
        rms_small = np.sqrt(np.mean(small.mean_e[idx] ** 2))
        rms_large = np.sqrt(np.mean(large.mean_e[idx] ** 2))
        assert 0.25 <= rms_large / rms_small <= 1.0

    def test_checkpoint_nodes_match_all_node_ensemble(self, mc_setup):
        spec, sys_m, filt, _, closed, gains = mc_setup
        nodes = checkpoint_nodes(500, 10)
        full = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                                 base_seed=2024)
        sparse = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=300,
                                   base_seed=2024, nodes=nodes)
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
        assert cross_moment_check(sparse, closed, filt) == cross_moment_check(full, closed, filt)

    def test_rejects_nodes_off_grid(self, mc_setup):
        spec, sys_m, _, _, _, gains = mc_setup
        for nodes in ([0, 501], [-1, 3], []):
            with pytest.raises(ValueError):
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
                                  base_seed=8)
        message = str(sparse.value)
        assert message == str(dense.value)
        found = re.search(r"seed (\d+)\) at substep (\d+)", message)
        assert found is not None, message
        assert int(found.group(1)) in seeds
        substep = int(found.group(2))
        # caught at an unrequested node, before the first checkpoint after 0
        assert 0 < substep < 4 * nodes[1] and substep % 4 == 0
        assert (substep // 4) not in nodes

    @pytest.mark.parametrize("nodes", [None, checkpoint_nodes(500, 10)])
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
    nodes = np.unique(np.arange(steps + 1) if nodes is None else nodes)
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
    # (scenario, substeps, noise budget in node intervals, nodes).  The
    # random draws cover d = 0, 1, 2 at each n; a budget of 0.5 is smaller
    # than one node interval, so each window still holds one; 3 intervals
    # over 100 steps leave a last window of one node.
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
        sys_m, filt, ctrl, _ = _pipeline(spec)
        gains = gain_schedule(filt, ctrl)
        paths = 12
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", int(budget * paths * sub * spec.m))
        if nodes == "checkpoints":
            nodes = checkpoint_nodes(spec.steps, 10)
        seeds = [derive_path_seed(31, i) for i in range(paths)]
        folded = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=paths,
                                   base_seed=31, substeps_per_node=sub, nodes=nodes)
        reference = _substep_reference(sys_m, gains, spec.mean0, spec.cov0, seeds, sub, nodes)
        for field in dataclasses.fields(reference):
            ref = np.asarray(getattr(reference, field.name), dtype=float)
            got = np.asarray(getattr(folded, field.name), dtype=float)
            assert got.shape == ref.shape, field.name
            if ref.size:
                scale = 1.0 + np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale, field.name

    def test_peak_memory_below_two_noise_windows(self, mc_setup, monkeypatch):
        spec, sys_m, _, _, _, gains = mc_setup
        budget = 1 << 21  # doubles: a 16 MB window
        monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", budget)
        tracemalloc.start()
        try:
            simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=2000,
                              base_seed=5, nodes=checkpoint_nodes(spec.steps, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * budget


class TestThreadedNoise:
    def test_moments_independent_of_worker_count(self, mc_setup, monkeypatch):
        spec, sys_m, _, _, _, gains = mc_setup
        nodes = checkpoint_nodes(500, 10)

        def serial_draw(rngs, out, workers):
            for i, rng in enumerate(rngs):
                out[i] = rng.standard_normal(out.shape[1:])

        def simulate():
            return simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=301,
                                     base_seed=77, nodes=nodes)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_draw_normals", serial_draw)
            reference = _run_bounded(simulate)

        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Small noise windows: every path crosses many window boundaries.
            monkeypatch.setattr(montecarlo, "_NOISE_BUDGET", 301 * 2 * 64)
            _assert_moments_identical(_run_bounded(simulate), reference)
            for workers in (1, 4):
                with monkeypatch.context() as patch:
                    patch.setattr(montecarlo, "_worker_count", lambda paths, w=workers: w)
                    _assert_moments_identical(_run_bounded(simulate), reference)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before

    def test_worker_exception_reraised(self):
        class Broken:
            def standard_normal(self, out):
                raise RuntimeError("generator failed")

        rngs = [np.random.default_rng(i) for i in range(3)] + [Broken()]
        with pytest.raises(RuntimeError, match="generator failed"):
            montecarlo._draw_normals(rngs, np.empty((4, 5)), 2)


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
        sys_m, filt, ctrl, closed = _pipeline(spec)
        gains = gain_schedule(filt, ctrl)
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=10,
                                    base_seed=3)
        report = cross_moment_check(moments, closed, filt)
        for row in report.rows:
            assert row.mho_max_abs == 0.0
            assert row.e_mean_norm == 0.0
            assert row.P_rel_err == 0.0
            assert row.T_rel_err < 2e-2  # Euler vs RK4 discretization only
        assert report.mho_within_3se == len(report.rows)
        assert report.e_mean_within_3se

    def test_reference_statistics_within_bands(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=4000,
                                    base_seed=1234567)
        report = cross_moment_check(moments, closed, filt)
        assert len(report.rows) == 10
        assert report.mho_within_3se >= 9
        assert report.max_P_rel_err <= 0.05
        assert report.max_T_rel_err <= 0.05

    def test_unaccumulated_checkpoint_rejected(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        moments = simulate_ensemble(sys_m, gains, spec.mean0, spec.cov0, paths=10,
                                    base_seed=1, nodes=checkpoint_nodes(500, 10))
        assert len(cross_moment_check(moments, closed, filt, 10).rows) == 10
        with pytest.raises(GridMismatchError, match="not accumulated"):
            cross_moment_check(moments, closed, filt, 5)

    def test_grid_mismatch_rejected(self, mc_setup):
        spec, sys_m, filt, ctrl, closed, gains = mc_setup
        other = _spec(steps=100)
        o_sys, o_filt, o_ctrl, _ = _pipeline(other)
        moments = simulate_ensemble(o_sys, gain_schedule(o_filt, o_ctrl),
                                    other.mean0, other.cov0, paths=10, base_seed=1)
        with pytest.raises(GridMismatchError):
            cross_moment_check(moments, closed, filt)
