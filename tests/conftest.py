import numpy as np
import pytest

from qmemctl import (
    derive_system_matrices,
    gain_schedule,
    solve_closed_loop,
    solve_control,
    solve_filter,
)
from qmemctl.model import ScenarioSpec

REFERENCE_TAU = 5.0


def reference_spec(steps: int, d: int = 1) -> ScenarioSpec:
    """Single-mode reference scenario; d=0 gives the uncontrolled baseline."""
    return ScenarioSpec(
        n=2, m=2, d=d, r=1, s=2,
        R=np.eye(2),
        M=np.eye(2),
        N=np.array([[0.0, 1.0]]) if d == 1 else np.zeros((0, 2)),
        D=np.array([[1.0, 0.0]]),
        F=np.eye(2),
        Pi=np.array([[1.0]]) if d == 1 else np.zeros((0, 0)),
        mean0=np.array([1.0, 0.0]),
        cov0=0.5 * np.eye(2),
        tau=REFERENCE_TAU,
        steps=steps,
    )


def random_valid_scenario(rng: np.random.Generator, n: int, m: int) -> ScenarioSpec:
    """Random scenario satisfying every structural invariant.

    D mixes only the first quadrature of each field pair, which makes
    D J D' = 0 automatic while keeping full row rank generically.
    """
    r = rng.integers(1, m // 2 + 1)
    d = int(rng.integers(0, 3))
    s = int(rng.integers(1, n + 1))
    w = rng.standard_normal((n, n))
    dmat = np.zeros((r, m))
    dmat[:, 0::2] = rng.standard_normal((r, m // 2))
    f = rng.standard_normal((s, n))
    pi_seed = rng.standard_normal((d, d))
    cov_seed = rng.standard_normal((n, n))
    return ScenarioSpec(
        n=n, m=m, d=d, r=int(r), s=s,
        R=0.5 * (w + w.T),
        M=rng.standard_normal((m, n)),
        N=rng.standard_normal((d, n)),
        D=dmat,
        F=f,
        Pi=pi_seed @ pi_seed.T + np.eye(d),
        mean0=rng.standard_normal(n),
        cov0=cov_seed @ cov_seed.T,
        tau=1.0,
        steps=100,
    )


def n8_spec(seed: int, steps: int) -> ScenarioSpec:
    """Four coupled copies of the reference mode: the benchmark's n = 8 scenario.

    n = m = 8, R = I + 0.1 (W + W') with W standard normal from `seed`, two
    actuators on the momenta of modes 0 and 2, four readouts of the first
    quadrature of each field pair, tau = 5.
    """
    n = 8
    w = np.random.default_rng(seed).standard_normal((n, n))
    actuators = np.zeros((2, n))
    actuators[0, 1] = actuators[1, 5] = 1.0
    readout = np.zeros((4, n))
    readout[np.arange(4), 2 * np.arange(4)] = 1.0
    return ScenarioSpec(
        n=n, m=n, d=2, r=4, s=n, R=np.eye(n) + 0.1 * (w + w.T), M=np.eye(n),
        N=actuators, D=readout, F=np.eye(n), Pi=np.eye(2),
        mean0=np.tile([1.0, 0.0], n // 2), cov0=0.5 * np.eye(n), tau=5.0, steps=steps,
    )


@pytest.fixture(scope="session")
def scenario_factory():
    return random_valid_scenario


# ---------------------------------------------------------------------------
# module-scale pipeline (fast grid, shared by the unit tests)


@pytest.fixture(scope="session")
def ref_spec():
    return reference_spec(steps=2000)


@pytest.fixture(scope="session")
def ref_sys(ref_spec):
    return derive_system_matrices(ref_spec)


@pytest.fixture(scope="session")
def ref_filter(ref_spec, ref_sys):
    return solve_filter(ref_sys, ref_spec.cov0, ref_spec.tau, ref_spec.steps)


@pytest.fixture(scope="session")
def ref_control(ref_spec, ref_sys):
    return solve_control(ref_sys, ref_spec.Pi, ref_spec.tau, ref_spec.steps)


@pytest.fixture(scope="session")
def ref_closed(ref_spec, ref_sys, ref_filter, ref_control):
    return solve_closed_loop(ref_sys, ref_filter, ref_control, ref_spec.mean0, ref_spec.tau)


@pytest.fixture(scope="session")
def ref_gains(ref_filter, ref_control):
    return gain_schedule(ref_filter, ref_control)


@pytest.fixture(scope="session")
def baseline_closed():
    """Uncontrolled (d = 0) reference run on the module-scale grid."""
    spec = reference_spec(steps=2000, d=0)
    sys_m = derive_system_matrices(spec)
    filt = solve_filter(sys_m, spec.cov0, spec.tau, spec.steps)
    ctrl = solve_control(sys_m, spec.Pi, spec.tau, spec.steps)
    return solve_closed_loop(sys_m, filt, ctrl, spec.mean0, spec.tau)


# ---------------------------------------------------------------------------
# acceptance-scale pipeline (steps = 10000, computed once per session)


@pytest.fixture(scope="session")
def acc_spec():
    return reference_spec(steps=10000)


@pytest.fixture(scope="session")
def acc_sys(acc_spec):
    return derive_system_matrices(acc_spec)


@pytest.fixture(scope="session")
def acc_filter(acc_spec, acc_sys):
    return solve_filter(acc_sys, acc_spec.cov0, acc_spec.tau, acc_spec.steps)


@pytest.fixture(scope="session")
def acc_control(acc_spec, acc_sys):
    return solve_control(acc_sys, acc_spec.Pi, acc_spec.tau, acc_spec.steps)


@pytest.fixture(scope="session")
def acc_closed(acc_spec, acc_sys, acc_filter, acc_control):
    return solve_closed_loop(acc_sys, acc_filter, acc_control, acc_spec.mean0, acc_spec.tau)
