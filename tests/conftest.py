import dataclasses

import numpy as np
import pytest

from qmemctl import gain_schedule, pipeline
from qmemctl.model import ScenarioSpec

REFERENCE_TAU = 5.0


def reference_spec(steps: int, d: int = 1, **overrides) -> ScenarioSpec:
    """Single-mode reference scenario; d=0 gives the uncontrolled baseline.

    Keyword `overrides` replace fields, as in dataclasses.replace.
    """
    return dataclasses.replace(ScenarioSpec(
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
    ), **overrides)


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
def ref_run(ref_spec):
    return pipeline.run(ref_spec, "simulate")


@pytest.fixture(scope="session")
def ref_sys(ref_run):
    return ref_run.sys


@pytest.fixture(scope="session")
def ref_filter(ref_run):
    return ref_run.filter


@pytest.fixture(scope="session")
def ref_control(ref_run):
    return ref_run.control


@pytest.fixture(scope="session")
def ref_closed(ref_run):
    return ref_run.closed


@pytest.fixture(scope="session")
def ref_gains(ref_filter, ref_control):
    return gain_schedule(ref_filter, ref_control)


@pytest.fixture(scope="session")
def baseline_closed():
    """Uncontrolled (d = 0) reference run on the module-scale grid."""
    return pipeline.run(reference_spec(steps=2000, d=0), "simulate").closed


# ---------------------------------------------------------------------------
# acceptance-scale pipeline (steps = 10000, computed once per session)


@pytest.fixture(scope="session")
def acc_spec():
    return reference_spec(steps=10000)


@pytest.fixture(scope="session")
def acc_run(acc_spec):
    return pipeline.run(acc_spec, "simulate")
