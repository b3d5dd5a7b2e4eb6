"""The benchmark's workloads, their inputs and their correctness checks.

Why these three (see NOTE.md for the measurements behind the choice):

* ode_ref  - `decoherence` on the reference scenario, 10000 steps: 2x2 blocks,
             so Python call overhead in filtering, control, ode and closedloop
             dominates; the Monte Carlo layer does not run.
* mc_ref   - `full` on the reference scenario, 2000 steps, 10000 paths, fixed
             Monte Carlo seed: simulate_ensemble is most of the wall time and
             all four CSV writers run; the ODE layers are a small share.
* ode_n8   - `decoherence` on a generated n = 8 scenario, 10000 steps: same
             layers as ode_ref, but 8x8 blocks make BLAS work dominate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

REFERENCE_SCENARIO = "scenarios/reference.json"

# The CLI's default grid density (steps per unit of tau); tolerances against
# the continuous-time oracle are set at that density and widen as h^2 on
# coarser grids, like the CLI's own cost-identity gate.
STEPS_PER_TIME_UNIT = 2000
COST_RTOL = 1e-7        # phi_tau and delta_tau, relative
DECOHERENCE_RTOL = 1e-4  # decoherence time, relative
# delta_mc of mc_ref is a deterministic function of (scenario, steps, paths,
# seed); it may move only by round-off.
DELTA_MC_RTOL = 1e-8
# Criterion c02's bound on the block-cascade vs full-matrix deviation.
BLOCK_FULL_LIMIT = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: str  # "reference" or "n8"
    steps: int     # --steps
    paths: int | None = None
    mc_seed: int | None = None
    delta_mc: float | None = None  # stored reference for these exact inputs


WORKLOADS = {
    "ode_ref": Workload("ode_ref", "decoherence", "reference", steps=2000),
    "mc_ref": Workload("mc_ref", "full", "reference", steps=500, paths=10_000,
                       mc_seed=1_234_567, delta_mc=2.3920878490101494),
    "ode_n8": Workload("ode_n8", "decoherence", "n8", steps=2000),
}

# Smoke sizes: the Monte Carlo paths stay (its gates need them); fewer steps.
SMOKE_STEPS = 500


def smoke(workload: Workload) -> Workload:
    return replace(workload, steps=SMOKE_STEPS, delta_mc=None)


def n8_scenario(seed: int) -> dict:
    """Four coupled copies of the reference mode (n = m = 8, d = 2, r = 4).

    R = I + 0.1 (W + W') with W standard normal from `seed`; D reads the
    first quadrature of each field pair, so D J D' = 0; the actuators drive
    the momenta of modes 0 and 2.
    """
    n = 8
    w = np.random.default_rng(seed).standard_normal((n, n))
    actuators = np.zeros((2, n))
    actuators[0, 1] = actuators[1, 5] = 1.0
    readout = np.zeros((4, n))
    readout[np.arange(4), 2 * np.arange(4)] = 1.0
    return {
        "n": n, "m": n, "d": 2, "r": 4, "s": n,
        "R": (np.eye(n) + 0.1 * (w + w.T)).tolist(),
        "M": np.eye(n).tolist(),
        "N": actuators.tolist(),
        "D": readout.tolist(),
        "F": np.eye(n).tolist(),
        "Pi": np.eye(2).tolist(),
        "mean0": np.tile([1.0, 0.0], n // 2).tolist(),
        "cov0": (0.5 * np.eye(n)).tolist(),
        "tau": 5.0,
        "steps": 10_000,
    }


@dataclass(frozen=True)
class Inputs:
    scenario: Path
    sha256: str
    argv: list[str]
    reference: dict  # oracle figures


def prepare(workload: Workload, seed: int, root: Path, workdir: Path) -> Inputs:
    """Write or locate the scenario, build the CLI argv, compute the reference."""
    if workload.scenario == "n8":
        data = n8_scenario(seed)
        path = workdir / "scenario_n8.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        from qmemctl import cli, model
        report = model.validate_spec(cli.load_scenario(path))
        if not report.ok:
            raise RuntimeError(f"generated n = 8 scenario is invalid: {report.summary()}")
    else:
        path = root / REFERENCE_SCENARIO
        data = json.loads(path.read_text())
    reference = oracle.reference_figures(data)
    if not reference["max_re_eig_A"] < 0:
        raise RuntimeError(f"scenario is not stable: max Re eig(A) = {reference['max_re_eig_A']}")
    argv = [workload.command, "--scenario", str(path), "--out", str(workdir / "out"),
            "--steps", str(workload.steps)]
    if workload.paths is not None:
        argv += ["--paths", str(workload.paths), "--seed", str(workload.mc_seed)]
    reference["tau"] = float(data["tau"])
    return Inputs(path, hashlib.sha256(path.read_bytes()).hexdigest(), argv, reference)


def _within(value, expected, rtol) -> bool:
    return value is not None and expected is not None and abs(value - expected) <= rtol * abs(expected)


def check_summary(workload: Workload, inputs: Inputs, summary: dict) -> list[str]:
    """Problems with one run's summary.json; empty when the run is correct."""
    problems = []
    checks = summary.get("checks", {})
    expected = {"cost_identity"}
    if workload.paths is not None:
        expected |= {"mc_delta_within_3se", "mc_P_relative_error", "mc_mho_checkpoints",
                     "mc_e_mean"}
    problems += [f"check {name} missing" for name in sorted(expected - set(checks))]
    problems += [f"check {name} failed: {chk}" for name, chk in sorted(checks.items())
                 if not chk.get("passed")]
    if summary.get("scenario", {}).get("steps") != workload.steps:
        problems.append(f"ran {summary.get('scenario', {}).get('steps')} steps, "
                        f"expected {workload.steps}")
    ref = inputs.reference
    widen = max(1.0, (STEPS_PER_TIME_UNIT * ref["tau"] / workload.steps) ** 2)
    cost = summary.get("cost", {})
    for key in ("phi_tau", "delta_tau"):
        if not _within(cost.get(key), ref[key], COST_RTOL * widen):
            problems.append(f"{key} = {cost.get(key)}, reference {ref[key]:.12g}")
    t_dec = summary.get("decoherence", {}).get("time")
    if not _within(t_dec, ref["decoherence_time"], DECOHERENCE_RTOL * widen):
        problems.append(f"decoherence time = {t_dec}, reference {ref['decoherence_time']}")
    if workload.delta_mc is not None:
        delta_mc = summary.get("montecarlo", {}).get("delta_mc")
        if not _within(delta_mc, workload.delta_mc, DELTA_MC_RTOL):
            problems.append(f"delta_mc = {delta_mc}, reference {workload.delta_mc!r}")
    return problems


def check_accuracy(accuracy: dict) -> list[str]:
    """Gates on the traced run's accuracy figures: c02's bound and the library's PSD_WARN_TOL."""
    problems = []
    for layer in ("filtering", "control"):
        err = accuracy.get(f"{layer}.block_full_rel_err")
        if err is None or not err <= BLOCK_FULL_LIMIT:
            problems.append(f"{layer} block/full deviation {err} > {BLOCK_FULL_LIMIT}")
        eig, tol = accuracy.get(f"{layer}.psd_min_eig"), accuracy.get(f"{layer}.psd_tol")
        if eig is None or not eig >= tol:
            problems.append(f"{layer} min eigenvalue {eig} < {tol}")
    return problems
