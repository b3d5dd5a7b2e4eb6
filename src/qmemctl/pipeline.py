"""One run of the pipeline, with its gates and its summary.

`run(spec, command, ...)` runs the stages a CLI command reaches (system
matrices, filter and control Riccati, closed-loop moments, then the cost
identity and decoherence time, then the Monte Carlo oracle) and returns one
`Run`.  It is `execute(prepare(...))`: `prepare` refuses a bad option before
any Riccati solve, and the CLI creates its output directory between the two.
Each stage is called through its module attribute (filtering.solve_filter),
so a caller that replaces the attribute sees every call.  The Monte Carlo
oracle is imported only by the commands that sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import checks, closedloop, control, filtering, model
from .errors import PipelineError, QmemctlError

DEFAULT_PATHS = 10_000
DEFAULT_SEED = 1_234_567
DEFAULT_EPSILON = 0.1

# The commands that run past the closed loop, and those that run the oracle.
_GATED = ("montecarlo", "decoherence", "full")
_SAMPLED = ("montecarlo", "full")
COMMANDS = ("filter", "control", "simulate") + _GATED


def default_phi_star(Lambda: np.ndarray, cov0: np.ndarray, t0: np.ndarray) -> float:
    """Reference cost scale <Lambda, P(0) + T(0)> + 1, with P(0) = [[1,1],[1,1]] kron cov0."""
    return float(np.sum(Lambda * (np.tile(cov0, (2, 2)) + t0))) + 1.0


def stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with any error but a QmemctlError raised as a
    PipelineError that names the stage."""
    try:
        return fn(*args, **kwargs)
    except QmemctlError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage '{name}' failed: {exc}") from exc


def _t0(spec: model.ScenarioSpec) -> np.ndarray:
    """T(0) = [[1,1],[1,1]] kron (EX0 EX0')."""
    return np.kron(np.ones((2, 2)), np.outer(spec.mean0, spec.mean0))


class Plan(NamedTuple):
    """A command with the options it uses resolved and checked; only `sys` is solved."""

    spec: model.ScenarioSpec
    command: str
    sys: model.SystemMatrices
    epsilon: float | None = None
    phi_star: float | None = None
    threshold: float | None = None
    paths: int | None = None
    seed: int | None = None


class Run(NamedTuple):
    """The stages a command reached (None where it did not), and for the commands
    past the closed loop the qmemctl.checks entries and the summary.json dict."""

    sys: model.SystemMatrices
    filter: filtering.FilterSolution | None = None
    control: control.ControlSolution | None = None
    closed: closedloop.ClosedLoopSolution | None = None
    moments: montecarlo.SampleMoments | None = None
    rows: list | None = None
    gates: dict | None = None
    summary: dict | None = None


def prepare(spec: model.ScenarioSpec, command: str, *, paths=None, seed=None,
            epsilon=None, phi_star=None) -> Plan:
    """Derive the system matrices and check the options `command` uses.

    A None option takes its default.  The decoherence options are checked by
    closedloop.decoherence_threshold, the Monte Carlo ones by
    montecarlo.check_ensemble; a refused one raises PipelineError naming the
    stage.  No Riccati equation is solved.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    sys_m = stage("model", model.derive_system_matrices, spec)
    options = {}
    if command in _GATED:
        epsilon = DEFAULT_EPSILON if epsilon is None else epsilon
        if phi_star is None:
            phi_star = default_phi_star(sys_m.Lambda, spec.cov0, _t0(spec))
        threshold = stage("decoherence", closedloop.decoherence_threshold, epsilon, phi_star)
        options.update(epsilon=epsilon, phi_star=phi_star, threshold=threshold)
    if command in _SAMPLED:
        paths = DEFAULT_PATHS if paths is None else paths
        seed = DEFAULT_SEED if seed is None else seed
        from . import montecarlo
        stage("montecarlo", montecarlo.check_ensemble, paths, seed)
        options.update(paths=paths, seed=seed)
    return Plan(spec, command, sys_m, **options)


def execute(plan: Plan) -> Run:
    """Solve the stages `plan.command` reaches, and gate and summarise them."""
    spec, command, sys_m = plan.spec, plan.command, plan.sys
    filt = stage("filter", filtering.solve_filter, sys_m, spec.cov0, spec.tau, spec.steps)
    if command == "filter":
        return Run(sys_m, filt)
    ctrl = stage("control", control.solve_control, sys_m, spec.Pi, spec.tau, spec.steps)
    if command == "control":
        return Run(sys_m, filt, ctrl)
    closed = stage("closedloop", closedloop.solve_closed_loop,
                   sys_m, filt, ctrl, spec.mean0, spec.tau)
    if command == "simulate":
        return Run(sys_m, filt, ctrl, closed)

    phi_tau = float(closed.Phi[-1])
    identity = stage("identity", closedloop.min_cost_identity,
                     filt, ctrl, _t0(spec), sys_m.Lambda, sys_m.G)
    gates = checks.cost_identity(phi_tau, identity, spec.tau, spec.steps)
    # The Pontryagin trace is reported but not gated: its time variation is
    # structural (the Kalman-gain forcing K(t) G K(t)' is time-dependent), so
    # a threshold on it would fail every healthy run.
    h_mean = float(closed.H_pont.mean())
    h_variation = float(np.max(np.abs(closed.H_pont - h_mean)) / (1.0 + abs(h_mean)))

    tau_dec = stage("decoherence", closedloop.decoherence_time,
                    closed.times, closed.Phi, plan.epsilon, plan.phi_star)

    summary = {
        "scenario": {
            "n": spec.n, "m": spec.m, "d": spec.d, "r": spec.r, "s": spec.s,
            "tau": spec.tau, "steps": spec.steps,
        },
        "cost": {
            "delta_tau": float(closed.Delta[-1]),
            "phi_tau": phi_tau,
            "control_energy": float(phi_tau - closed.Delta[-1]),
            "min_cost_identity": identity,
            "identity_rel_residual": gates["cost_identity"]["value"],
        },
        "pontryagin": {"mean": h_mean, "rel_variation": h_variation},
        "decoherence": {
            "epsilon": plan.epsilon,
            "phi_star": plan.phi_star,
            "threshold": plan.threshold,
            "time": tau_dec,
            "reached": tau_dec is not None,
            "note": None if tau_dec is not None else "not reached within horizon",
        },
    }

    moments = rows = None
    if command in _SAMPLED:
        from . import montecarlo
        gains = montecarlo.gain_schedule(filt, ctrl)
        moments = stage("montecarlo", montecarlo.simulate_ensemble,
                        sys_m, gains, spec.mean0, spec.cov0, plan.paths, plan.seed)
        rows = stage("montecarlo", montecarlo.cross_moment_check, moments, closed, filt)
        delta_ode = float(closed.Delta[-1])
        gates.update(checks.monte_carlo(moments, rows, delta_ode))
        summary["montecarlo"] = {
            "paths": plan.paths,
            "base_seed": plan.seed,
            "substeps_per_node": montecarlo.SUBSTEPS_PER_NODE,
            "delta_mc": moments.deviation_mean,
            "delta_se": moments.deviation_se,
            "delta_ode": delta_ode,
            "delta_z": gates["mc_delta_within_3se"]["value"],
            "cost_mc": moments.cost_mean,
            "cost_se": moments.cost_se,
            "smoothing_sqerr_mc": moments.smoothing_sqerr_mean,
            "smoothing_sqerr_ode": float(np.trace(filt.P1[-1])),
            "max_P_rel_err": gates["mc_P_relative_error"]["value"],
            "max_T_rel_err": float(np.max([row.T_rel_err for row in rows])),
            "mho_checkpoints_within_3se": gates["mc_mho_checkpoints"]["value"],
            "checkpoints": len(rows),
            "e_mean_within_3se": gates["mc_e_mean"]["value"],
        }

    summary["checks"] = gates
    return Run(sys_m, filt, ctrl, closed, moments, rows, gates, summary)


def run(spec: model.ScenarioSpec, command: str, *, paths=None, seed=None,
        epsilon=None, phi_star=None) -> Run:
    """Run `command` (any CLI command but validate) on `spec`: prepare, then execute."""
    return execute(prepare(spec, command, paths=paths, seed=seed, epsilon=epsilon,
                           phi_star=phi_star))
