"""Scenario ingestion and artifact emission around qmemctl.pipeline.

`run` loads the scenario, answers `validate`, creates --out and writes and
prints what pipeline.run's record holds; the stages, their option checks,
the gates and the summary.json dict live in qmemctl.pipeline.  Only the CSV
column lists are kept here.  The benchmark's tracer (perfbench/child.py,
LAYERS) wraps `run` and `load_scenario` at this module's attributes, so both
keep their names; it also wraps closedloop.integrate_matrix_ode and
closedloop.sample_grid, which closedloop imports for that alone.

Commands (one per invocation):

    validate     check the scenario and print the validation report
    filter       solve the smoothing/filtering Riccati, write filter.csv
    control      solve the control Riccati, write control.csv
    simulate     propagate closed-loop moments, write closedloop.csv
    montecarlo   run the sampling oracle, write montecarlo.csv + summary.json
    decoherence  evaluate the running cost threshold crossing, write summary.json
    full         everything above, one CSV per stage plus summary.json

Scenario files are JSON with matrices as row-major nested (or flat) arrays;
the fields and their defaults are listed in `load_scenario`'s docstring, and
scenarios/reference.json is a complete example.  Numbers are emitted with 17 significant digits,
so reruns with identical configuration produce byte-identical artifacts.

summary.json lists under "checks" the gates of qmemctl.checks that the
command ran, and the exit status is 1 when one of them fails (or on an error
or an invalid scenario), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import checks, model, montecarlo, pipeline
from .errors import PipelineError, QmemctlError, ScenarioFormatError

COMMANDS = ("validate",) + pipeline.COMMANDS


# ---------------------------------------------------------------------------
# scenario loading


def _field_array(name: str, raw) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"field '{name}': not a numeric array ({exc})") from None
    if not np.isfinite(arr).all():
        raise ScenarioFormatError(f"field '{name}': every entry must be a finite number")
    return arr


def _field_matrix(name: str, raw, rows: int, cols: int) -> np.ndarray:
    arr = _field_array(name, raw)
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise ScenarioFormatError(
                f"field '{name}': expected {rows}x{cols} ({rows * cols} numbers), "
                f"got {arr.size} numbers"
            )
        arr = arr.reshape(rows, cols)
    elif arr.ndim == 2:
        if arr.shape != (rows, cols):
            raise ScenarioFormatError(
                f"field '{name}': expected shape {(rows, cols)}, got {arr.shape}"
            )
    else:
        raise ScenarioFormatError(f"field '{name}': expected a matrix, got ndim={arr.ndim}")
    return arr


def _field_vector(name: str, raw, size: int) -> np.ndarray:
    arr = _field_array(name, raw).reshape(-1)
    if arr.size != size:
        raise ScenarioFormatError(f"field '{name}': expected {size} numbers, got {arr.size}")
    return arr


def _field_int(name: str, raw) -> int:
    # float.is_integer is False for nan and inf
    integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not integral:
        raise ScenarioFormatError(f"field '{name}': expected an integer, got {raw!r}")
    return int(raw)


def _field_float(name: str, raw) -> float:
    try:
        finite = not isinstance(raw, bool) and math.isfinite(raw)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:
        raise ScenarioFormatError(f"field '{name}': expected a finite number, got {raw!r}")
    return float(raw)


_KNOWN_KEYS = {
    "n", "m", "d", "r", "s", "R", "M", "N", "D", "F", "Pi",
    "mean0", "cov0", "tau", "steps",
}


def load_scenario(path) -> model.ScenarioSpec:
    """Load and normalize a scenario JSON file.

    Required fields: n, m, R (n x n), M (m x n), D (r x m), F (s x n), tau.
    Optional: d, r, s, N (d x n; required when d >= 1), Pi (d x d; required
    when d >= 1), mean0 (n), cov0 (n x n), steps.  Applies defaults:
    mean0 = 0, cov0 = I/2, steps = 2000 per unit of tau (rounded up).  d, r,
    s are inferred from N, D, F when not given and cross-checked when they
    are.  Raises ScenarioFormatError with
    field context for anything malformed.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"scenario {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"scenario {path}: top level must be an object")

    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ScenarioFormatError(f"scenario {path}: unknown fields {unknown}")

    for required in ("n", "m", "R", "M", "D", "F", "tau"):
        if required not in data:
            raise ScenarioFormatError(f"missing required field '{required}'")

    n = _field_int("n", data["n"])
    m = _field_int("m", data["m"])
    if n <= 0 or m <= 0:
        raise ScenarioFormatError(f"fields 'n'/'m' must be positive, got n={n}, m={m}")

    tau = _field_float("tau", data["tau"])
    if not tau > 0:
        raise ScenarioFormatError(f"field 'tau': must be positive, got {tau}")

    if "N" in data:
        n_raw = _field_array("N", data["N"])
        d = n_raw.shape[0] if n_raw.ndim == 2 else (0 if n_raw.size == 0 else 1)
    else:
        d = 0
    if "d" in data:
        d_declared = _field_int("d", data["d"])
        if "N" not in data and d_declared > 0:
            raise ScenarioFormatError("missing required field 'N' (d >= 1 declared)")
        if "N" in data and d_declared != d:
            raise ScenarioFormatError(
                f"field 'N': has {d} rows but field 'd' declares {d_declared}"
            )
        d = d_declared

    d_raw = _field_array("D", data["D"])
    r = d_raw.shape[0] if d_raw.ndim == 2 else (1 if d_raw.size else 0)
    if "r" in data and _field_int("r", data["r"]) != r:
        raise ScenarioFormatError(f"field 'D': has {r} rows but field 'r' declares {data['r']}")

    f_raw = _field_array("F", data["F"])
    s = f_raw.shape[0] if f_raw.ndim == 2 else (1 if f_raw.size else 0)
    if "s" in data and _field_int("s", data["s"]) != s:
        raise ScenarioFormatError(f"field 'F': has {s} rows but field 's' declares {data['s']}")

    if d > 0 and "Pi" not in data:
        raise ScenarioFormatError("missing required field 'Pi' (d >= 1)")

    spec = model.ScenarioSpec(
        n=n, m=m, d=d, r=r, s=s,
        R=_field_matrix("R", data["R"], n, n),
        M=_field_matrix("M", data["M"], m, n),
        N=_field_matrix("N", data["N"], d, n) if d > 0 else np.zeros((0, n)),
        D=_field_matrix("D", data["D"], r, m),
        F=_field_matrix("F", data["F"], s, n),
        Pi=_field_matrix("Pi", data["Pi"], d, d) if d > 0 else np.zeros((0, 0)),
        mean0=_field_vector("mean0", data["mean0"], n) if "mean0" in data else np.zeros(n),
        cov0=_field_matrix("cov0", data["cov0"], n, n) if "cov0" in data else 0.5 * np.eye(n),
        tau=tau,
        steps=_field_int("steps", data["steps"]) if "steps" in data
        else checks.default_steps(tau),
    )
    return spec


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, columns) -> None:
    """Write (label, array) pairs, each array with one entry per row, as CSV.

    An (N,) array is the column `label`; an (N, a, b) array gives the
    columns label_i_j, row-major (none when a or b is 0).
    """
    header, blocks = [], []
    for label, values in columns:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            names = [label]
        else:
            _, rows, cols = values.shape
            names = [f"{label}_{i}_{j}" for i in range(rows) for j in range(cols)]
        header += names
        blocks.append(values.reshape(len(values), len(names)))
    # "%.17g" % v is _fmt(v) for every float; one template formats a row.
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in np.concatenate(blocks, axis=1).tolist())
    path.write_text("\n".join(lines) + "\n")


def _jsonable(value):
    """Plain JSON data, with every non-finite float (numpy ones too) as None."""
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def _csv_columns(result: pipeline.Run, name: str, moments: bool) -> list:
    """CSV `name`'s (label, array) columns; closedloop.csv has vec(T) with `moments`."""
    if name == "filter.csv":
        filt = result.filter
        return [("t", filt.times), ("P1", filt.P1), ("P2", filt.P2), ("P3", filt.P3),
                ("K", filt.K)]
    if name == "control.csv":
        ctrl = result.control
        return [("t", ctrl.times), ("Q1", ctrl.Q1), ("Q2", ctrl.Q2), ("Q3", ctrl.Q3),
                ("c", ctrl.c)]
    if name == "closedloop.csv":
        closed = result.closed
        return [("t", closed.times), ("Delta", closed.Delta), ("Phi", closed.Phi),
                ("H_pont", closed.H_pont)] + ([("T", closed.T)] if moments else [])
    # montecarlo.csv: one row per checkpoint
    return [(f.name, [getattr(row, f.name) for row in result.rows])
            for f in fields(montecarlo.CheckpointResidual)]


# The CSVs each command writes: a stage's own command writes its CSV, and
# `full` every stage's.
_CSVS = {
    "filter": ("filter.csv",), "control": ("control.csv",), "simulate": ("closedloop.csv",),
    "montecarlo": ("montecarlo.csv",), "decoherence": (),
    "full": ("filter.csv", "control.csv", "closedloop.csv", "montecarlo.csv"),
}


def run(args: argparse.Namespace) -> int:
    """Execute one command, given the options _build_parser parses.

    Returns the process exit status: nonzero exactly when a hard error
    occurs, the scenario is invalid, or a gate of qmemctl.checks fails (cost
    identity, Monte Carlo agreement).
    """
    spec = pipeline.stage("load", load_scenario, args.scenario)
    if args.steps is not None:
        spec = replace(spec, steps=args.steps)

    if args.command == "validate":
        report = model.validate_spec(spec)
        print(json.dumps(_jsonable({
            "valid": report.ok,
            "violations": [
                {"invariant": v.invariant, "detail": v.detail, "residual": v.residual}
                for v in report.violations
            ],
        }), indent=2, sort_keys=True))
        return 0 if report.ok else 1

    # Options are refused before --out is made, and --out before any solve.
    plan = pipeline.prepare(spec, args.command, paths=args.paths, seed=args.seed,
                            epsilon=args.epsilon, phi_star=args.phi_star)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"cannot create output directory {out}: {exc.strerror}") from None
    result = pipeline.execute(plan)

    names = _CSVS[args.command]
    for name in names:
        _write_csv(out / name, _csv_columns(result, name, args.moments))
    if result.summary is None:  # filter, control or simulate: its one CSV
        print(f"wrote {out / names[0]}")
        return 0
    _write_summary(out / "summary.json", result.summary)

    cost, tau_dec = result.summary["cost"], result.summary["decoherence"]["time"]
    print(f"Phi(tau) = {_fmt(cost['phi_tau'])}, "
          f"min-cost identity residual = {_fmt(cost['identity_rel_residual'])}")
    if tau_dec is None:
        print("decoherence threshold not reached within horizon")
    else:
        print(f"decoherence time = {_fmt(tau_dec)}")
    failed = checks.failed(result.gates)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
    print(f"wrote {out / 'summary.json'}")
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemctl",
        description="Moment-level LQG control and initial-point smoothing pipeline "
                    "for linear quantum memory models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--steps", type=int, default=None, help="override grid steps")
    parser.add_argument("--paths", type=int, default=None,
                        help=f"Monte Carlo paths (default {pipeline.DEFAULT_PATHS})")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"Monte Carlo base seed (default {pipeline.DEFAULT_SEED})")
    parser.add_argument("--epsilon", type=float, default=None,
                        help=f"decoherence fidelity parameter (default {pipeline.DEFAULT_EPSILON})")
    parser.add_argument("--phi-star", type=float, default=None,
                        help="decoherence reference scale (default <Lambda,P0+T0>+1)")
    parser.add_argument("--moments", action="store_true",
                        help="include vec(T) columns in closedloop.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except QmemctlError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
