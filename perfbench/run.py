"""Benchmark of the qmemctl CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload ode_ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--smoke] [--seconds 30]

Run from the root of a source checkout.  Each measured run is one fresh
interpreter calling qmemctl.cli.main(argv) on the workload's inputs, one
child at a time, with BLAS at its default thread count.

--trace 0 times the command for --seconds: `wall_s` (spawn to exit),
`setup_s` (spawn until qmemctl is imported and the scenario loaded and
derived) and `peak_rss_mb` (the child's max RSS), each the median over the
run's children.
--trace 1 runs the command once with every layer wrapped (see child.py) and
reports per-layer times, counts and accuracy figures, plus the tracing
overhead against untraced children run for the rest of --seconds.

Every child is checked: exit 0, every summary.json check passed, and the
headline figures within tolerance of an independent reference (oracle.py).
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
full result with provenance goes to .perfbench/<workload>-s<seed>-t<trace>/.
--report runs every workload untraced and traced and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (span name, how it is derived).  "incl" sums the span's
# duration over calls, "self" sums its duration minus its child spans.
SPAN_METRICS = {
    "qmemctl.import_s": ("import", "incl"),
    "cli.load_s": ("cli.load", "incl"),
    "model.derive_s": ("model.derive", "incl"),
    "cli.self_s": ("cli.run", "self"),
    "filtering.solve_s": ("filtering.solve", "incl"),
    "control.solve_s": ("control.solve", "incl"),
    "ode.integrate_s": ("ode.integrate", "incl"),
    "ode.sample_grid_s": ("ode.sample_grid", "incl"),
    "closedloop.solve_s": ("closedloop.solve", "incl"),
    "closedloop.identity_s": ("closedloop.identity", "incl"),
    "montecarlo.simulate_s": ("montecarlo.simulate", "incl"),
    "montecarlo.check_s": ("montecarlo.check", "incl"),
}
COUNT_METRICS = {
    "ode.integrate_calls": "ode.integrate",
    "ode.sample_grid_calls": "ode.sample_grid",
}
ACCURACY_METRICS = (
    "filtering.block_full_rel_err", "control.block_full_rel_err",
    "filtering.psd_min_eig", "control.psd_min_eig",
)
# Spans that are not library layers: excluded from the layer share.
NON_LAYER = ("import", "bench.accuracy", "cli.run")


def per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "montecarlo.path_substeps": "count",
        "montecarlo.path_substeps_per_s": "1/s",
        "closedloop.identity_rel_residual": "ratio",
        "montecarlo.delta_z": "sigma",
        "montecarlo.max_P_rel_err": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.layer_share": "ratio",
    })
    units.update({name: "ratio" for name in ACCURACY_METRICS if "rel_err" in name})
    units.update({name: "eig" for name in ACCURACY_METRICS if "psd" in name})
    return units


# ---------------------------------------------------------------------------
# children


def spawn(args: list[str], log_dir: Path, timeout: float) -> dict:
    """Run `python child.py args` to completion; wall time and max RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log_dir / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(log_dir / "stderr.txt"), flags, 0o644)]
    argv = [sys.executable, str(HERE / "child.py"), *args]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000.0)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    end = time.monotonic()
    return {
        "start": start, "end": end, "wall_s": end - start,
        "exit": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_child(workdir: Path, argv: list[str], opts: list[str], deadline: float) -> dict:
    """One child run; `problems` lists why it failed (empty when it passed)."""
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    shutil.rmtree(workdir / "out", ignore_errors=True)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    res = spawn([str(report_path), json.dumps(argv), *opts], workdir, timeout)
    res["report"] = read_json(report_path) or {}
    res["problems"] = []
    if res["timed_out"]:
        res["problems"].append(f"timed out after {timeout:.0f} s")
    if res["exit"] != 0:
        tail = (workdir / "stderr.txt").read_text()[-2000:]
        res["problems"].append(f"exit code {res['exit']}: {tail}")
    if "setup_end" in res["report"]:
        res["setup_s"] = res["report"]["setup_end"] - res["start"]
    return res


# ---------------------------------------------------------------------------
# spans


def self_times(names, spans, root_start: float, root_end: float) -> dict:
    """Per-name calls, inclusive and self seconds; "process" is the root.

    `spans` rows are [name index, start, end, parent index]; a parent of -1
    means the span sits directly under the process, which runs from spawn
    to exit.  Self times of all names, root included, sum to its duration.
    """
    import numpy as np
    spans = np.asarray(spans, dtype=float).reshape(-1, 4)
    name_idx = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    child_time = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child_time, parent[nested], dur[nested])
    self_dur = dur - child_time
    root_self = root_end - root_start - float(dur[~nested].sum())
    out = {"process": {"calls": 1, "incl": root_end - root_start, "self": root_self,
                       "min_self": root_self}}
    for i, name in enumerate(names):
        mask = name_idx == i
        out[str(name)] = {
            "calls": int(mask.sum()), "incl": float(dur[mask].sum()),
            "self": float(self_dur[mask].sum()),
            "min_self": float(self_dur[mask].min()) if mask.any() else 0.0,
        }
    return out


def layer_metrics(layers: dict, accuracy: dict, summary: dict, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Every per-layer metric; a layer the command never entered reads 0."""
    def get(name, field):
        return layers.get(name, {}).get(field, 0.0)

    out = {m: get(span, field) for m, (span, field) in SPAN_METRICS.items()}
    out.update({m: get(span, "calls") for m, span in COUNT_METRICS.items()})
    mc = summary.get("montecarlo", {})
    substeps = (mc.get("paths", 0) * summary.get("scenario", {}).get("steps", 0)
                * mc.get("substeps_per_node", 0))
    out["montecarlo.path_substeps"] = substeps
    simulate_s = out["montecarlo.simulate_s"]
    out["montecarlo.path_substeps_per_s"] = substeps / simulate_s if simulate_s > 0 else 0.0
    out.update({m: accuracy.get(m, 0.0) for m in ACCURACY_METRICS})
    out["closedloop.identity_rel_residual"] = summary.get("cost", {}).get(
        "identity_rel_residual", 0.0)
    out["montecarlo.delta_z"] = mc.get("delta_z", 0.0)
    out["montecarlo.max_P_rel_err"] = mc.get("max_P_rel_err", 0.0)
    measured = traced_wall - get("bench.accuracy", "incl")
    layer_self = sum(v["self"] for k, v in layers.items() if k not in NON_LAYER + ("process",))
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = measured - untraced_wall
    out["trace.layer_share"] = layer_self / measured
    return out


# ---------------------------------------------------------------------------
# runs


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    if smoke:
        workload = workloads.smoke(workload)
    started = time.monotonic()
    deadline = started + 170.0
    workdir = ROOT / ".perfbench" / f"{name}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = workloads.prepare(workload, seed, ROOT, workdir)

    attempted = failed = 0
    problems: list[str] = []

    def record(res: dict, extra: list[str] = ()) -> dict:
        nonlocal attempted, failed
        attempted += 1
        bad = res["problems"] + list(extra)
        if bad:
            failed += 1
            problems.extend(bad)
        return res

    def timed_run() -> dict:
        res = run_child(workdir, inputs.argv, ["--setup", str(inputs.scenario)], deadline)
        summary = read_json(workdir / "out" / "summary.json") or {}
        res["summary"] = summary
        return record(res, [] if res["problems"] else
                      workloads.check_summary(workload, inputs, summary))

    def timed_runs() -> list[dict]:
        """Untraced children, one after another, until --seconds have passed."""
        runs = [timed_run()]
        while time.monotonic() - t0 < seconds and time.monotonic() < deadline - 30:
            runs.append(timed_run())
        return runs

    result: dict = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke}
    t0 = time.monotonic()
    if trace:
        traced = run_child(workdir, inputs.argv, ["--trace", str(workdir / "spans.npz")],
                           deadline)
        summary = read_json(workdir / "out" / "summary.json") or {}
        report = traced["report"]
        extra = [] if traced["problems"] else (
            workloads.check_summary(workload, inputs, summary)
            + workloads.check_accuracy(report.get("accuracy", {})))
        if not report.get("restored", False):
            extra.append("traced run left a wrapped function in place")
        record(traced, extra)
        untraced = timed_runs()
        layers = {}
        metrics = {}
        if not traced["problems"]:
            import numpy as np
            with np.load(workdir / "spans.npz") as data:
                layers = self_times(data["names"], data["spans"], traced["start"], traced["end"])
            metrics = layer_metrics(layers, report.get("accuracy", {}), summary,
                                    traced["wall_s"],
                                    statistics.median(r["wall_s"] for r in untraced))
        result["layers"] = layers
        result["untraced_wall_s"] = [r["wall_s"] for r in untraced]
        units = per_layer_units()
        result["metrics"] = {m: {"value": metrics.get(m, 0.0), "unit": u}
                             for m, u in units.items()}
    else:
        runs = timed_runs()
        samples = {
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": [r["setup_s"] for r in runs if "setup_s" in r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        result["samples"] = samples
        result["metrics"] = {
            m: {"value": statistics.median(samples[m]) if samples[m] else 0.0,
                "unit": unit, "spread": quartile_spread(samples[m]), "n": len(samples[m])}
            for m, unit in END_TO_END.items()
        }
    result.update(attempted=attempted, failed=failed, problems=problems,
                  correct=failed == 0 and attempted > 0,
                  elapsed_s=time.monotonic() - started,
                  provenance=provenance(seed, inputs))
    (workdir / "result.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    return result


# ---------------------------------------------------------------------------
# provenance


def _blas() -> dict:
    import numpy as np
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    info["thread_env"] = env
    # OpenBLAS starts one thread per CPU it may run on unless told otherwise.
    info["threads"] = (env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")
                       or len(os.sched_getaffinity(0)))
    return info


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_hash() -> str:
    import hashlib
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, inputs) -> dict:
    import numpy as np
    import scipy
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "scenario": str(inputs.scenario.relative_to(ROOT)),
        "scenario_sha256": inputs.sha256,
    }


# ---------------------------------------------------------------------------
# output


def print_result(result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"== {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['failed']}/{result['attempted']} runs failed ({status}), "
          f"{result['elapsed_s']:.1f} s")
    for problem in result["problems"]:
        print(f"   problem: {problem.strip()}")
    for name, m in result["metrics"].items():
        extra = (f"  median of {m['n']}, quartile spread {m['spread']:.3f}"
                 if "n" in m else "")
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}{extra}")
    print("   provenance " + json.dumps(result["provenance"], sort_keys=True))


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ode_ref", "mc_ref", "ode_n8"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced, print one table")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids: checks the plumbing in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "qmemctl" / "__init__.py").is_file():
        print(f"error: no qmemctl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.report and args.workload is None:
        parser.error("--workload is required without --report")
    sys.path.insert(0, str(SRC))

    if args.report:
        results = [run_workload(name, args.seed, args.seconds, trace, args.smoke)
                   for name in ("ode_ref", "mc_ref", "ode_n8") for trace in (False, True)]
        for result in results:
            print_result(result)
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results)}))
        return 0 if ok else 1

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_result(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
