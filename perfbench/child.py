"""One measured qmemctl invocation, run in a fresh interpreter.

    python child.py REPORT.json '<json argv>' [--setup SCENARIO] [--trace SPANS.npz]

With --setup the child first imports qmemctl, loads SCENARIO and derives its
system matrices, and stamps that moment as the end of set-up.  It then calls
qmemctl.cli.main(argv) as the installed console script would.  With --trace it instead wraps each
layer's public functions at the module attribute its caller uses, records
one span per call (name, start, end, parent), reads accuracy figures from
the returned solutions, and restores every wrapped attribute before writing
the spans.  Times are CLOCK_MONOTONIC seconds, the same clock the parent
uses to stamp spawn and exit.

REPORT.json receives the set-up stamp or, when traced, the accuracy figures;
nothing is written into the program's own artifacts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

now = time.monotonic

# (module, attribute, span name): each attribute is what the caller looks up
# at call time, so wrapping it there sees every call the CLI makes.
LAYERS = (
    ("qmemctl.cli", "run", "cli.run"),
    ("qmemctl.cli", "load_scenario", "cli.load"),
    ("qmemctl.model", "derive_system_matrices", "model.derive"),
    ("qmemctl.filtering", "solve_filter", "filtering.solve"),
    ("qmemctl.control", "solve_control", "control.solve"),
    ("qmemctl.filtering", "integrate_matrix_ode", "ode.integrate"),
    ("qmemctl.control", "integrate_matrix_ode", "ode.integrate"),
    ("qmemctl.closedloop", "integrate_matrix_ode", "ode.integrate"),
    ("qmemctl.closedloop", "sample_grid", "ode.sample_grid"),
    ("qmemctl.closedloop", "solve_closed_loop", "closedloop.solve"),
    ("qmemctl.closedloop", "min_cost_identity", "closedloop.identity"),
    ("qmemctl.montecarlo", "simulate_ensemble", "montecarlo.simulate"),
    ("qmemctl.montecarlo", "cross_moment_check", "montecarlo.check"),
)

# Spans whose return value the accuracy figures are read from.
CAPTURED = ("filtering.solve", "control.solve")


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack = [-1]
        self.results: dict[str, object] = {}
        self.installed: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_idx: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_idx, now(), 0.0, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self.stack.pop()

    def wrap(self, name: str, fn):
        capture = name in CAPTURED
        name_idx = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if capture:
                self.results[name] = result
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        for module_name, attr, name in layers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # a layer the program no longer has
                continue
            self.installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self.installed)


def _assemble(top_left, top_right, bottom_left, bottom_right):
    import numpy as np
    return np.concatenate([np.concatenate([top_left, top_right], axis=-1),
                           np.concatenate([bottom_left, bottom_right], axis=-1)], axis=-2)


def _block_full_rel_err(assembled, full) -> float:
    """Criterion c02's measure: max |blocks - full| / (1 + max |full|)."""
    import numpy as np
    return float(np.max(np.abs(assembled - full)) / (1.0 + np.max(np.abs(full))))


def accuracy(tracer: Tracer) -> dict:
    """Accuracy figures read from the solutions the traced run returned."""
    import numpy as np
    from qmemctl import control, filtering

    out = {}
    filt = tracer.results.get("filtering.solve")
    if filt is not None:
        p2t = np.swapaxes(filt.P2, -2, -1)
        out["filtering.block_full_rel_err"] = _block_full_rel_err(
            _assemble(filt.P1, filt.P2, p2t, filt.P3), filt.P_full)
        out["filtering.psd_min_eig"] = float(np.linalg.eigvalsh(filt.P_full).min())
        out["filtering.psd_tol"] = filtering.PSD_WARN_TOL
    ctrl = tracer.results.get("control.solve")
    if ctrl is not None:
        q2t = np.swapaxes(ctrl.Q2, -2, -1)
        out["control.block_full_rel_err"] = _block_full_rel_err(
            _assemble(ctrl.Q1, q2t, ctrl.Q2, ctrl.Q3), ctrl.Q_full)
        out["control.psd_min_eig"] = float(np.linalg.eigvalsh(ctrl.Q_full).min())
        out["control.psd_tol"] = control.PSD_WARN_TOL
    return out


def setup(scenario: str) -> None:
    """The work every command does before its first solve."""
    from qmemctl import cli, model
    model.derive_system_matrices(cli.load_scenario(scenario))


def main(args: list[str]) -> int:
    report_path, argv = args[0], json.loads(args[1])
    opts = dict(zip(args[2::2], args[3::2]))
    report: dict = {}
    if "--trace" in opts:
        tracer = Tracer()
        idx = tracer.open(tracer.name_index("import"))
        import qmemctl.cli
        tracer.close(idx)
        tracer.install()
        try:
            status = qmemctl.cli.main(argv)
        finally:
            tracer.restore()
        idx = tracer.open(tracer.name_index("bench.accuracy"))
        report["accuracy"] = accuracy(tracer)
        tracer.close(idx)
        report["restored"] = tracer.restored()
        import numpy as np
        spans = np.array(tracer.spans, dtype=float).reshape(-1, 4)
        np.savez(opts["--trace"], names=np.array(tracer.names), spans=spans)
    else:
        setup(opts["--setup"])
        report["setup_end"] = now()
        import qmemctl.cli
        status = qmemctl.cli.main(argv)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
