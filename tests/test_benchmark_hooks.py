"""The benchmark traces qmemctl by wrapping module attributes; they must exist.

perfbench/child.py skips a layer whose attribute is gone, so a renamed or
dropped import would silently remove that layer from every traced run, and a
stage called through a from-import would bypass the wrapper.
"""

import collections
import functools
import importlib
import importlib.util
import math
from pathlib import Path

from qmemctl import cli

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"

# Layers a `full` run never enters: closedloop imports these two for the
# tracer alone, and filtering and control call integrate_matrix_ode only in
# their RK4 reference cascades.
IDLE_LAYERS = {
    ("qmemctl.closedloop", "integrate_matrix_ode"),
    ("qmemctl.closedloop", "sample_grid"),
    ("qmemctl.filtering", "integrate_matrix_ode"),
    ("qmemctl.control", "integrate_matrix_ode"),
}


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.LAYERS


def test_every_traced_layer_resolves():
    layers = _traced_layers()
    missing = [(module, attr) for module, attr, _ in layers
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert layers and not missing


def test_psd_tolerances_read_by_the_accuracy_record_exist():
    # perfbench/child.py's accuracy() reads both after every traced run.
    for module in ("qmemctl.filtering", "qmemctl.control"):
        tol = getattr(importlib.import_module(module), "PSD_WARN_TOL", None)
        assert isinstance(tol, float) and math.isfinite(tol), module


def test_full_run_enters_every_live_layer(tmp_path, monkeypatch):
    # Wrap each layer at its module attribute with a call counter, as the
    # tracer does, and run the console entry point.
    calls = collections.Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    layers = [(module, attr) for module, attr, _ in _traced_layers()]
    for module, attr in layers:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, attr, counted((module, attr), getattr(target, attr)))
    cli.main(["full", "--scenario", str(ROOT / "scenarios" / "reference.json"),
              "--steps", "40", "--paths", "50", "--out", str(tmp_path)])
    live = [layer for layer in layers if layer not in IDLE_LAYERS]
    assert len(live) == 9
    assert [layer for layer in live if calls[layer] == 0] == []
    assert {layer: calls[layer] for layer in IDLE_LAYERS} == dict.fromkeys(IDLE_LAYERS, 0)
