"""The benchmark traces qmemctl by wrapping module attributes; they must exist.

perfbench/child.py skips a layer whose attribute is gone, so a renamed or
dropped import would silently remove that layer from every traced run.
"""

import importlib
import importlib.util
import math
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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
