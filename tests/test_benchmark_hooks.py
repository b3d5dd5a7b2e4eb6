"""The benchmark traces qmemctl by wrapping module attributes; they must exist.

perfbench/child.py skips a layer whose attribute is gone, so a renamed or
dropped import would silently remove that layer from every traced run.
"""

import importlib
import importlib.util
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
