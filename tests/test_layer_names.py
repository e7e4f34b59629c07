"""Every layer the benchmark times still names a function of telesum.

perfbench/layers.py looks its layers up with getattr when a traced run
starts, so a renamed or deleted function would break every traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers_module()


@pytest.mark.parametrize("module, name", LAYERS.LAYER_FUNCTIONS)
def test_layer_name_resolves(module, name):
    target = importlib.import_module(f"telesum.{module}")
    head, _, method = name.partition(".")
    owner = getattr(target, head)
    if method:
        assert isinstance(owner, type)
        for attr in LAYERS._METHOD_ATTRS.get(method, (method,)):
            assert callable(getattr(owner, attr))
    else:
        assert callable(owner)
