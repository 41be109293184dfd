"""The benchmark's span boundaries still name functions of stepprop.

bench/layers.py patches each (module, function) in BOUNDARIES and raises
StalePatchError when one is gone; this keeps a src/ change that deletes or
renames a boundary from passing tier-1 while the traced benchmark fails.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.BOUNDARIES


@pytest.mark.parametrize("home,attr", [(b[1], b[2]) for b in _boundaries()])
def test_bench_boundary_exists(home, attr):
    module = importlib.import_module(f"stepprop.{home}")
    assert callable(getattr(module, attr, None)), f"stepprop.{home}.{attr}"
