"""The benchmark's span boundaries still name functions of stepprop.

bench/layers.py patches each (module, function) in BOUNDARIES and raises
StalePatchError when one is gone; this keeps a src/ change that deletes or
renames a boundary from passing tier-1 while the traced benchmark fails.
A boundary that still exists but that the program no longer calls fails
`bench/run.py --trace 1` too: every span that bench/predictions.json lists
for a workload must record calls on it.  Round 0 of each workload, at the
benchmark's smallest sizes, checks that here.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text(
    encoding="utf-8"))["layers"]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _boundaries():
    return _bench_module("layers").BOUNDARIES


@pytest.mark.parametrize("home,attr", [(b[1], b[2]) for b in _boundaries()])
def test_bench_boundary_exists(home, attr):
    module = importlib.import_module(f"stepprop.{home}")
    assert callable(getattr(module, attr, None)), f"stepprop.{home}.{attr}"


@pytest.mark.parametrize("workload", sorted(
    {name for entry in PREDICTIONS for name in entry["on"]}))
def test_round_zero_reaches_every_predicted_span(workload):
    layers, wl = _bench_module("layers"), _bench_module("workloads")
    ops = wl.round_ops(wl.WORKLOADS[workload], 1, 0, True)
    with layers.Tracer() as tracer:
        results = [wl.run_op(op) for op in ops]
    assert [res.rc for res in results] == [0] * len(ops)
    calls, _ = tracer.summary()
    spans = {span for entry in PREDICTIONS if workload in entry["on"]
             for span in entry["spans"]}
    assert sorted(s for s in spans if calls[f"{s}.calls"] == 0) == []
