"""Smoke test of the benchmark's own code at the smallest input sizes.

    python3 -m pytest bench

Every workload runs untraced and traced, its gate passes, and it reports
exactly the metrics BENCHMARK.json names.
"""
import json
import math

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_the_workloads_and_prediction_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in run._predictions():
        assert set(entry["metrics"]) <= per_layer
        assert set(entry["on"]) <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_passes_its_gate_and_reports_every_metric(workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace, tiny=True,
                     setup_repeats=1)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_stale_patch_fails_loudly(monkeypatch):
    run._prepare_imports()
    import stepprop.specfun
    from layers import StalePatchError, Tracer

    monkeypatch.delattr(stepprop.specfun, "hyp2f1_cols_rows")
    with pytest.raises(StalePatchError):
        with Tracer():
            pass
    # a failed install leaves no wrapper behind
    import stepprop.eigenstates
    import stepprop.propagator
    assert not hasattr(stepprop.propagator.propagate, "__wrapped__")
    assert not hasattr(stepprop.eigenstates.hyp2f1_with_complement,
                       "__wrapped__")


def test_tracer_patches_every_name_of_a_boundary():
    run._prepare_imports()
    import stepprop.cli
    import stepprop.propagator
    import stepprop.spectroscopy
    from layers import Tracer

    original = stepprop.propagator.propagate
    with Tracer():
        for mod in (stepprop.propagator, stepprop.cli, stepprop.spectroscopy):
            assert mod.propagate.__wrapped__ is original
    assert stepprop.cli.propagate is original
