"""Tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py

The traced-run and seed tests start the real workloads and take a few
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from benchtrace import HOOKS, LAYERS, HookError, Tracer, per_layer_metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric definitions ----------------------------------------------------


def test_metric_names_units_and_directions():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric


def test_declared_metrics_match_what_the_benchmark_prints():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        bench.END_TO_END_UNITS
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == per_layer_metric_specs()
    for declared in spec["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why


def test_every_layer_has_a_hook_and_a_workload():
    assert {layer for layer, *_ in HOOKS} == set(LAYERS)
    covered = {layer for w in WORKLOADS.values() for layer in w.layers}
    assert covered == set(LAYERS)


# -- hooks -----------------------------------------------------------------


def test_install_restores_every_original():
    import repro.predict.detector as detector

    original = detector.build_witness
    with Tracer():
        assert detector.build_witness is not original
    assert detector.build_witness is original


def test_missing_hook_name_fails_loudly():
    bad = (("predict.witness", "repro.predict.detector", "no_such_fn", None),)
    with pytest.raises(HookError):
        Tracer().install(bad)


def test_hook_at_a_name_no_caller_uses_is_reported_uncovered():
    import repro

    # The detector calls the ``build_witness`` it imported; patching the
    # defining module's name instead records nothing.
    wrong = (("predict.witness", "repro.predict.witness", "build_witness", None),)
    tracer = Tracer().install(wrong)
    try:
        repro.predict_races("App-1", spec="manual")
    finally:
        tracer.uninstall()
    assert tracer.uncovered(["predict.witness"]) == ["predict.witness"]

    with Tracer() as tracer:
        repro.predict_races("App-1", spec="manual")
    assert tracer.uncovered(["predict.witness"]) == []


def test_nested_same_layer_call_records_one_span():
    tracer = Tracer()
    outer = tracer._wrap("lp.solve", lambda: inner(), None)
    inner = tracer._wrap("lp.solve", lambda: None, None)
    outer()
    assert [s.layer for s in tracer.spans] == ["lp.solve"]


# -- real runs -------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_seed0():
    """One traced run (untraced + traced pass) per workload, seed 0."""
    return {
        name: bench.measure(
            ROOT,
            _Args(workload=name, seed=0, seconds=1, trace=1),
            _out_dir(),
        )
        for name in WORKLOADS
    }


class _Args:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def _out_dir() -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_covers_its_layers_and_matches_untraced(
    traced_seed0, name
):
    measured = traced_seed0[name]
    result = measured["result"]
    failed = [p["failed_checks"] for p in measured["details"]["passes"]]
    assert result["correct"], failed
    for layer in WORKLOADS[name].layers:
        assert result["metrics"][f"{layer}.calls"]["value"] >= 1, layer
    plain, traced = measured["details"]["passes"]
    assert plain["hash_seed"] == traced["hash_seed"]
    assert plain["digest"] == traced["digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_reaches_the_inputs(traced_seed0, name):
    seed0 = traced_seed0[name]["details"]["passes"][0]
    # Same hash seed, so only the workload seed differs.
    seed1 = bench.run_worker(
        ROOT, name, bench.input_seed(1, 0), 0, seed0["hash_seed"]
    )
    assert all(seed1["checks"].values()), seed1["checks"]
    assert seed1["digest"] != seed0["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-xl",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
