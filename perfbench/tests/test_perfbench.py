"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

A reduced-size pass of every workload, the interleaved baseline, the
tracer's restore guarantee, the traced/untraced agreement, the reference
gate on a perturbed reference, and the benchmark's refusal to run without
the program's sources.
"""
from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

adiagen = worker.import_adiagen()
MODULES = [importlib.import_module(f"adiagen.{m}")
           for m in ("qcore", "sparseham", "adiabatic", "markov", "szk", "cli")]


def _bindings() -> dict:
    """Identity of every attribute the tracer could patch."""
    out = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = id(member)
    for op in tracing.DENSE_OPS:
        out[("numpy.linalg", op)] = id(getattr(np.linalg, op))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_of_every_workload(name):
    configs = workloads.build(name, seed=5, smoke=True)
    p = worker.run_pass(name, configs, adiagen.cli)
    assert p["wall"] > 0
    assert [r["command"] for r in p["results"]] == [c["command"] for c in configs]
    assert all(r["problems"] == [] for r in p["results"]), p["results"]


def test_baseline_runs_the_frozen_copy_and_exits():
    with worker.Baseline("zeno-paths", seed=5, smoke=True) as baseline:
        baseline.wait_ready()
        assert baseline.run(1) > 0
        assert baseline.run(0) > 0
    assert baseline.proc.returncode == 0
    assert (worker.BASELINE_SRC / "adiagen" / "cli.py").is_file()


def test_untraced_run_interleaves_the_baseline():
    run = worker.measure("many-small", seed=2, seconds=0, trace=False, smoke=True)
    assert run["failed"] == 0 and run["problems"] == [], run["problems"]
    assert len(run["baseline_walls"]) == len(run["walls"]) == 2
    assert all(b > 0 for b in run["baseline_walls"])


def test_tracer_wraps_then_restores_every_binding():
    before = _bindings()
    original = adiagen.qcore.ground_state
    with tracing.Tracer():
        assert adiagen.adiabatic.ground_state is not original
        assert adiagen.markov.ground_state is adiagen.qcore.ground_state
        assert np.linalg.eigh.__wrapped__ is not None
    assert _bindings() == before


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer():
            adiagen.cli.run({"command": "no-such-command", "seed": 1})
    assert _bindings() == before


def test_traced_run_matches_untraced_and_counts_repeat():
    runs = [worker.measure("zeno-paths", seed=3, seconds=0, trace=True, smoke=True)
            for _ in range(2)]
    for run in runs:
        assert run["failed"] == 0 and run["problems"] == [], run["problems"]
    counts = [{k: v for k, v in run["layers"].items() if tracing.unit_of(k) != "s"}
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["adiabatic.zeno_evolve.calls"] == 2
    assert counts[0]["qcore.dense_ops.calls"] > 0


def test_gate_flags_a_perturbed_reference(monkeypatch):
    configs = workloads.build("schrodinger-path", seed=1, smoke=True)
    results = worker.run_pass("schrodinger-path", configs, adiagen.cli)["results"]
    assert results[0]["problems"] == []

    perturbed = copy.deepcopy(reference.REFERENCES)
    rule = perturbed["schrodinger-path"]["adiabatic-run"]["final_fidelity_sq"]
    rule["value"] -= 1e-6
    monkeypatch.setattr(reference, "REFERENCES", perturbed)
    results = worker.run_pass("schrodinger-path", configs, adiagen.cli)["results"]
    assert len(results[0]["problems"]) == 1
    assert "final_fidelity_sq" in results[0]["problems"][0]


def test_gate_rules():
    rules = {"err": {"min": 0, "max_scalar": "alpha"}, "n": {"value": 3, "tol": 0}}
    assert reference.check({"err": 1e-4, "alpha": 1e-3, "n": 3}, [], rules) == []
    assert len(reference.check({"err": 1e-2, "alpha": 1e-3, "n": 3}, [], rules)) == 1
    assert len(reference.check({"err": 1e-4, "alpha": 1e-3}, ["ok"], rules)) == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layers = set(tracing.Tracer().pass_metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "many-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
