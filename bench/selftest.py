"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest -q bench/selftest.py

Run from the repository root.  The traced-run test starts real clients and
takes about half a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))  # the references of the checks

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_match_the_code():
    doc = _benchmark()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build(workload, 7)
    assert json.loads(json.dumps(first)) == workloads.build(workload, 7)
    assert workloads.build(workload, 8) != first
    assert workloads.expected_rows(first) > 0


def test_summarize_derives_self_time_and_retries():
    def span(sid, name, start, end, parent):
        return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent, "run": 0, "error": None, "n": None}

    spans = [
        span(0, "cli.main", 0, 100, -1),
        span(1, "cli.run_sweep", 10, 90, 0),
        span(2, "drive.mode_response", 20, 30, 1),
        span(3, "quantum_state.density_matrix", 40, 80, 1),
        span(4, "quantum_state.density_matrix", 50, 70, 3),
    ]
    spans[4]["error"] = "TruncationUnreliable"
    out = tracer.summarize(spans, wall_ns=120, points=2, jobs=1)
    m = out["metrics"]
    assert m["cli.main.self_s"] == 20e-9
    assert m["cli.run_sweep.self_s"] == 30e-9
    assert m["quantum_state.density_matrix.self_s"] == 40e-9
    assert m["quantum_state.density_matrix.total_s"] == 40e-9
    assert m["quantum_state.density_matrix.attempts_per_call"] == 2.0
    assert m["quantum_state.density_matrix.calls_per_row"] == 0.5
    assert m["quantum_state.density_matrix.errors"] == 1
    assert m["trace.untraced_s"] == 20e-9
    assert out["errors_by_class"] == {
        "quantum_state.density_matrix:TruncationUnreliable": 1}


def test_tail_value_keeps_ten_samples_above():
    assert tracer.tail_value(list(range(100))) == 89
    assert tracer.tail_value([3, 1, 2]) == 3


def test_read_spans_rejects_a_bad_parent(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(json.dumps({"id": 0, "name": "cli.main", "start_ns": 0,
                                "end_ns": 1, "parent": 3, "run": 0, "error": None,
                                "n": None}) + "\n")
    with pytest.raises(ValueError):
        tracer.read_spans(path)


def test_traced_runs_repeat_counts_and_fit_in_wall_time(tmp_path, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    monkeypatch.setattr(run, "WORK", tmp_path)
    results = [run.measure("chain2-sweep", 3, 1, True) for _ in range(2)]
    units = tracer.metric_units()
    counts = [name for name, unit in units.items() if unit in ("count", "ratio")]
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert res["counts_repeat"]
        layer = res["per_layer"]
        assert set(layer) == set(units)
        traced = [c for c in res["clients"] if c["traced"]]
        spans = tracer.read_spans(traced[0]["spans"])
        assert spans and all(s["run"] in range(4) for s in spans)
        self_total = sum(layer[f"{mod}.self_s"] for mod in tracer.TARGETS)
        assert self_total <= layer["trace.wall_s"] <= min(c["wall_s"] for c in traced)
    assert [results[0]["per_layer"][n] for n in counts] == \
        [results[1]["per_layer"][n] for n in counts]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain2-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
