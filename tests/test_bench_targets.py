"""The bench calls the library by name; each name and call must still hold.

The traced benchmark wraps library functions by name, the oracle-verify
client builds Gaussian states and calls density_matrix by keyword, and the
CLI clients check their outputs against references.  Only a bench run
exercises these, so a removed or renamed function or keyword, or a CLI
output the bench counts as failed, would otherwise go unnoticed until then.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dcearray.cli import main

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TARGETS; install() is not called
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.TARGETS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"dcearray.{mod}"), fn, None))
    ]
    assert tracer.TARGETS and missing == []


def test_oracle_verify_client_runs_on_the_library(monkeypatch):
    # bench/child.py builds GaussianOutputState and calls density_matrix by
    # keyword; a library change that breaks those calls fails here
    monkeypatch.syspath_prepend(str(TRACER.parent))
    child = importlib.import_module("child")
    workloads = importlib.import_module("workloads")
    draws = workloads.build("oracle-verify", 1)["draws"][:1]
    [result] = child.compare_oracle(child.run_oracle(draws, recorder=None))
    assert result["error"] is None, result["error"]
    assert result["moment_gap"] < workloads.TOL_ORACLE
    assert result["rho_gap"] < workloads.TOL_ORACLE


@pytest.mark.parametrize("workload", ["chain2-sweep", "ring-arrays", "entangle-thermal"])
def test_cli_client_jobs_pass_the_bench_checks(workload, tmp_path, monkeypatch):
    # each job of a CLI workload runs as bench/child.py runs it; its rows must
    # pass the bench's scan and its reference check
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    spec = workloads.build(workload, 1)
    failed_rows = 0
    for job in spec["jobs"]:
        out = tmp_path / f"{job['name']}.csv"
        rc = main(job["argv"] + ["--out", str(out)])
        failed_rows += workloads.scan_output(out, job, rc)[1]
    assert failed_rows == 0
    assert workloads.reference_check(spec, tmp_path).failed == set()
