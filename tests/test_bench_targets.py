"""The bench calls the library by name; each name and call must still hold.

The traced benchmark wraps library functions by name, and the oracle-verify
client builds Gaussian states and calls density_matrix by keyword.  Only a
bench run exercises these, so a removed or renamed function or keyword would
otherwise go unnoticed until then.
"""

import importlib
import importlib.util
from pathlib import Path

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
