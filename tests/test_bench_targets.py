"""The traced benchmark wraps library functions by name; each name must exist.

Only a traced bench run installs the wrappers, so a removed or renamed
function would otherwise go unnoticed until then.
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
