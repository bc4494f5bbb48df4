"""Span recorder for the traced benchmark run, and the per-layer statistics.

The recorder wraps the public functions listed in ``TARGETS`` from the
outside: after ``dcearray.cli`` is imported it replaces every binding of
each function in the ``dcearray`` modules (including ``from``-imports such
as the ones in ``cli``, values of module-level dicts such as
``cli.SUBCOMMANDS``, and the module's own name, so recursive retries of
``density_matrix`` are seen).  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_id, run_id, error_class, n]``;
its id is its index in the list.  Spans stay in memory and are written as
JSON lines once the timed region is over.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

TARGETS = {
    "lattice": ("build_laplacian", "eigendecompose"),
    "drive": ("mode_response", "calibrate_da0_over_grid"),
    "correlations": (
        "g2_zero_temperature",
        "g2_thermal",
        "cauchy_schwarz_violation",
    ),
    "quantum_state": (
        "output_gaussian",
        "density_matrix",
        "perturbative_density_matrix",
        "von_neumann_entropy",
        "noon_fidelity",
        "maximally_entangled_fidelity",
        "wick_moment",
    ),
    "oracle": ("build_state", "normal_moments", "fock_block", "moment", "fock_element"),
    "spectral": (
        "photon_flux_density",
        "g2_broadband",
        "g2_broadband_normalized",
        "pair_integral",
    ),
    "cli": ("main", "run_sweep"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Functions whose traced callees make total time differ from self time.
NON_LEAF = (
    "cli.main",
    "cli.run_sweep",
    "drive.calibrate_da0_over_grid",
    "correlations.g2_thermal",
    "quantum_state.density_matrix",
    "spectral.g2_broadband",
    "spectral.g2_broadband_normalized",
)

# Per-call functions whose slow calls matter; they also get a tail latency.
TAIL = (
    "cli.main",
    "drive.mode_response",
    "correlations.g2_zero_temperature",
    "correlations.g2_thermal",
    "quantum_state.output_gaussian",
    "quantum_state.density_matrix",
    "quantum_state.wick_moment",
    "oracle.build_state",
    "oracle.normal_moments",
    "spectral.g2_broadband",
    "spectral.photon_flux_density",
)

# Functions that raise on purpose (retries, bad input); their errors are kept.
ERRORS = ("cli.main", "quantum_state.density_matrix", "oracle.build_state")

EIGEN_SIZES = (31, 64, 128)

COUNTS = (
    ("drive.mode_response.calls_per_point", "ratio"),
    ("lattice.eigendecompose.calls_per_run", "ratio"),
    ("quantum_state.density_matrix.attempts_per_call", "ratio"),
    ("quantum_state.density_matrix.calls_per_row", "ratio"),
    ("oracle.build_state.attempts_per_state", "ratio"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        if fn in NON_LEAF:
            units[f"{fn}.total_s"] = "s"
        units[f"{fn}.p50_us"] = "us"
        if fn in TAIL:
            units[f"{fn}.tail_us"] = "us"
        if fn in ERRORS:
            units[f"{fn}.errors"] = "count"
    for n in EIGEN_SIZES:
        units[f"lattice.eigendecompose.n{n}.p50_us"] = "us"
    for mod in TARGETS:
        units[f"{mod}.self_s"] = "s"
    for name, unit in COUNTS:
        units[name] = unit
    units["trace.overhead_frac"] = "frac"
    units["trace.wall_s"] = "s"
    units["trace.untraced_s"] = "s"
    units["trace.errors"] = "count"
    units["check.failed_frac"] = "frac"
    units["check.ref_err"] = "abs"
    return units


class Recorder:
    """Collects spans around calls into the wrapped functions."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    def install(self) -> None:
        """Wrap every function in TARGETS wherever a dcearray module binds it."""
        for mod, fns in TARGETS.items():
            module = sys.modules[f"dcearray.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                self._rebind(original, self._wrap(f"{mod}.{fn}", original))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dcearray" or name.startswith("dcearray.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        sized = name == "lattice.eigendecompose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run, None,
                    len(args[0]) if sized and args else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run, error, n) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run, "error": error, "n": n,
                }) + "\n")


def read_spans(path) -> list:
    """Parse a span file; raises ValueError when a span is malformed."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["id"] != len(spans) or not -1 <= rec["parent"] < rec["id"]:
                raise ValueError(f"span {rec['id']} is out of order")
            if rec["end_ns"] < rec["start_ns"] or rec["name"] not in FUNCTIONS:
                raise ValueError(f"span {rec['id']} is malformed")
            spans.append(rec)
    return spans


def tail_value(samples: list) -> float:
    """The sample with exactly ten samples above it; the maximum for <= 10."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def summarize(spans: list, wall_ns: int, points: int, jobs: int) -> dict:
    """Per-function counts and times of one traced child run.

    Self time is a span's duration minus the durations of its direct child
    spans; calls made by one function into another nest on one thread, so
    the children never overlap.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec["parent"] >= 0:
            child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
    per = {fn: {"calls": 0, "self_ns": 0, "total_ns": 0, "durations": [],
                "errors": {}} for fn in FUNCTIONS}
    eigen = {}
    top_ns = 0
    dm_top = 0
    built = 0
    for rec, children in zip(spans, child_ns):
        name = rec["name"]
        dur = rec["end_ns"] - rec["start_ns"]
        entry = per[name]
        entry["calls"] += 1
        entry["self_ns"] += dur - children
        entry["durations"].append(dur)
        parent = spans[rec["parent"]]["name"] if rec["parent"] >= 0 else None
        if parent != name:  # recursive calls are already inside the outer span
            entry["total_ns"] += dur
        if parent is None:
            top_ns += dur
        if rec["error"]:
            entry["errors"][rec["error"]] = entry["errors"].get(rec["error"], 0) + 1
        if name == "lattice.eigendecompose":
            eigen.setdefault(rec["n"], []).append(dur)
        elif name == "quantum_state.density_matrix" and parent != name:
            dm_top += 1
        elif name == "oracle.build_state" and not rec["error"]:
            built += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for fn, entry in per.items():
        durations = entry["durations"]
        out[f"{fn}.calls"] = entry["calls"]
        out[f"{fn}.self_s"] = entry["self_ns"] / 1e9
        if fn in NON_LEAF:
            out[f"{fn}.total_s"] = entry["total_ns"] / 1e9
        out[f"{fn}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
        if fn in TAIL:
            out[f"{fn}.tail_us"] = tail_value(durations) / 1e3 if durations else 0.0
        if fn in ERRORS:
            out[f"{fn}.errors"] = sum(entry["errors"].values())
    for n in EIGEN_SIZES:
        samples = eigen.get(n, [])
        out[f"lattice.eigendecompose.n{n}.p50_us"] = (
            statistics.median(samples) / 1e3 if samples else 0.0
        )
    for mod in TARGETS:
        out[f"{mod}.self_s"] = sum(
            per[fn]["self_ns"] for fn in FUNCTIONS if fn.startswith(mod + ".")
        ) / 1e9
    out["drive.mode_response.calls_per_point"] = ratio(
        per["drive.mode_response"]["calls"], points)
    out["lattice.eigendecompose.calls_per_run"] = ratio(
        per["lattice.eigendecompose"]["calls"], jobs)
    out["quantum_state.density_matrix.attempts_per_call"] = ratio(
        per["quantum_state.density_matrix"]["calls"], dm_top)
    out["quantum_state.density_matrix.calls_per_row"] = ratio(dm_top, points)
    out["oracle.build_state.attempts_per_state"] = ratio(
        per["oracle.build_state"]["calls"], built)
    out["trace.wall_s"] = wall_ns / 1e9
    out["trace.untraced_s"] = (wall_ns - top_ns) / 1e9
    errors = {}
    for fn, entry in per.items():
        for cls, count in entry["errors"].items():
            errors[f"{fn}:{cls}"] = count
    out["trace.errors"] = sum(errors.values())
    return {"metrics": out, "errors_by_class": errors}
