"""Benchmark of the dcearray CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the repository root.  One run measures one workload as a closed
loop with a single client: it starts a fresh interpreter (bench/child.py)
that imports ``dcearray.cli`` and runs the workload, waits for it to exit,
checks its outputs, and starts the next one until ``--seconds`` have passed.
Before the loop it takes a few import-only set-up samples.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run's clients).  With ``--trace 1``
every second client runs with the span recorder of bench/tracer.py, and the
JSON holds the per-layer metrics of the traced clients plus the tracing
overhead against the untraced ones.  ``--workload all`` runs every workload
untraced and traced and prints all the metrics.

Work files (outputs, spans, a result.json with the environment and every
client's numbers) go to ``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORK = Path(".bench_work")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DCE_WORKERS", None)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, env: dict, log: Path) -> dict:
    """Run bench/child.py to completion; wall, CPU and peak RSS of the child."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    with open(log, "w", encoding="utf-8") as out:
        start = _clock()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)

    def expire(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = _clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawn_ns": start,
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _load(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def setup_sample(workdir: Path, env: dict, k: int) -> float | None:
    report = workdir / f"setup{k}.json"
    child = spawn([report], env, workdir / f"setup{k}.log")
    rep = _load(report)
    if child["exit"] != 0 or rep is None:
        return None
    return (rep["imported_ns"] - child["spawn_ns"]) / 1e9


def client_run(spec: dict, workdir: Path, env: dict, k: int, traced: bool) -> dict:
    """One client: a fresh interpreter running the whole workload once."""
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    report = workdir / f"client{k}.json"
    spans = workdir / f"spans{k}.jsonl"
    args = [report, workdir / "spec.json", outdir]
    if traced:
        args += ["--trace", spans]
    run = spawn(args, env, workdir / f"client{k}.log")
    run["traced"] = traced
    rep = _load(report)
    rows = workloads.expected_rows(spec)
    run["ok"], run["failed"], run["digests"] = 0, rows, {}
    if rep is None or run["exit"] != 0:
        run["error"] = f"client exited with {run['exit']}"
        return run
    run["setup_s"] = (rep["imported_ns"] - run["spawn_ns"]) / 1e9
    run["run_s"] = (rep["end_ns"] - rep["start_ns"]) / 1e9
    ok = 0
    for job, res in zip(spec["jobs"], rep.get("jobs", [])):
        job_ok, _, digest = workloads.scan_output(outdir / f"{job['name']}.csv", job, res["rc"])
        ok += job_ok
        run["digests"][job["name"]] = digest
    run["draws"] = rep.get("draws", [])
    for draw in run["draws"]:
        if draw["error"] is None and max(draw["moment_gap"], draw["rho_gap"]) <= workloads.TOL_ORACLE:
            ok += 1
    run["ok"], run["failed"] = ok, rows - ok
    if traced:
        run["spans"] = str(spans)
    return run


def _git_commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(parent_workers) -> dict:
    """What a later run must match to be compared with this one."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted(Path("src/dcearray").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k, "unset") for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "DCE_WORKERS": "unset in every client"
                       + ("" if parent_workers is None else
                          f" (was {parent_workers!r} in the runner)"),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def _ratio(num, den):
    return num / den if den else math.nan


def trace_metrics(spec: dict, runs: list) -> tuple:
    """Per-layer metrics: counts from one traced client, times as medians."""
    units = tracer.metric_units()
    points = workloads.expected_rows(spec)
    jobs = len(spec["jobs"]) or len(spec["draws"])
    summaries = []
    for run in runs:
        if run["traced"] and "spans" in run:
            spans = tracer.read_spans(run["spans"])
            summaries.append(tracer.summarize(spans, int(run["run_s"] * 1e9), points, jobs))
    if not summaries:
        return {}, {}, False
    metrics = {}
    repeat = True
    for name, unit in units.items():
        values = [s["metrics"][name] for s in summaries if name in s["metrics"]]
        if not values:
            continue
        if unit in ("s", "us"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    untraced = _median(r.get("run_s") for r in runs if not r["traced"])
    traced = _median(r.get("run_s") for r in runs if r["traced"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics, summaries[0]["errors_by_class"], repeat


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = workloads.build(workload, seed)
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with open(workdir / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    parent_workers = os.environ.get("DCE_WORKERS")
    env = child_env()

    setup_sample(workdir, env, 0)  # untimed: compiles the package's bytecode once
    setups = [setup_sample(workdir, env, k) for k in range(1, SETUP_SAMPLES + 1)]
    runs = []
    start = _clock()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(client_run(spec, workdir, env, len(runs), traced))
        enough = not trace or len(runs) >= 2
        if enough and (_clock() - start) / 1e9 >= seconds:
            break

    # Everything below runs after the timed loop.
    env_record = environment(parent_workers)
    try:
        dev = workloads.reference_check(spec, workdir / "out")
        ref_error = None
    except Exception as exc:  # an unreadable output fails the run, it does not crash it
        dev = workloads.Deviations()
        dev.add("reference", "", -1, math.inf, 0.0)
        ref_error = f"{type(exc).__name__}: {exc}"
    for run in runs:
        for draw in run.get("draws", []):
            if draw["error"] is None:
                dev.add("oracle.moment", "", -1, draw["moment_gap"], workloads.TOL_ORACLE)
                dev.add("oracle.rho", "", -1, draw["rho_gap"], workloads.TOL_ORACLE)
    checked = runs[-1]["digests"]
    rows = workloads.expected_rows(spec)
    ref_failed = 0 if spec["draws"] else len(dev.failed)
    for run in runs:
        if run["digests"] != checked:
            run["failed"] = rows  # outputs differ between identical runs
        elif run["failed"] < rows:
            run["failed"] = min(rows, run["failed"] + ref_failed)
    attempted = rows * len(runs)
    failed = sum(run["failed"] for run in runs)

    untraced = [r for r in runs if not r["traced"]]
    e2e = {
        "setup_s": _median(setups + [r.get("setup_s") for r in runs]),
        "wall_s": _median(r["wall_s"] for r in untraced),
        # throughput over the whole run: rows completed over post-import time
        "points_per_s": _ratio(sum(r["ok"] for r in untraced),
                               sum(r.get("run_s", 0.0) for r in untraced)),
        "cpu_s": _median(r["cpu_s"] for r in untraced),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
    }
    checks = {"failed_frac": failed / attempted, "ref_err": dev.ref_err}
    layer, errors, repeat = trace_metrics(spec, runs) if trace else ({}, {}, True)
    if trace:
        layer["check.failed_frac"] = checks["failed_frac"]
        layer["check.ref_err"] = checks["ref_err"]
    correct = failed == 0 and ref_error is None and repeat and all(
        math.isfinite(v) for v in e2e.values())
    for run in [r for r in runs if r["traced"] and "spans" in r][1:]:
        Path(run["spans"]).unlink(missing_ok=True)  # keep the first span file
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_record, "correct": correct, "attempted": attempted,
        "failed": failed, "end_to_end": e2e, "checks": checks,
        "deviations": dev.worst, "reference_error": ref_error,
        "per_layer": layer, "errors_by_class": errors, "counts_repeat": repeat,
        "setup_samples": setups, "clients": runs,
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _emit(result: dict, prefix: str = "") -> dict:
    """Print one workload's metrics as a table; return them for the JSON line."""
    units = tracer.metric_units() if result["trace"] else END_TO_END
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    out = {}
    for name, unit in units.items():
        if name in values:
            value = values[name]
            print(f"{result['workload']:<17} {name:<52} {value:>16.6g} {unit}")
            # JSON has no NaN or infinity; -1 marks a value that was not measured
            out[prefix + name] = {"value": value if math.isfinite(value) else -1.0,
                                  "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/dcearray/cli.py").is_file():
        print("bench: src/dcearray/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))  # references for the checks

    if args.workload == "all":
        results = [measure(w, args.seed, args.seconds, t)
                   for w in workloads.WORKLOADS for t in (False, True)]
    else:
        results = [measure(args.workload, args.seed, args.seconds, bool(args.trace))]
    print("environment " + json.dumps(results[0]["environment"]))
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(_emit(res, prefix))
        print(f"{res['workload']:<17} failed_frac {res['checks']['failed_frac']:.6g} "
              f"ref_err {res['checks']['ref_err']:.3g} "
              f"({res['failed']} of {res['attempted']} rows failed)")
        if res["reference_error"]:
            print(f"{res['workload']:<17} reference check error: {res['reference_error']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
