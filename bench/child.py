"""One benchmark client process: import dcearray.cli, run a workload, report.

    python3 bench/child.py REPORT                 # import only (set-up sample)
    python3 bench/child.py REPORT SPEC OUTDIR [--trace SPANS]

The runner starts this script with ``src`` on PYTHONPATH and reads the
monotonic clock just before spawning it; the clock reading taken right after
``import dcearray.cli`` below ends the set-up interval.  CLI workloads go
through ``dcearray.cli.main(argv)`` with ``--out OUTDIR/<job>.csv``;
oracle-verify calls the library the way acceptance criterion 6 does.  Only
the calls themselves are timed; comparing the oracle draws, and writing the
report and the spans, happen after the timed region.
"""

import time

import dcearray.cli

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_cli(jobs, outdir, recorder) -> list:
    results = []
    for k, job in enumerate(jobs):
        if recorder is not None:
            recorder.run = k
        argv = job["argv"] + ["--out", f"{outdir}/{job['name']}.csv"]
        try:
            results.append({"rc": dcearray.cli.main(argv), "error": None})
        except (Exception, SystemExit) as exc:  # a traceback is a failed call
            results.append({"rc": None, "error": f"{type(exc).__name__}: {exc}"})
    return results


def run_oracle(draws, recorder) -> list:
    """Criterion-6 style comparison: Wick path and qutrit block vs the oracle."""
    import numpy as np

    import dcearray.lattice as lattice
    import dcearray.quantum_state as qs
    from dcearray import oracle
    from workloads import oracle_state  # bench/ is sys.path[0]

    c = lattice.eigendecompose(
        lattice.build_laplacian(lattice.ArrayTopology.open_chain(2))).modes
    results = []
    for k, draw in enumerate(draws):
        if recorder is not None:
            recorder.run = k
        try:
            eps = np.array(draw["eps"])
            n_t = draw["n_thermal"]
            u = np.sqrt(1.0 + eps**2)
            v = -1j * eps
            occ = n_t + np.abs(v) ** 2 * (1.0 + 2.0 * n_t)
            pair = u * v * (1.0 + 2.0 * n_t)
            state = qs.GaussianOutputState(
                number=(c.T @ np.diag(occ) @ c).astype(complex),
                anomalous=(c.T @ np.diag(pair) @ c).astype(complex),
                temperature=0.0,
            )
            ref = oracle_state(eps, c, n_t)
            pairs = []
            for (dag, low), theirs in oracle.normal_moments(ref, totals=(2, 4)).items():
                word = ([(0, True)] * dag[0] + [(1, True)] * dag[1]
                        + [(0, False)] * low[0] + [(1, False)] * low[1])
                pairs.append((qs.wick_moment(state, word), theirs))
            rho = qs.density_matrix(state, post_select=False, max_degree=None,
                                    remainder_tol=1e-6).rho
            results.append({"pairs": pairs, "rho": rho,
                            "rho_ref": oracle.fock_block(ref, levels=3),
                            "cutoff": ref.space.cutoff, "error": None})
        except Exception as exc:  # one failed draw must not end the run
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    return results


def compare_oracle(results) -> list:
    import numpy as np

    out = []
    for res in results:
        if res["error"] is not None:
            out.append({"error": res["error"]})
            continue
        moment_gap = max(abs(ours - theirs) for ours, theirs in res["pairs"])
        rho_ref = res["rho_ref"] / np.trace(res["rho_ref"]).real
        rho_gap = float(np.max(np.abs(res["rho"] - rho_ref)))
        out.append({"moment_gap": float(moment_gap), "rho_gap": rho_gap,
                    "cutoff": res["cutoff"], "error": None})
    return out


def main(argv) -> int:
    report = {"imported_ns": IMPORTED_NS}
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        outdir = argv[2]
        recorder = None
        if len(argv) > 4 and argv[3] == "--trace":
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
        start = _now()
        if spec["jobs"]:
            report["jobs"] = run_cli(spec["jobs"], outdir, recorder)
        else:
            raw = run_oracle(spec["draws"], recorder)
        end = _now()
        if not spec["jobs"]:
            report["draws"] = compare_oracle(raw)
        report["start_ns"] = start
        report["end_ns"] = end
        if recorder is not None:
            recorder.write(argv[4])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
