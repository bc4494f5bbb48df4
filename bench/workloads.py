"""Workload inputs generated from a seed, and the checks of their outputs.

``build(workload, seed)`` returns a JSON-serializable spec: the CLI argument
lists a child process passes to ``dcearray.cli.main`` (without ``--out``,
which the runner appends), or the oracle draws it hands to the library.
The seed sets the theta-grid offset (within a quarter grid step) and the
single-theta picks of the CLI workloads, and the signs, mode assignment
and order of the oracle-verify draws.

``scan_output`` is the cheap per-run check (status line, error cells,
finite cells, row count).  ``reference_check`` compares one run's outputs
with references the package already has; it runs after the timed region.
"""

from __future__ import annotations

import hashlib
import math
import random

WORKLOADS = ("chain2-sweep", "ring-arrays", "entangle-thermal", "oracle-verify")

# CLI defaults the references rely on (see README.md of the package).
A0 = 1e-23
PHI = math.pi / 4.0
OMEGA_D = 2.0 * math.pi * 10.3e9
Z0 = 55.0
V = 1.2e8
TARGET = 0.1

# Anchors of the single-theta picks: the NOON angle arctan(1/4), the
# balanced-entanglement root near 1.3 and the antibunching angle
# pi - arctan(1/5).  Picks jitter around them so each seed differs while the
# cost of a pick stays comparable between seeds.
ANCHORS = (math.atan(0.25), 1.3, math.pi - math.atan(0.2))
JITTER = 0.02

CHAIN2_STEPS = 1500
CHAIN2_OBS = "n_1,n_2,g2_1_1,g2_1_2,g2_2_2,cs_violation_1_2"
RING_SIZES = (31, 64, 128)
RING_STEPS = 40
BROADBAND_STEPS = 24
SPECTRUM_RESOLUTION = 2048  # SpectralConfig default
TAU_SAMPLES = 512           # SpectralConfig default
ENTANGLE_STEPS = 6
# (|eps_1|, |eps_2|, N_T) in twelfths of (EPS_MAX, EPS_MAX, NT_MAX)
ORACLE_DESIGN = ((11, 9, 11), (9, 11, 5), (7, 1, 9), (5, 7, 1), (3, 5, 7), (1, 3, 3))
EPS_MAX = 0.3
NT_MAX = 0.2

# Tolerances of the matching checks in tests/test_acceptance.py.
TOL_CLOSED_FORM = 1e-12   # criterion 1
TOL_ORACLE = 1e-6         # criterion 6
TOL_QUADRATURE = 1e-9     # criterion 7, kernel
TOL_FLUX_SYMMETRY = 1e-12 # criterion 7, flux
TOL_EIGEN = 1e-10         # criterion 8

ERROR_COLUMN = {"sweep", "entangle", "broadband"}


def _grid(rng: random.Random, steps: int) -> list:
    """Theta grid of ``steps`` points, one step apart, offset by the seed.

    The offset stays within a quarter step: the entangle series cost varies
    strongly with theta, and a full-step shift moves the cost of a 6-point
    grid by about 10%, which would hide a change of that size.
    """
    step = math.pi / steps
    start = rng.random() * step / 4.0
    return ["--theta-start", repr(start), "--theta-end",
            repr(start + (steps - 1) * step), "--theta-steps", str(steps)]


def _pick(rng: random.Random, anchor: float) -> str:
    return repr(anchor + rng.uniform(-JITTER, JITTER))


def _job(name, kind, argv, rows, **meta):
    return {"name": name, "kind": kind, "argv": [kind] + argv, "rows": rows, **meta}


def _chain2(rng):
    base = ["--target-occupancy", repr(TARGET), "--observables", CHAIN2_OBS]
    temps = (0.0, 25.0, 40.0)
    tmk = ["--temperature-mk", "0,25,40"]
    jobs = [_job("grid", "sweep", base + tmk + _grid(rng, CHAIN2_STEPS),
                 CHAIN2_STEPS * len(temps), n=2)]
    for k, anchor in enumerate(ANCHORS):
        jobs.append(_job(f"pick{k}", "sweep",
                         base + tmk + ["--theta-rad", _pick(rng, anchor)],
                         len(temps), n=2))
    return jobs


def _ring(rng):
    base = ["--topology", "ring", "--target-occupancy", repr(TARGET)]
    jobs = []
    for n in RING_SIZES:
        jobs.append(_job(f"sweep{n}", "sweep",
                         base + ["--n", str(n), "--temperature-mk", "0,25"]
                         + _grid(rng, RING_STEPS), 2 * RING_STEPS, n=n))
    ring64 = base + ["--n", "64"]
    jobs.append(_job("broadband64", "broadband",
                     ring64 + _grid(rng, BROADBAND_STEPS), BROADBAND_STEPS, n=64))
    theta = repr(rng.uniform(0.1, math.pi - 0.1))
    jobs.append(_job("time-delay64", "time-delay", ring64 + ["--theta-rad", theta],
                     TAU_SAMPLES, n=64))
    theta = repr(rng.uniform(0.1, math.pi - 0.1))
    jobs.append(_job("spectrum64", "spectrum",
                     ring64 + ["--theta-rad", theta, "--temperature-mk", "0,25"],
                     2 * SPECTRUM_RESOLUTION, n=64))
    return jobs


def _entangle(rng):
    base = ["--target-occupancy", repr(TARGET)]
    jobs = [_job("grid", "entangle",
                 base + ["--temperature-mk", "25,40"] + _grid(rng, ENTANGLE_STEPS),
                 2 * ENTANGLE_STEPS, n=2)]
    for k, (anchor, tmk) in enumerate(((ANCHORS[0], "25"), (ANCHORS[1], "40"))):
        jobs.append(_job(f"rho{k}", "entangle",
                         base + ["--theta-rad", _pick(rng, anchor),
                                 "--temperature-mk", tmk], 1, n=2))
    return jobs


def _oracle_draws(rng):
    """Draws over the box of criterion 6: |eps_i| <= 0.3, N_T in [0, 0.2].

    The magnitudes form a fixed Latin-hypercube design on the cell centres
    of a 6-level grid, so every seed covers the box once, expensive corner
    included.  The seed sets each draw's signs, which normal mode gets
    which amplitude, and the order of the draws.  The oracle cutoff and
    the series degree depend on the magnitudes only, so the cost of a set
    of draws stays the same between seeds while the states all differ.
    """
    draws = []
    for a, b, t in ORACLE_DESIGN:
        eps = [EPS_MAX * a / 12.0 * rng.choice((-1.0, 1.0)),
               EPS_MAX * b / 12.0 * rng.choice((-1.0, 1.0))]
        if rng.random() < 0.5:
            eps.reverse()
        draws.append({"eps": eps, "n_thermal": NT_MAX * t / 12.0})
    rng.shuffle(draws)
    return draws


def build(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; the same seed gives the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed, "jobs": [], "draws": []}
    if workload == "chain2-sweep":
        spec["jobs"] = _chain2(rng)
    elif workload == "ring-arrays":
        spec["jobs"] = _ring(rng)
    elif workload == "entangle-thermal":
        spec["jobs"] = _entangle(rng)
    elif workload == "oracle-verify":
        spec["draws"] = _oracle_draws(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # rows the reference check samples, drawn here so they follow the seed
    spec["samples"] = [rng.random() for _ in range(8)]
    return spec


def expected_rows(spec: dict) -> int:
    """Output rows one run produces: grid points, samples or oracle draws."""
    return sum(job["rows"] for job in spec["jobs"]) + len(spec["draws"])


def read_csv(path):
    """Split a CLI output file into header, data rows, rho rows and status."""
    header, rows, rho, status = None, [], [], None
    in_rho = False
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# status:"):
                status = line
            elif line.startswith("# rho:"):
                in_rho = True
            elif line.startswith("#"):
                header = line[2:].split(",")
            elif in_rho:
                rho.append(line.split(","))
            else:
                rows.append(line.split(","))
    return header, rows, rho, status


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def scan_output(path, job: dict, rc) -> tuple:
    """Rows of one job's output that completed, failed, and the file digest.

    A row fails when it carries an error cell or a non-finite or missing
    value, when the call exited non-zero or raised, or when the status line
    is not ``# status: ok``.  Rows that never appear count as failed.
    """
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        header, rows, rho, status = read_csv(path)
    except OSError:
        return 0, job["rows"], None
    if rc != 0 or status != "# status: ok" or header is None:
        return 0, job["rows"], digest
    width = len(header)
    ok = 0
    for row in rows[: job["rows"]]:
        values = row[:-1] if job["kind"] in ERROR_COLUMN else row
        error = row[-1] if job["kind"] in ERROR_COLUMN else ""
        if len(row) == width and not error and _finite(values):
            ok += 1
    if job["name"].startswith("rho") and not (
        len(rho) == 9 and all(len(r) == 18 and _finite(r) for r in rho)
    ):
        ok = 0
    return ok, job["rows"] - ok, digest


# --- references --------------------------------------------------------------


class Deviations:
    """Worst deviation per check, and the rows that exceed their tolerance."""

    def __init__(self):
        self.worst = {}
        self.failed = set()  # (job name, row index)

    def add(self, check, job, row, deviation, tol):
        if not deviation <= tol:  # NaN fails too
            self.failed.add((job, row))
        self.worst[check] = max(self.worst.get(check, 0.0), float(deviation))

    @property
    def ref_err(self) -> float:
        return max(self.worst.values(), default=0.0)


def _drive(lambdas, theta, da0):
    """Per-mode response to the drive, written out from the drive formulas."""
    import numpy as np

    from dcearray.constants import FLUX_QUANTUM
    from dcearray.drive import ModeResponse

    lam = np.asarray(lambdas)
    lambda0 = A0 * (math.sin(PHI) + lam * math.cos(PHI))
    dlambda = da0 * (math.sin(theta) + lam * math.cos(theta))
    delta_l = (FLUX_QUANTUM / (2.0 * math.pi)) ** 2 * dlambda / ((Z0 / V) * lambda0**2)
    return ModeResponse(lambda0=lambda0, dlambda=dlambda, delta_l=delta_l,
                        eps=OMEGA_D / (2.0 * V) * delta_l, omega_d=OMEGA_D, v=V)


def _calibrated(spectrum, thetas):
    """Drive response at theta after scaling da0 so the grid's peak is TARGET."""
    import numpy as np

    weights = spectrum.modes ** 2
    peak = max(float(np.max(weights.T @ _drive(spectrum.lambdas, t, 1.0).eps ** 2))
               for t in thetas)
    da0 = math.sqrt(TARGET / peak)
    return lambda theta: _drive(spectrum.lambdas, theta, da0)


def _bose(temperature_k):
    from dcearray.constants import HBAR, K_B

    if temperature_k == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * OMEGA_D / 2.0 / (K_B * temperature_k))


def oracle_state(eps, modes, n_thermal):
    """Oracle register with the cutoff escalated as in criterion 6."""
    from dcearray import oracle
    from dcearray.errors import CutoffTooSmall

    for cutoff in (8, 12, 16, 20, 24, 28, 32):
        try:
            return oracle.build_state(eps, modes, n_thermal=n_thermal,
                                      cutoff=cutoff, deficit_tol=1e-9)
        except CutoffTooSmall:
            continue
    raise CutoffTooSmall("no register up to cutoff 32 represents the state")


def _pick_rows(samples, rows, count):
    return sorted({int(s * len(rows)) for s in samples[:count]})


def _thetas(rows):
    return [float(r[0]) for r in rows]


def _check_chain2(spec, outputs, dev):
    from dcearray import oracle
    from dcearray.lattice import ArrayTopology, analytic_spectrum

    spec2 = analytic_spectrum(ArrayTopology.open_chain(2))
    c = spec2.modes
    for job in spec["jobs"]:
        _, rows, _, _ = outputs[job["name"]]
        eps_at = _calibrated(spec2, sorted(set(_thetas(rows))))
        warm = []
        for idx, row in enumerate(rows):
            theta, temp = float(row[0]), float(row[2])
            n1, n2, g11, g12, g22, cs = (float(x) for x in row[3:9])
            if temp != 0.0:
                warm.append(idx)
                continue
            eps = eps_at(theta).eps
            # two-guide closed forms in the normal-mode amplitudes
            same = (eps[0] + eps[1]) ** 2 / (2.0 * (eps[0] ** 2 + eps[1] ** 2))
            cross = (eps[0] - eps[1]) ** 2 / (2.0 * (eps[0] ** 2 + eps[1] ** 2))
            gap = max(abs(g11 - same), abs(g22 - same), abs(g12 - cross),
                      abs(cs - (cross - same)))
            dev.add("chain2.closed_form", job["name"], idx, gap, TOL_CLOSED_FORM)
            dev.add("chain2.sum_rule", job["name"], idx, abs(g11 + g12 - 1.0),
                    TOL_CLOSED_FORM)
            n_ref = (c ** 2).T @ eps ** 2
            dev.add("chain2.intensity", job["name"], idx,
                    max(abs(n1 - n_ref[0]), abs(n2 - n_ref[1])), TOL_CLOSED_FORM)
        if job["name"] != "grid":
            continue
        for idx in _pick_rows(spec["samples"], warm, 2):
            row = rows[warm[idx]]
            theta, temp = float(row[0]), float(row[2]) * 1e-3
            ref = oracle_state(eps_at(theta).eps, c, _bose(temp))
            g1 = [oracle.moment(ref, [(i, True), (i, False)]).real for i in (0, 1)]

            def g2(i, j):
                word = [(i, True), (j, True), (j, False), (i, False)]
                return oracle.moment(ref, word).real / math.sqrt(g1[i] * g1[j])

            expect = [g1[0], g1[1], g2(0, 0), g2(0, 1), g2(1, 1), g2(0, 1) - g2(0, 0)]
            got = [float(x) for x in row[3:9]]
            gap = max(abs(a - b) for a, b in zip(got, expect))
            dev.add("chain2.oracle_moment", job["name"], warm[idx], gap, TOL_ORACLE)


def _check_ring(spec, outputs, dev):
    import numpy as np

    from dcearray.constants import HBAR
    from dcearray.lattice import (
        ArrayTopology,
        analytic_spectrum,
        build_laplacian,
        eigendecompose,
    )
    from dcearray.spectral import pair_integral_quadrature

    for n in RING_SIZES:
        topo = ArrayTopology.ring(n)
        got = np.sort(eigendecompose(build_laplacian(topo)).lambdas)
        ref = np.sort(analytic_spectrum(topo).lambdas)
        dev.add("ring.eigenvalues", f"sweep{n}", -1,
                float(np.max(np.abs(got - ref))), TOL_EIGEN)

    for job in spec["jobs"]:
        _, rows, _, _ = outputs[job["name"]]
        spectrum = analytic_spectrum(ArrayTopology.ring(job["n"]))
        c = spectrum.modes
        if job["kind"] == "sweep":
            eps_at = _calibrated(spectrum, sorted(set(_thetas(rows))))
            for idx, row in enumerate(rows):
                if float(row[2]) != 0.0:
                    continue
                eps = eps_at(float(row[0])).eps
                n_ref = (c ** 2).T @ eps ** 2
                m = c.T @ np.diag(eps) @ c
                g11 = m[0, 0] ** 2 / n_ref[0]
                g12 = m[0, 1] ** 2 / math.sqrt(n_ref[0] * n_ref[1])
                got = [float(x) for x in row[3:6]]
                gap = max(abs(got[0] - n_ref[0]), abs(got[1] - g11),
                          abs(got[2] - g12))
                dev.add("ring.sweep_zero_temperature", job["name"], idx, gap, TOL_EIGEN)
        elif job["kind"] == "time-delay":
            theta = float(job["argv"][job["argv"].index("--theta-rad") + 1])
            modes = _calibrated(spectrum, [theta])(theta)
            kappa = HBAR * Z0 / (4.0 * math.pi)
            scale = [max(abs(float(r[k])) for r in rows) for k in (1, 2)]
            for idx in _pick_rows(spec["samples"], rows, 4):
                tau = float(rows[idx][0]) / OMEGA_D
                integrals = [pair_integral_quadrature(k, tau, modes)
                             for k in range(job["n"])]
                for col, j in ((1, 0), (2, 1)):
                    amp = sum(c[k, 0] * c[k, j] * integrals[k] for k in range(job["n"]))
                    ref = kappa ** 2 * abs(amp) ** 2
                    dev.add("ring.tau_quadrature", job["name"], idx,
                            abs(float(rows[idx][col]) - ref) / scale[col - 1],
                            TOL_QUADRATURE)
        elif job["kind"] == "spectrum":
            cold = [r for r in rows if float(r[1]) == 0.0]
            for idx in range(len(cold) // 2):
                left, right = float(cold[idx][2]), float(cold[-1 - idx][2])
                dev.add("ring.flux_symmetry", job["name"], idx,
                        abs(left - right) / max(abs(left), abs(right)),
                        TOL_FLUX_SYMMETRY)


def _check_entangle(spec, outputs, dev):
    import numpy as np

    from dcearray import oracle
    from dcearray.lattice import ArrayTopology, analytic_spectrum

    spec2 = analytic_spectrum(ArrayTopology.open_chain(2))
    noon = np.zeros(9)
    noon[6] = noon[2] = 1.0 / math.sqrt(2.0)
    for job in spec["jobs"]:
        _, rows, rho_rows, _ = outputs[job["name"]]
        for idx, row in enumerate(rows):
            # entropy is base 3 and both fidelities are square roots of overlaps
            inside = all(-1e-12 <= float(x) <= 1.0 + 1e-9 for x in row[3:6])
            dev.add("entangle.range", job["name"], idx, 0.0 if inside else math.inf, 0.0)
        if not job["name"].startswith("rho"):
            continue
        theta, temp = float(rows[0][0]), float(rows[0][2]) * 1e-3
        eps = _calibrated(spec2, [theta])(theta).eps
        ref = oracle.fock_block(oracle_state(eps, spec2.modes, _bose(temp)), levels=3)
        ref[0, :] = 0.0
        ref[:, 0] = 0.0
        ref /= np.trace(ref).real
        got = np.array([[complex(float(r[2 * k]), float(r[2 * k + 1])) for k in range(9)]
                        for r in rho_rows])
        dev.add("entangle.rho_oracle", job["name"], 0,
                float(np.max(np.abs(got - ref))), TOL_ORACLE)
        f_noon = math.sqrt(max(0.0, float(np.real(noon @ ref @ noon))))
        dev.add("entangle.noon_oracle", job["name"], 0,
                abs(float(rows[0][4]) - f_noon), TOL_ORACLE)


def reference_check(spec: dict, outdir) -> Deviations:
    """Compare one run's CSV outputs with the package's independent references."""
    dev = Deviations()
    if not spec["jobs"]:
        return dev
    outputs = {job["name"]: read_csv(f"{outdir}/{job['name']}.csv")
               for job in spec["jobs"]}
    {"chain2-sweep": _check_chain2, "ring-arrays": _check_ring,
     "entangle-thermal": _check_entangle}[spec["workload"]](spec, outputs, dev)
    return dev
