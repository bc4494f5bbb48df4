"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion k: PASS/FAIL" line with the measured
numbers; failing tests also carry the line in the assertion message.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from dcearray import oracle
from dcearray.cli import main
from dcearray.correlations import (
    cauchy_schwarz_violation,
    g2_thermal,
    g2_zero_temperature,
    pair_amplitude,
)
from dcearray.drive import (
    DriveParams,
    LineParams,
    calibrate_da0_over_grid,
    mode_response,
)
from dcearray.errors import CutoffTooSmall
from dcearray.lattice import (
    ArrayTopology,
    LaplacianSpectrum,
    analytic_spectrum,
    build_laplacian,
    eigendecompose,
)
from dcearray.quantum_state import (
    GaussianOutputState,
    density_matrix,
    noon_fidelity,
    output_gaussian,
    perturbative_density_matrix,
    thermal_occupation,
    von_neumann_entropy,
    wick_moment,
)
from dcearray.spectral import (
    g2_broadband_normalized,
    pair_integral,
    pair_integral_quadrature,
    photon_flux_density,
)

LINE = LineParams(z0=55.0)
OMEGA_D = 2.0 * math.pi * 10.3e9
SPEC2 = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))
THETA_NOON = math.atan(0.25)
THETA_ANTI = math.atan(-0.2)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    # bypass pytest's capture so the line shows up even without -s
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def modes_at(phi, theta, spectrum=SPEC2, da0=1e-25, a0=1e-23):
    d = DriveParams(a0=a0, da0=da0, phi=phi, theta=theta, omega_d=OMEGA_D)
    return mode_response(d, LINE, spectrum)


def two_guide_closed_forms(modes):
    """Same- and cross-guide correlations written directly in delta_l."""
    dl1, dl2 = modes.delta_l
    denom = 2.0 * (dl1**2 + dl2**2)
    return (dl1 + dl2) ** 2 / denom, (dl1 - dl2) ** 2 / denom


def calibrated_noon_modes():
    grid = np.linspace(0.0, math.pi, 1000)
    seed = DriveParams(
        a0=1e-23, da0=1e-26, phi=math.pi / 4.0, theta=grid, omega_d=OMEGA_D
    )
    cal, _ = calibrate_da0_over_grid(seed, LINE, SPEC2, 0.1)
    return mode_response(dataclasses.replace(cal, theta=THETA_NOON), LINE, SPEC2)


def test_criterion_1_two_guide_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    lam = SPEC2.lambdas
    worst_match = 0.0
    worst_sum = 0.0
    count = 0
    while count < 200:
        phi = rng.uniform(0.0, math.pi)
        theta = rng.uniform(0.0, math.pi)
        if np.any(math.sin(phi) + lam * math.cos(phi) <= 0.0):
            continue
        modes = modes_at(phi, theta)
        if np.all(modes.delta_l == 0.0):
            continue
        corr = g2_zero_temperature(modes, SPEC2)
        g11, g12 = two_guide_closed_forms(modes)
        worst_match = max(
            worst_match, abs(corr.g2(0, 0) - g11), abs(corr.g2(0, 1) - g12)
        )
        worst_sum = max(worst_sum, abs(corr.g2(0, 0) + corr.g2(0, 1) - 1.0))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-12 and worst_sum <= 1e-12 and elapsed < 1.0
    report(
        1,
        ok,
        f"200 draws: max closed-form gap {worst_match:.2e}, "
        f"max sum-rule gap {worst_sum:.2e}, {elapsed:.3f} s",
    )


def test_criterion_2_special_angles():
    noon = g2_zero_temperature(modes_at(math.pi / 4.0, THETA_NOON), SPEC2)
    anti = g2_zero_temperature(modes_at(math.pi / 4.0, THETA_ANTI), SPEC2)
    cross_zero = abs(noon.g2(0, 1))
    same_zero = abs(anti.g2(0, 0))
    violation = cauchy_schwarz_violation(anti, 0, 1)
    ok = (
        cross_zero <= 1e-12
        and same_zero <= 1e-12
        and abs(violation - 1.0) <= 1e-12
    )
    report(
        2,
        ok,
        f"g2_12(arctan 1/4) = {cross_zero:.2e}, "
        f"g2_11(arctan -1/5) = {same_zero:.2e}, violation = {violation:.12f}",
    )


def test_criterion_3_entanglement_and_noon_fidelity():
    def balance(theta):
        dl1, dl2 = modes_at(math.pi / 4.0, theta).delta_l
        return (dl1 + dl2) ** 2 - 2.0 * (dl1 - dl2) ** 2

    root = brentq(balance, 1.2, 1.4, xtol=1e-14)
    entropy_root = von_neumann_entropy(
        perturbative_density_matrix(modes_at(math.pi / 4.0, root), SPEC2)
    )
    entropy_294 = von_neumann_entropy(
        perturbative_density_matrix(modes_at(math.pi / 4.0, 2.94), SPEC2)
    )
    f_pert = noon_fidelity(
        perturbative_density_matrix(modes_at(math.pi / 4.0, THETA_NOON), SPEC2)
    )
    cal = calibrated_noon_modes()
    state = output_gaussian(cal, SPEC2, 0.0)
    f_wick = noon_fidelity(
        density_matrix(state, post_select=True)
    )
    # At the NOON angle eps_1 = eps_2, so each guide holds an independent
    # single-mode squeezed vacuum with sinh r = eps.  Post-selection removes
    # only |00>, so the double pair |22> stays in the block and
    # F = (1 + tanh^2 r / 4)^(-1/2) rather than 1.
    eps1, eps2 = cal.eps
    equal_eps = abs(eps1 - eps2) <= 1e-12 * abs(eps1)
    tanh2 = eps1**2 / (1.0 + eps1**2)
    f_closed = 1.0 / math.sqrt(1.0 + tanh2 / 4.0)
    ok = (
        abs(entropy_root - 1.0) <= 2e-3
        and entropy_294 <= 0.02
        and abs(f_pert - 1.0) <= 1e-6
        and equal_eps
        and abs(f_wick - f_closed) <= 1e-6
    )
    report(
        3,
        ok,
        f"root theta = {root:.5f}, E_N(root) = {entropy_root:.6f}, "
        f"E_N(2.94) = {entropy_294:.4f}, 1-F_pert = {abs(f_pert - 1.0):.2e}, "
        f"1-F_wick = {1.0 - f_wick:.6e} vs closed form {1.0 - f_closed:.6e} "
        f"(gap {abs(f_wick - f_closed):.2e}, tolerance 1e-6), "
        f"eps = ({eps1:.6f}, {eps2:.6f})",
    )


def test_criterion_4_ring_31_photon_spread():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(31)))
    results = {}
    slowest = 0.0
    for theta in (0.17, 2.56, 2.78):
        start = time.perf_counter()
        modes = modes_at(math.pi / 4.0, theta, spectrum=spec)
        corr = g2_zero_temperature(modes, spec)
        slowest = max(slowest, time.perf_counter() - start)
        results[theta] = corr
    corr = results[0.17]
    off = max(abs(corr.g2(0, j)) for j in range(1, 31))
    localized = off <= 0.05 and corr.g2(0, 0) >= 0.9
    antibunched = results[2.56].g2(0, 0) <= 0.05
    corr = results[2.78]
    spread_sites = sum(
        1 for j in (1, 2, 3, 4, 5, 26, 27, 28, 29, 30) if corr.g2(0, j) >= 0.05
    )
    g_same = corr.g2(0, 0)
    g_next = min(corr.g2(0, 1), corr.g2(0, 30))

    def next_minus_same(theta):
        c = g2_zero_temperature(modes_at(math.pi / 4.0, theta, spectrum=spec), spec)
        return min(c.g2(0, 1), c.g2(0, 30)) - c.g2(0, 0)

    # theta = 2.78 is the angle where next-neighbour and same-site
    # correlations cross; the bracket itself requires next-neighbour
    # dominance at 2.56 and same-site dominance at 2.9
    crossover = brentq(next_minus_same, 2.56, 2.9, xtol=1e-12)
    delocalized = spread_sites >= 5 and abs(crossover - 2.78) <= 0.005
    ok = localized and antibunched and delocalized and slowest < 1.0
    report(
        4,
        ok,
        f"theta 0.17: g_same = {results[0.17].g2(0, 0):.4f}, max off = {off:.4f}; "
        f"theta 2.56: g_same = {results[2.56].g2(0, 0):.2e}; "
        f"theta 2.78: {spread_sites} spread sites, "
        f"g_next = {g_next:.4f} vs g_same = {g_same:.4f}; "
        f"g_next = g_same crossover at theta* = {crossover:.5f} "
        f"(2.78 +- 0.005); slowest theta {slowest * 1e3:.1f} ms",
    )


def test_criterion_5_finite_temperature():
    n_t = thermal_occupation(2.0 * math.pi * 5.15e9, 0.025)
    occupancy_ok = abs(n_t - 5.1e-5) <= 0.05 * 5.1e-5

    monotone_ok = True
    deviations = {}
    for theta in (THETA_NOON, THETA_ANTI + math.pi):
        modes = modes_at(math.pi / 4.0, theta)
        cold = g2_zero_temperature(modes, SPEC2)
        devs = []
        for t_k in (0.025, 0.040):
            warm = g2_thermal(modes, SPEC2, t_k)
            devs.append(
                max(
                    abs(warm.g2(0, 0) - cold.g2(0, 0)),
                    abs(warm.g2(0, 1) - cold.g2(0, 1)),
                )
            )
        deviations[theta] = devs
        monotone_ok = monotone_ok and 0.0 < devs[0] < devs[1]

    cal = calibrated_noon_modes()
    fid = []
    for t_k in (0.050, 0.060):
        state = output_gaussian(cal, SPEC2, t_k)
        rho = density_matrix(state, post_select=True)
        fid.append(noon_fidelity(rho))
    fidelity_ok = fid[0] > fid[1]

    ok = occupancy_ok and monotone_ok and fidelity_ok
    devs = deviations[THETA_NOON]
    report(
        5,
        ok,
        f"N_T(25 mK) = {n_t:.3e}, noon-angle deviations "
        f"{devs[0]:.2e} (25 mK) < {devs[1]:.2e} (40 mK), "
        f"F(50 mK) = {fid[0]:.6f} > F(60 mK) = {fid[1]:.6f}",
    )


def _oracle_state(eps, n_thermal):
    # the corner of the parameter box needs more Fock levels than the
    # smallest register; escalate until the deficit check is satisfied
    for cutoff in (8, 12, 16, 20, 24, 28, 32):
        try:
            return oracle.build_state(
                eps, SPEC2.modes, n_thermal=n_thermal, cutoff=cutoff,
                deficit_tol=1e-9,
            )
        except CutoffTooSmall:
            continue
    raise CutoffTooSmall("no register up to cutoff 32 represents the state")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    c = SPEC2.modes
    worst_moment = 0.0
    worst_rho = 0.0
    for _ in range(50):
        eps = rng.uniform(-0.3, 0.3, size=2)
        n_thermal = rng.uniform(0.0, 0.2)
        u = np.sqrt(1.0 + eps**2)
        v = -1j * eps
        occ = n_thermal + np.abs(v) ** 2 * (1.0 + 2.0 * n_thermal)
        pair = u * v * (1.0 + 2.0 * n_thermal)
        state = GaussianOutputState(
            number=(c.T @ np.diag(occ) @ c).astype(complex),
            anomalous=(c.T @ np.diag(pair) @ c).astype(complex),
            temperature=0.0,
        )
        ref = _oracle_state(eps, n_thermal)
        for (dag, low), theirs in oracle.normal_moments(ref, totals=(2, 4)).items():
            word = (
                [(0, True)] * dag[0]
                + [(1, True)] * dag[1]
                + [(0, False)] * low[0]
                + [(1, False)] * low[1]
            )
            worst_moment = max(worst_moment, abs(wick_moment(state, word) - theirs))
        rho = density_matrix(state, post_select=False).rho
        rho_ref = oracle.fock_block(ref, levels=3)
        rho_ref /= np.trace(rho_ref).real
        worst_rho = max(worst_rho, float(np.max(np.abs(rho - rho_ref))))
    elapsed = time.perf_counter() - start
    ok = worst_moment <= 1e-6 and worst_rho <= 1e-6 and elapsed < 30.0
    report(
        6,
        ok,
        f"50 draws: max moment gap {worst_moment:.2e}, "
        f"max rho element gap {worst_rho:.2e}, {elapsed:.1f} s",
    )


def _signed_cross_band(theta):
    modes = modes_at(math.pi / 4.0, theta)
    return float(pair_amplitude(modes, SPEC2)[0, 1])


def _signed_cross_broadband(theta):
    modes = modes_at(math.pi / 4.0, theta)
    total = sum(
        SPEC2.modes[n, 0] * SPEC2.modes[n, 1] * pair_integral(n, 0.0, modes)
        for n in range(2)
    )
    return float(total.imag)


def _signed_same_band(theta):
    modes = modes_at(math.pi / 4.0, theta)
    return float(pair_amplitude(modes, SPEC2)[0, 0])


def _signed_same_broadband(theta):
    modes = modes_at(math.pi / 4.0, theta)
    total = sum(
        SPEC2.modes[n, 0] ** 2 * pair_integral(n, 0.0, modes) for n in range(2)
    )
    return float(total.imag)


def test_criterion_7_spectral_module():
    modes = modes_at(math.pi / 4.0, 0.9)
    worst_kernel = 0.0
    for x in np.linspace(0.0, 30.0, 61):
        tau = float(x) / OMEGA_D
        closed = pair_integral(0, tau, modes)
        numeric = pair_integral_quadrature(0, tau, modes)
        worst_kernel = max(
            worst_kernel, abs(closed - numeric) / max(abs(closed), abs(numeric))
        )

    worst_sym = 0.0
    for frac in (0.05, 0.2, 0.35, 0.45):
        w = frac * OMEGA_D
        left = photon_flux_density(0, w, modes, SPEC2, 0.0)
        right = photon_flux_density(0, OMEGA_D - w, modes, SPEC2, 0.0)
        worst_sym = max(worst_sym, abs(left - right) / left)

    cross_band = brentq(_signed_cross_band, THETA_NOON - 0.1, THETA_NOON + 0.1)
    cross_bb = brentq(_signed_cross_broadband, THETA_NOON - 0.1, THETA_NOON + 0.1)
    same_band = brentq(_signed_same_band, THETA_ANTI - 0.1, THETA_ANTI + 0.1)
    same_bb = brentq(_signed_same_broadband, THETA_ANTI - 0.1, THETA_ANTI + 0.1)
    zero_gap = max(abs(cross_band - cross_bb), abs(same_band - same_bb))

    peak = max(
        g2_broadband_normalized(
            g2_zero_temperature(modes_at(math.pi / 4.0, float(t)), SPEC2), 0, 0
        )
        for t in np.linspace(0.1, math.pi - 0.1, 60)
    )

    ok = (
        worst_kernel <= 1e-9
        and worst_sym <= 1e-12
        and zero_gap <= 1e-6
        and peak > 1.0
    )
    report(
        7,
        ok,
        f"kernel closed-vs-quadrature {worst_kernel:.2e}, "
        f"flux asymmetry {worst_sym:.2e}, zero-angle gap {zero_gap:.2e}, "
        f"max normalized broadband g2 = {peak:.4f}",
    )


def _rotated_within_degeneracies(spectrum, angle):
    lambdas = spectrum.lambdas
    modes = spectrum.modes.copy()
    k = 0
    while k < len(lambdas) - 1:
        if abs(lambdas[k + 1] - lambdas[k]) < 1e-8:
            c, s = math.cos(angle), math.sin(angle)
            top = c * modes[k] + s * modes[k + 1]
            bottom = -s * modes[k] + c * modes[k + 1]
            modes[k], modes[k + 1] = top, bottom
            k += 2
        else:
            k += 1
    return LaplacianSpectrum(lambdas=lambdas, modes=modes)


def test_criterion_8_eigensolver():
    worst_eig = 0.0
    for n in (1, 2, 3, 4, 5, 6, 8, 13, 21, 31, 48, 64):
        topo = ArrayTopology.open_chain(n)
        jac = eigendecompose(build_laplacian(topo))
        ana = np.sort(analytic_spectrum(topo).lambdas)
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(jac.lambdas) - ana))))
    for n in (3, 4, 6, 12, 31, 64):
        topo = ArrayTopology.ring(n)
        jac = eigendecompose(build_laplacian(topo))
        ana = np.sort(analytic_spectrum(topo).lambdas)
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(jac.lambdas) - ana))))

    spec = eigendecompose(build_laplacian(ArrayTopology.ring(6)))
    rotated = _rotated_within_degeneracies(spec, 0.37)
    worst_obs = 0.0
    for s_a, s_b in ((spec, rotated),):
        m_a = modes_at(math.pi / 4.0, 0.9, spectrum=s_a)
        m_b = modes_at(math.pi / 4.0, 0.9, spectrum=s_b)
        c_a = g2_zero_temperature(m_a, s_a)
        c_b = g2_zero_temperature(m_b, s_b)
        worst_obs = max(
            worst_obs,
            float(np.max(np.abs(c_a.intensities - c_b.intensities))),
            float(np.max(np.abs(c_a.g2_matrix - c_b.g2_matrix))),
        )
        w = 0.3 * OMEGA_D
        f_a = photon_flux_density(0, w, m_a, s_a, 0.0)
        f_b = photon_flux_density(0, w, m_b, s_b, 0.0)
        worst_obs = max(worst_obs, abs(f_a - f_b) / f_a)
        g_a = g2_broadband_normalized(c_a, 0, 1)
        g_b = g2_broadband_normalized(c_b, 0, 1)
        worst_obs = max(worst_obs, abs(g_a - g_b))

    ok = worst_eig <= 1e-10 and worst_obs <= 1e-10
    report(
        8,
        ok,
        f"max eigenvalue gap {worst_eig:.2e}, "
        f"max observable change under degenerate rotation {worst_obs:.2e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    out = tmp_path / "fig3.csv"
    args = [
        "sweep",
        "--target-occupancy", "0.1",
        "--theta-steps", "1000",
        "--temperature-mk", "0,25,40",
        "--out", str(out),
    ]
    start = time.perf_counter()
    rc1 = main(args)
    elapsed = time.perf_counter() - start
    first = out.read_bytes()
    rc2 = main(args)
    identical = out.read_bytes() == first
    ok = rc1 == 0 and rc2 == 0 and identical and elapsed < 5.0
    report(
        9,
        ok,
        f"3000-row sweep in {elapsed:.2f} s, reruns byte-identical: {identical}",
    )
