import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dcearray.constants import HBAR
from dcearray.correlations import g2_thermal, g2_zero_temperature
from dcearray.drive import (
    DriveParams,
    LineParams,
    calibrate_da0_over_grid,
    mode_response,
)
from dcearray.errors import ZeroIntensity
from dcearray.lattice import ArrayTopology, build_laplacian, eigendecompose
from dcearray.spectral import (
    TAU_GRID,
    g1_broadband,
    g2_broadband,
    g2_broadband_normalized,
    omega_grid,
    pair_integral,
    pair_integral_quadrature,
    photon_flux_density,
    scattering_amplitude,
)

LINE = LineParams(z0=55.0, v=1.2e8)
OMEGA_D = 2.0 * math.pi * 10.3e9
SPEC2 = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))


def modes_at(phi, theta, da0=1e-25):
    d = DriveParams(a0=1e-23, da0=da0, phi=phi, theta=theta, omega_d=OMEGA_D)
    return mode_response(d, LINE, SPEC2)


MODES = modes_at(math.pi / 4.0, 0.9)


def test_scattering_heaviside_cutoff():
    assert scattering_amplitude(0, -1.0, 2.0, MODES) == 0.0
    assert scattering_amplitude(0, 0.0, 2.0, MODES) == 0.0


def test_scattering_band_centre_is_pair_amplitude():
    w = OMEGA_D / 2.0
    s = scattering_amplitude(0, w, w, MODES)
    assert s == pytest.approx(-1j * MODES.eps[0], rel=1e-12)


def test_scattering_zero_modulation():
    silent = modes_at(math.pi / 4.0, 0.9, da0=0.0)
    assert scattering_amplitude(0, 1e9, 2e9, silent) == 0.0


def test_flux_density_symmetry_at_zero_temperature():
    for frac in (0.1, 0.25, 0.4):
        w = frac * OMEGA_D
        left = photon_flux_density(0, w, MODES, SPEC2, 0.0)
        right = photon_flux_density(0, OMEGA_D - w, MODES, SPEC2, 0.0)
        assert left == pytest.approx(right, rel=1e-12)


def test_flux_density_vanishes_at_band_edges():
    assert photon_flux_density(0, 0.0, MODES, SPEC2, 0.0) == 0.0
    assert photon_flux_density(0, OMEGA_D, MODES, SPEC2, 0.0) == 0.0


def test_flux_density_thermal_background_without_modulation():
    from dcearray.quantum_state import thermal_occupation

    silent = modes_at(math.pi / 4.0, 0.9, da0=0.0)
    w = 0.3 * OMEGA_D
    flux = photon_flux_density(0, w, silent, SPEC2, 0.025)
    assert flux == pytest.approx(thermal_occupation(w, 0.025), rel=1e-12)


def test_integrated_flux_matches_band_intensity_structure():
    # integral of w (w_d - w) over the band is w_d^3/6, so the total flux
    # carries the same sum_n (c_n^i)^2 (dL_n / v)^2 structure as N_i
    total, _ = quad(
        lambda w: photon_flux_density(0, w, MODES, SPEC2, 0.0), 0.0, OMEGA_D
    )
    weights = SPEC2.modes[:, 0] ** 2
    expected = float(weights @ (MODES.delta_l / LINE.v) ** 2) * OMEGA_D**3 / 6.0
    assert total == pytest.approx(expected, rel=1e-9)


def test_g1_closed_form_and_quadrature():
    value = g1_broadband(0, MODES, SPEC2, LINE)
    weights = SPEC2.modes[:, 0] ** 2
    band, _ = quad(lambda w: w * w * (OMEGA_D - w), 0.0, OMEGA_D)
    assert band == pytest.approx(OMEGA_D**4 / 12.0, rel=1e-12)
    expected = (
        HBAR * LINE.z0 / (4.0 * math.pi)
        * band
        * float(weights @ (MODES.delta_l / LINE.v) ** 2)
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_g1_silent_drive():
    silent = modes_at(math.pi / 4.0, 0.9, da0=0.0)
    assert g1_broadband(0, silent, SPEC2, LINE) == 0.0


def test_g1_single_mode_scale():
    # one waveguide with deltaL = v / omega_d gives (hbar Z0 / 4 pi) w_d^2 / 12
    spec1 = eigendecompose(build_laplacian(ArrayTopology.open_chain(1)))
    from dcearray.drive import ModeResponse

    modes = ModeResponse(
        lambda0=np.array([1e-23]),
        dlambda=np.array([1e-26]),
        delta_l=np.array([LINE.v / OMEGA_D]),
        eps=np.array([0.5]),
        omega_d=OMEGA_D,
        v=LINE.v,
    )
    expected = HBAR * LINE.z0 / (4.0 * math.pi) * OMEGA_D**2 / 12.0
    assert g1_broadband(0, modes, spec1, LINE) == pytest.approx(expected, rel=1e-12)


def test_g1_equal_for_both_guides():
    assert g1_broadband(0, MODES, SPEC2, LINE) == pytest.approx(
        g1_broadband(1, MODES, SPEC2, LINE), rel=1e-12
    )


def test_spectral_amplitudes_read_the_drive_as_eps():
    # deltaL_n / v is 2 eps_n / w_d: a response whose delta_l and v are unknown
    # gives the same amplitudes
    blind = replace(MODES, delta_l=np.full_like(MODES.delta_l, np.nan), v=math.nan)
    w1, w2, tau = 0.3 * OMEGA_D, 0.7 * OMEGA_D, 3.7 / OMEGA_D
    for n in range(2):
        for amplitude in (lambda m: scattering_amplitude(n, w1, w2, m),
                          lambda m: pair_integral(n, tau, m),
                          lambda m: pair_integral_quadrature(n, tau, m)):
            assert amplitude(blind) == pytest.approx(amplitude(MODES), rel=1e-15)


def test_pair_integral_at_zero_delay():
    expected = -1j * MODES.delta_l[0] / LINE.v * OMEGA_D**3 / 6.0
    assert pair_integral(0, 0.0, MODES) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 0.9999, 1.0001, 3.7, 11.0, 30.0])
def test_pair_integral_closed_vs_quadrature(x):
    tau = x / OMEGA_D
    closed = pair_integral(0, tau, MODES)
    numeric = pair_integral_quadrature(0, tau, MODES)
    assert abs(closed - numeric) < 1e-9 * max(abs(closed), abs(numeric))


# Delays omega_d tau on both sides of the kernel's series / closed-form switch.
KERNEL_X = [0.0, 0.4, 0.9999, 1.0001, 7.3, 29.5]


def _g2_by_quadrature(pairs, tau, modes, spectrum):
    """G2_ij(tau) of each pair (i, j), the per-mode sum of quadrature I_n(tau)."""
    c = spectrum.modes
    integrals = np.array(
        [pair_integral_quadrature(n, tau, modes) for n in range(len(c))]
    )
    kappa = HBAR * LINE.z0 / (4.0 * math.pi)
    return [(kappa * abs((c[:, i] * c[:, j]) @ integrals)) ** 2 for i, j in pairs]


@pytest.mark.parametrize("x", KERNEL_X)
def test_g2_broadband_ring_64_matches_per_mode_sum(x):
    # ring-64 at the CLI defaults; G2 at every delay must equal the sum of
    # the per-mode integrals I_n, closed form and quadrature
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(64)))
    d = DriveParams(a0=1e-23, da0=1e-25, phi=math.pi / 4.0, theta=0.9,
                    omega_d=OMEGA_D)
    modes = mode_response(d, LINE, spec)
    tau = x / OMEGA_D
    kappa = HBAR * LINE.z0 / (4.0 * math.pi)
    c = spec.modes
    pairs = ((0, 0), (0, 1), (0, 5))
    for (i, j), ref in zip(pairs, _g2_by_quadrature(pairs, tau, modes, spec)):
        fast = g2_broadband(i, j, tau, modes, spec, LINE)
        amp = sum(c[n, i] * c[n, j] * pair_integral(n, tau, modes) for n in range(64))
        assert abs(fast - kappa**2 * abs(amp) ** 2) <= 1e-12 * abs(fast)
        assert abs(fast - ref) <= 1e-9 * abs(ref)


def test_cli_import_leaves_quadrature_unloaded():
    code = "import sys, dcearray.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_and_oracle_draw_leave_scipy_unloaded():
    # a criterion-6 style draw: oracle state, normal moments, qutrit block
    code = (
        "import sys, numpy as np, dcearray.cli\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "from dcearray import oracle\n"
        "c = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)\n"
        "ref = oracle.build_state([0.3, -0.2], c, n_thermal=0.1, cutoff=16,\n"
        "                         deficit_tol=1e-6)\n"
        "oracle.normal_moments(ref, totals=(2, 4))\n"
        "oracle.fock_block(ref, levels=3)\n"
        "loaded += [m for m in sys.modules if m.startswith('scipy')]\n"
        "print(sorted(set(loaded)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_g2_broadband_over_a_delay_array_matches_single_delays():
    # the array path against per-delay calls and quadrature, across both
    # kernel branches
    x = np.array(KERNEL_X + [0.3, 0.99, 1.0, 2.5, 17.0, 30.0])
    tau = x / OMEGA_D
    pairs = ((0, 0), (0, 1))
    refs = zip(*(_g2_by_quadrature(pairs, t, MODES, SPEC2) for t in tau.tolist()))
    for (i, j), ref in zip(pairs, refs):
        batch = g2_broadband(i, j, tau, MODES, SPEC2, LINE)
        single = [g2_broadband(i, j, t, MODES, SPEC2, LINE) for t in tau.tolist()]
        assert batch.shape == x.shape
        assert batch == pytest.approx(single, rel=1e-13, abs=0.0)
        assert batch == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_g2_broadband_decays_smoothly():
    values = [
        g2_broadband(0, 0, float(x) / OMEGA_D, MODES, SPEC2, LINE)
        for x in TAU_GRID[:64]
    ]
    diffs = np.abs(np.diff(values)) / values[0]
    assert np.max(diffs) < 0.05


def test_g2_broadband_ratio_stable_in_delay():
    ratios = []
    for x in (0.0, 2.0, 5.0, 9.0):
        tau = x / OMEGA_D
        g11 = g2_broadband(0, 0, tau, MODES, SPEC2, LINE)
        g12 = g2_broadband(0, 1, tau, MODES, SPEC2, LINE)
        ratios.append(g12 / g11)
    assert max(ratios) - min(ratios) < 0.05 * max(ratios)


def test_normalized_g2_zeros_match_band_centre_zeros():
    noon = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert g2_broadband_normalized(noon, 0, 1) == pytest.approx(0.0, abs=1e-12)
    anti = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(-0.2)), SPEC2)
    assert g2_broadband_normalized(anti, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_normalized_g2_exceeds_one_somewhere():
    values = []
    for theta in np.linspace(0.1, math.pi - 0.1, 60):
        modes = modes_at(math.pi / 4.0, float(theta))
        values.append(g2_broadband_normalized(g2_zero_temperature(modes, SPEC2), 0, 0))
    assert max(values) > 1.0
    assert max(values) <= 4.0 / 3.0 + 1e-9


def test_normalized_g2_needs_intensity():
    silent = modes_at(math.pi / 4.0, 0.9, da0=0.0)
    with pytest.raises(ZeroIntensity):
        g2_broadband_normalized(g2_zero_temperature(silent, SPEC2), 0, 0)


def test_omega_grid_excludes_endpoints():
    grid = omega_grid(OMEGA_D)
    assert len(grid) == 2048
    assert grid[0] > 0.0
    assert grid[-1] < OMEGA_D
    assert np.allclose(np.diff(grid), OMEGA_D / 2049.0, rtol=1e-9, atol=0.0)


def _calibrated(spectrum, theta):
    """The drive at theta whose largest band-centre photon number is 0.1."""
    seed = DriveParams(a0=1e-23, da0=1e-26, phi=math.pi / 4.0, theta=theta,
                       omega_d=OMEGA_D)
    return calibrate_da0_over_grid(seed, LINE, spectrum, 0.1)[1]


CALIBRATED = [
    (SPEC2, 0.9),
    (eigendecompose(build_laplacian(ArrayTopology.ring(16))), 1.3),
]


@pytest.mark.parametrize("temperature", [0.0, 0.025, 0.04, 0.1])
@pytest.mark.parametrize("spectrum, theta", CALIBRATED, ids=["chain-2", "ring-16"])
def test_flux_at_band_centre_is_the_thermal_photon_number(spectrum, theta, temperature):
    # one photon-number law: the flux at w_d / 2 is sweep's n_i at every temperature
    modes = _calibrated(spectrum, theta)
    numbers = g2_thermal(modes, spectrum, temperature).intensities
    for i in range(spectrum.n):
        flux = photon_flux_density(i, OMEGA_D / 2.0, modes, spectrum, temperature)
        assert flux == pytest.approx(numbers[i], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("temperature", [0.025, 0.1])
def test_parametric_flux_is_symmetric_under_pair_exchange(temperature):
    # the two photons of a pair leave together: flux - N_T is even about w_d / 2
    from dcearray.quantum_state import thermal_occupation

    modes = _calibrated(SPEC2, 0.9)
    w = np.array([0.05, 0.1, 0.25, 0.4, 0.49]) * OMEGA_D
    parametric = [photon_flux_density(0, x, modes, SPEC2, temperature)
                  - thermal_occupation(x, temperature) for x in (w, OMEGA_D - w)]
    np.testing.assert_allclose(parametric[0], parametric[1], rtol=1e-12, atol=0.0)


def test_per_mode_functions_of_a_batch_equal_their_one_point_values():
    spectrum = eigendecompose(build_laplacian(ArrayTopology.ring(5)))
    thetas = np.array([0.4, 0.9, 1.7])

    def response(theta):
        d = DriveParams(a0=1e-23, da0=1e-25, phi=math.pi / 4.0, theta=theta,
                        omega_d=OMEGA_D)
        return mode_response(d, LINE, spectrum)

    batch, points = response(thetas), [response(float(t)) for t in thetas]
    w1, w2 = 0.3 * OMEGA_D, 0.7 * OMEGA_D
    for n in range(spectrum.n):
        assert pair_integral(n, 1e-11, batch).tolist() == [
            pair_integral(n, 1e-11, p) for p in points]
        for pair in ((w1, w2), (-w1, w2)):  # in and outside the band
            assert scattering_amplitude(n, *pair, batch).tolist() == [
                scattering_amplitude(n, *pair, p) for p in points]
    assert pair_integral_quadrature(3, 1e-11, batch).tolist() == [
        pair_integral_quadrature(3, 1e-11, p) for p in points]
    omegas = np.array([0.1, 0.5, 0.8]) * OMEGA_D
    for omega in (w1, omegas):  # a batch's flux is shaped (K,) + omega's shape
        flux = photon_flux_density(2, omega, batch, spectrum, 0.04)
        assert flux.shape == thetas.shape + np.shape(omega)
        np.testing.assert_allclose(flux, [  # N_i of a batch and a point: a few ulps
            photon_flux_density(2, omega, p, spectrum, 0.04) for p in points],
            rtol=1e-15, atol=0.0)
    assert isinstance(photon_flux_density(2, w1, points[0], spectrum, 0.04), float)
