import math
import os
import warnings

import numpy as np
import pytest

from dcearray.constants import FLUX_QUANTUM
from dcearray.drive import (
    PHASE_VELOCITY,
    DriveParams,
    LineParams,
    calibrate_da0_over_grid,
    mode_response,
)
from dcearray.errors import NonFinite, NonPositiveModeEnergy
from dcearray.lattice import ArrayTopology, build_laplacian, eigendecompose

LINE = LineParams(z0=55.0)
OMEGA_D = 2.0 * math.pi * 10.3e9


def two_guide_spectrum():
    return eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))


def drive(phi, theta, a0=1e-23, da0=1e-25):
    return DriveParams(a0=a0, da0=da0, phi=phi, theta=theta, omega_d=OMEGA_D)


def test_line_takes_no_phase_velocity():
    with pytest.raises(TypeError):
        LineParams(z0=55.0, v=1.2e8)


@pytest.mark.parametrize("z0", [0.0, -1.0])
def test_line_rejects_non_positive_impedance(z0):
    with pytest.raises(ValueError, match="z0 must be positive"):
        LineParams(z0=z0)


@pytest.mark.parametrize(
    "topology", [ArrayTopology.open_chain(2), ArrayTopology.ring(31)], ids=["chain-2", "ring-31"]
)
def test_eps_is_the_phase_velocity_free_law(topology):
    # eps_n = w_d (phi0/2pi)^2 dLambda_n / (2 Z0 Lambda0_n^2): no v in it
    spec = eigendecompose(build_laplacian(topology))
    thetas = np.linspace(0.0, math.pi, 301)
    d = drive(math.pi / 4.0, thetas)
    modes = mode_response(d, LINE, spec)
    lam = spec.lambdas
    lambda0 = d.a0 * (math.sin(d.phi) + lam * math.cos(d.phi))
    dlambda = d.da0 * (np.sin(thetas)[:, None] + lam * np.cos(thetas)[:, None])
    law = OMEGA_D * (FLUX_QUANTUM / (2.0 * math.pi)) ** 2 * dlambda / (
        2.0 * LINE.z0 * lambda0**2
    )
    np.testing.assert_allclose(modes.eps, law, rtol=1e-15, atol=0.0)
    assert modes.v == PHASE_VELOCITY


def test_perturbative_warning():
    with pytest.warns(UserWarning, match="perturbative"):
        DriveParams(a0=1e-23, da0=2e-24, phi=0.5, theta=0.5, omega_d=OMEGA_D)


def test_perturbative_warning_names_the_caller():
    spec = two_guide_spectrum()
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        DriveParams(a0=1e-23, da0=2e-24, phi=0.5, theta=0.5, omega_d=OMEGA_D)
        seed = drive(math.pi / 4.0, 0.9)
        calibrated, _ = calibrate_da0_over_grid(seed, LINE, spec, 0.9)
    assert calibrated.da0 / calibrated.a0 > 0.1
    files = [os.path.basename(r.filename) for r in records]
    assert files == ["test_drive.py", "drive.py"]


def test_equal_length_modulation_angle():
    # theta = arctan(1/4) makes sin(theta) = sin(theta) + 2 cos(theta) scaled
    # so that deltaL_1 = deltaL_2 at phi = pi/4
    spec = two_guide_spectrum()
    resp = mode_response(drive(math.pi / 4.0, math.atan(0.25)), LINE, spec)
    assert resp.delta_l[0] == pytest.approx(resp.delta_l[1], rel=1e-12)


def test_opposite_length_modulation_angle():
    spec = two_guide_spectrum()
    resp = mode_response(drive(math.pi / 4.0, math.atan(-0.2)), LINE, spec)
    assert resp.delta_l[0] == pytest.approx(-resp.delta_l[1], rel=1e-12)


def test_no_modulation_means_no_photons():
    spec = two_guide_spectrum()
    resp = mode_response(drive(0.9, 0.3, da0=0.0), LINE, spec)
    assert np.all(resp.delta_l == 0.0)
    assert np.all(resp.eps == 0.0)


def test_two_guide_closed_form_ratios():
    spec = two_guide_spectrum()
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = rng.uniform(0.3, math.pi / 2)
        theta = rng.uniform(0.0, math.pi)
        d = drive(phi, theta)
        resp = mode_response(d, LINE, spec)
        scale = (FLUX_QUANTUM / (2.0 * math.pi)) ** 2 * d.da0 / (
            (LINE.z0 / PHASE_VELOCITY) * d.a0**2
        )
        assert resp.delta_l[0] == pytest.approx(
            scale * math.sin(theta) / math.sin(phi) ** 2, rel=1e-12, abs=1e-30
        )
        assert resp.delta_l[1] == pytest.approx(
            scale
            * (math.sin(theta) + 2.0 * math.cos(theta))
            / (math.sin(phi) + 2.0 * math.cos(phi)) ** 2,
            rel=1e-12,
            abs=1e-30,
        )


def test_modulation_sign_follows_theta():
    spec = two_guide_spectrum()
    resp = mode_response(drive(math.pi / 4.0, 2.0), LINE, spec)
    lam = spec.lambdas
    for n in range(2):
        expected = math.copysign(
            1.0, math.sin(2.0) + lam[n] * math.cos(2.0)
        )
        assert math.copysign(1.0, resp.dlambda[n]) == expected


def test_unphysical_working_point_rejected():
    spec = two_guide_spectrum()
    with pytest.raises(NonPositiveModeEnergy):
        # sin(phi) < 0 makes the lambda=0 mode energy negative
        mode_response(drive(-0.3, 0.5), LINE, spec)


def test_eps_depends_on_da0_over_a0_squared():
    spec = two_guide_spectrum()
    r1 = mode_response(drive(0.8, 1.1, a0=1e-23, da0=1e-25), LINE, spec)
    r2 = mode_response(drive(0.8, 1.1, a0=2e-23, da0=4e-25), LINE, spec)
    assert np.allclose(r1.eps, r2.eps, rtol=1e-12)


def test_eps_linear_in_da0():
    spec = two_guide_spectrum()
    r1 = mode_response(drive(0.8, 1.1, da0=1e-25), LINE, spec)
    r2 = mode_response(drive(0.8, 1.1, da0=3e-25), LINE, spec)
    assert np.allclose(3.0 * r1.eps, r2.eps, rtol=1e-12)


def test_response_continuity_in_theta():
    spec = two_guide_spectrum()
    h = 1e-7
    base = mode_response(drive(0.9, 1.3), LINE, spec)
    shifted = mode_response(drive(0.9, 1.3 + h), LINE, spec)
    assert np.max(np.abs(shifted.eps - base.eps)) < 1e-5 * np.max(np.abs(base.eps))


def test_calibration_halves_da0_for_quarter_target():
    spec = two_guide_spectrum()
    d = drive(math.pi / 4.0, 0.7)
    weights = spec.modes**2
    resp = mode_response(d, LINE, spec)
    peak = float(np.max(weights.T @ resp.eps**2))
    cal, _ = calibrate_da0_over_grid(d, LINE, spec, peak / 4.0)
    assert cal.da0 == pytest.approx(d.da0 / 2.0, rel=1e-12)


def test_calibration_reaches_fixed_point():
    spec = two_guide_spectrum()
    d = drive(math.pi / 4.0, 0.7)
    cal, _ = calibrate_da0_over_grid(d, LINE, spec, 0.1)
    resp = mode_response(cal, LINE, spec)
    weights = spec.modes**2
    assert float(np.max(weights.T @ resp.eps**2)) == pytest.approx(0.1, abs=1e-12)


def test_point_calibration_is_the_one_point_grid():
    spec = two_guide_spectrum()
    point, _ = calibrate_da0_over_grid(drive(math.pi / 4.0, 0.7), LINE, spec, 0.1)
    grid, _ = calibrate_da0_over_grid(drive(math.pi / 4.0, [0.7]), LINE, spec, 0.1)
    assert point.da0 == grid.da0


@pytest.mark.parametrize(
    "theta", [0.7, np.linspace(0.0, math.pi, 301)], ids=["point", "grid"]
)
def test_calibration_returns_the_calibrated_drive_response(theta):
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(31)))
    cal, modes = calibrate_da0_over_grid(drive(math.pi / 4.0, theta), LINE, spec, 0.1)
    ref = mode_response(cal, LINE, spec)
    assert modes.eps.shape == ref.eps.shape == np.shape(theta) + (spec.n,)
    assert modes.lambda0.tobytes() == ref.lambda0.tobytes()
    for name in ("dlambda", "delta_l", "eps"):
        got, want = getattr(modes, name), getattr(ref, name)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=name)
    assert (modes.omega_d, modes.v) == (ref.omega_d, ref.v)


def test_grid_calibration_bounds_every_point():
    spec = two_guide_spectrum()
    thetas = np.linspace(0.0, math.pi, 301)
    cal, _ = calibrate_da0_over_grid(drive(math.pi / 4.0, thetas), LINE, spec, 0.1)
    weights = spec.modes**2
    peaks = []
    for theta in thetas:
        resp = mode_response(
            DriveParams(cal.a0, cal.da0, cal.phi, float(theta), cal.omega_d),
            LINE,
            spec,
        )
        peaks.append(float(np.max(weights.T @ resp.eps**2)))
    assert max(peaks) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize(
    "seed",
    [
        drive(math.pi / 4.0, 1.0, a0=1e-160, da0=1e-163),  # Lambda0^2 underflows
        DriveParams(a0=1e-23, da0=1e-26, phi=math.pi / 4.0, theta=1.0, omega_d=1e300),
        drive(math.pi / 4.0, 1.0, da0=1e-180),  # a subnormal peak: da0 overflows
    ],
    ids=["eps-inf", "peak-overflows", "da0-overflows"],
)
def test_calibration_without_a_finite_da0_raises(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow
        with pytest.raises(NonFinite, match="over the grid gives da0 = "):
            calibrate_da0_over_grid(seed, LINE, two_guide_spectrum(), 0.1)


@pytest.mark.parametrize(
    "topology",
    [ArrayTopology.open_chain(2), ArrayTopology.ring(31), ArrayTopology.ring(64)],
    ids=["n2", "ring31", "ring64"],
)
def test_theta_array_equals_per_angle_calls(topology):
    spec = eigendecompose(build_laplacian(topology))
    thetas = np.linspace(0.0, math.pi, 997)
    d = drive(math.pi / 4.0, 0.0)
    grid = mode_response(
        DriveParams(d.a0, d.da0, d.phi, thetas, d.omega_d), LINE, spec
    )
    assert grid.eps.shape == (len(thetas), topology.n)
    points = [
        mode_response(DriveParams(d.a0, d.da0, d.phi, float(t), d.omega_d), LINE, spec)
        for t in thetas
    ]
    for field in ("dlambda", "delta_l", "eps"):
        # each row is the one-angle call, to the last bit
        rows = np.array([getattr(point, field) for point in points])
        assert np.array_equal(getattr(grid, field), rows)
