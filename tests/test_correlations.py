import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcearray.correlations import (
    cauchy_schwarz_violation,
    g2_thermal,
    g2_zero_temperature,
    intensities,
    pair_amplitude,
)
from dcearray.drive import DriveParams, LineParams, mode_response
from dcearray.errors import AsymmetricModes, ZeroIntensity
from dcearray.lattice import ArrayTopology, build_laplacian, eigendecompose
from dcearray.quantum_state import thermal_occupation

LINE = LineParams(z0=55.0, v=1.2e8)
OMEGA_D = 2.0 * math.pi * 10.3e9
SPEC2 = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))


def modes_at(phi, theta, spectrum=SPEC2, da0=1e-25, a0=1e-23):
    d = DriveParams(a0=a0, da0=da0, phi=phi, theta=theta, omega_d=OMEGA_D)
    return mode_response(d, LINE, spectrum)


def eq7_pair(modes):
    """Two-waveguide closed forms written directly in the length modulations."""
    dl1, dl2 = modes.delta_l
    denom = 2.0 * (dl1**2 + dl2**2)
    return (dl1 + dl2) ** 2 / denom, (dl1 - dl2) ** 2 / denom


def test_two_guide_intensities_equal():
    modes = modes_at(0.9, 1.7)
    n = intensities(modes, SPEC2)
    assert n[0] == pytest.approx(n[1], rel=1e-12)
    expected = (modes.omega_d / (2.0 * LINE.v)) ** 2 * (
        modes.delta_l[0] ** 2 + modes.delta_l[1] ** 2
    ) / 2.0
    assert n[0] == pytest.approx(expected, rel=1e-12)


def test_no_modulation_no_intensity():
    modes = modes_at(0.9, 1.7, da0=0.0)
    assert np.all(intensities(modes, SPEC2) == 0.0)


def test_ring_intensities_uniform():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(31)))
    modes = modes_at(math.pi / 4.0, 0.9, spectrum=spec)
    n = intensities(modes, spec)
    assert np.max(np.abs(n - n[0])) < 1e-10 * n[0]


def test_pair_amplitude_symmetric():
    modes = modes_at(0.8, 2.1)
    m = pair_amplitude(modes, SPEC2)
    assert np.allclose(m, m.T, atol=1e-20)


def test_closed_forms_match_eq_style_expressions():
    rng = np.random.default_rng(21)
    count = 0
    while count < 200:
        phi = rng.uniform(0.0, math.pi)
        theta = rng.uniform(0.0, math.pi)
        lam = SPEC2.lambdas
        if np.any(math.sin(phi) + lam * math.cos(phi) <= 0):
            continue
        modes = modes_at(phi, theta)
        if np.all(modes.delta_l == 0.0):
            continue
        corr = g2_zero_temperature(modes, SPEC2)
        g11, g12 = eq7_pair(modes)
        assert corr.g2(0, 0) == pytest.approx(g11, abs=1e-12)
        assert corr.g2(0, 1) == pytest.approx(g12, abs=1e-12)
        assert corr.g2(0, 0) + corr.g2(0, 1) == pytest.approx(1.0, abs=1e-12)
        count += 1


def test_noon_angle_localizes_photons():
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert corr.g2(0, 1) == pytest.approx(0.0, abs=1e-12)
    assert corr.g2(0, 0) == pytest.approx(1.0, abs=1e-12)


def test_antisymmetric_angle_splits_photons():
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(-0.2)), SPEC2)
    assert corr.g2(0, 0) == pytest.approx(0.0, abs=1e-12)
    assert corr.g2(0, 1) == pytest.approx(1.0, abs=1e-12)


def test_single_mode_silence_gives_half():
    # theta = pi/2 + phi-independent: delta_l1 ~ sin(theta); pick theta so
    # the lambda=0 mode is silent, i.e. sin(theta) = 0
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.pi), SPEC2)
    assert corr.g2(0, 0) == pytest.approx(0.5, abs=1e-12)
    assert corr.g2(0, 1) == pytest.approx(0.5, abs=1e-12)


def test_zero_intensity_raises():
    modes = modes_at(0.9, 1.7, da0=0.0)
    with pytest.raises(ZeroIntensity):
        g2_zero_temperature(modes, SPEC2)


def test_g2_independent_of_amplitudes():
    a = g2_zero_temperature(modes_at(0.7, 2.2, da0=1e-25), SPEC2)
    b = g2_zero_temperature(modes_at(0.7, 2.2, da0=3.7e-26), SPEC2)
    assert np.allclose(a.g2_matrix, b.g2_matrix, rtol=1e-12)


def test_ring_translation_invariance():
    n = 12
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(n)))
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, 0.9, spectrum=spec), spec)
    for j in range(1, 4):
        column = [corr.g2(i, (i + j) % n) for i in range(n)]
        assert np.max(np.abs(np.array(column) - column[0])) < 1e-10


def test_thermal_matches_vacuum_at_small_eps():
    modes = modes_at(math.pi / 4.0, 1.1, da0=1e-27)
    cold = g2_zero_temperature(modes, SPEC2)
    therm = g2_thermal(modes, SPEC2, 0.0)
    eps2 = float(np.max(modes.eps**2))
    assert np.max(np.abs(therm.g2_matrix - cold.g2_matrix)) < 10.0 * eps2


def test_thermal_occupation_value():
    # without modulation every guide emits the thermal occupation N_T alone
    modes = modes_at(math.pi / 4.0, 1.1, da0=0.0)
    n_t = thermal_occupation(modes.omega_d / 2.0, 0.025)
    assert n_t == pytest.approx(5.1e-5, rel=0.05)
    corr = g2_thermal(modes, SPEC2, 0.025)
    np.testing.assert_allclose(corr.intensities, n_t, rtol=1e-12)


def test_thermal_curves_deform_continuously():
    thetas = np.linspace(0.1, math.pi - 0.1, 40)
    for t_mk in (25.0, 40.0):
        diffs = []
        for theta in thetas:
            modes = modes_at(math.pi / 4.0, float(theta), da0=1e-25)
            cold = g2_zero_temperature(modes, SPEC2)
            warm = g2_thermal(modes, SPEC2, t_mk * 1e-3)
            diffs.append(abs(warm.g2(0, 1) - cold.g2(0, 1)))
        assert 0.0 < max(diffs) < 1.0


def test_thermal_extremes_not_reached():
    for theta in (math.atan(0.25), math.atan(-0.2) + math.pi):
        modes = modes_at(math.pi / 4.0, theta, da0=1e-25)
        warm = g2_thermal(modes, SPEC2, 0.025)
        assert 0.0 < warm.g2(0, 1) < 1.0
        assert 0.0 < warm.g2(0, 0)


def test_max_violation_angle():
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(-0.2)), SPEC2)
    assert cauchy_schwarz_violation(corr, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_noon_angle_violation_is_minus_one():
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert cauchy_schwarz_violation(corr, 0, 1) == pytest.approx(-1.0, abs=1e-12)


def test_balanced_angle_violation_is_zero():
    corr = g2_zero_temperature(modes_at(math.pi / 4.0, math.pi), SPEC2)
    assert cauchy_schwarz_violation(corr, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_asymmetric_pair_rejected():
    spec = eigendecompose(build_laplacian(ArrayTopology.open_chain(3)))
    modes = modes_at(math.pi / 4.0, 0.9, spectrum=spec)
    corr = g2_zero_temperature(modes, spec)
    # end and middle waveguides of an open chain carry different intensity
    with pytest.raises(AsymmetricModes):
        cauchy_schwarz_violation(corr, 0, 1)


SPEC_RING8 = eigendecompose(build_laplacian(ArrayTopology.ring(8)))


@settings(max_examples=40, deadline=None)
@given(
    thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=50),
    temp_mk=st.one_of(st.just(0.0), st.floats(1.0, 60.0)),
    spectrum=st.sampled_from([SPEC2, SPEC_RING8]),
)
def test_batched_correlations_equal_point_ones(thetas, temp_mk, spectrum):
    temp = temp_mk * 1e-3

    def correlations(modes):
        if temp == 0.0:
            return g2_zero_temperature(modes, spectrum)
        return g2_thermal(modes, spectrum, temp)

    batch = correlations(modes_at(0.9, np.array(thetas), spectrum=spectrum))
    g2 = batch.g2_matrix
    for k, theta in enumerate(thetas):
        try:
            point = correlations(modes_at(0.9, theta, spectrum=spectrum))
        except ZeroIntensity as exc:
            assert str(batch.errors[k]) == str(exc)
            continue
        assert k not in batch.errors
        assert np.allclose(batch.intensities[k], point.intensities, rtol=1e-12, atol=0)
        assert np.allclose(g2[k], point.g2_matrix, rtol=1e-12, atol=1e-15)
        assert np.allclose(point.g2_matrix, point.g2_matrix.T, rtol=1e-12, atol=1e-15)
    assert np.allclose(g2, np.swapaxes(g2, 1, 2), rtol=1e-12, atol=1e-15)
    for i in range(spectrum.n):
        for j in range(spectrum.n):
            assert np.allclose(batch.g2(i, j), g2[:, i, j], rtol=1e-12, atol=1e-15)
    if temp == 0.0 and spectrum is SPEC2:
        ok = [k for k in range(len(thetas)) if k not in batch.errors]
        assert np.max(np.abs(g2[ok, 0, 0] + g2[ok, 0, 1] - 1.0), initial=0.0) <= 1e-12


@pytest.mark.parametrize("temp", [None, 0.0], ids=["zero-temperature", "thermal-0K"])
def test_violation_of_a_batch_holds_its_states_error(temp):
    # the silent point of a batch fails its correlation set, so its violation
    # cell holds the set's ZeroIntensity rather than nan
    def correlations(eps):
        modes = dataclasses.replace(modes_at(0.9, 0.4), eps=np.array(eps))
        if temp is None:
            return g2_zero_temperature(modes, SPEC2)
        return g2_thermal(modes, SPEC2, temp)

    corr = correlations([[0.1, 0.2], [0.0, 0.0]])
    assert list(corr.errors) == [1] and isinstance(corr.errors[1], ZeroIntensity)
    cells = cauchy_schwarz_violation(corr, 0, 1)
    point = cauchy_schwarz_violation(correlations([0.1, 0.2]), 0, 1)
    assert cells[0] == pytest.approx(point, rel=1e-12, abs=0.0)
    assert cells[1] is corr.errors[1]
