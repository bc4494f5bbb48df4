"""Broadband voltage-based observables: scattering, flux density, G1, G2(tau).

The perturbative boundary scattering amplitude of normal mode n is

    S_n(w', w'') = -i (deltaL_n / v) sqrt(w' w'') Theta(w') Theta(w'')

from which follow the photon flux spectral density, the broadband
intensity G1_i, and the time-delayed pair correlator G2_ij(tau) built
from I_n(tau) = int_0^{w_d} sqrt(w (w_d - w)) S_n e^{i w tau} dw.  Every
frequency integral has an elementary closed form, and deltaL_n / v =
2 eps_n / w_d makes each broadband quantity, the flux density included, a
band-centre pair sum of :mod:`dcearray.correlations` times a frequency
factor.  Adaptive quadrature (:func:`pair_integral_quadrature`) is the
tests' reference for the closed forms, not a run-time check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .constants import HBAR
from .correlations import CorrelationSet
from .drive import LineParams, ModeResponse, intensities
from .errors import with_errors
from .lattice import LaplacianSpectrum
from .quantum_state import _pair_sum, thermal_occupation

__all__ = [
    "TAU_GRID",
    "omega_grid",
    "scattering_amplitude",
    "photon_flux_density",
    "g1_broadband",
    "pair_integral",
    "pair_integral_quadrature",
    "g2_broadband",
    "g2_broadband_normalized",
]

# Delays of a time-delay run, in units of omega_d * tau.
TAU_GRID = np.linspace(0.0, 30.0, 512)
TAU_GRID.flags.writeable = False


def omega_grid(omega_d: float) -> np.ndarray:
    """The 2048 interior frequencies omega_d k / 2049 of (0, omega_d)."""
    return omega_d * np.arange(1, 2049) / 2049.0


def scattering_amplitude(
    n: int, omega1: float, omega2: float, modes: ModeResponse
) -> complex:
    """Pair-scattering amplitude S_n(w', w'') of normal mode n."""
    if omega1 <= 0.0 or omega2 <= 0.0:
        return 0.0j
    return -1j * modes.delta_l[..., n] / modes.v * math.sqrt(omega1 * omega2)


def photon_flux_density(
    i: int,
    omega,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    temperature: float = 0.0,
):
    """Photon flux spectral density of the output field of waveguide i.

    n_i(w) = N_T(w) + S_i(w) (1 + N_T(w) + N_T(w_d - w)), the exact moment of
    the pair w, w_d - w squeezed out of a thermal input, with pair weight
    S_i(w) = sum_n (c_n^i)^2 |S_n(w, w_d - w)|^2 = (2 / w_d)^2 N_i w (w_d - w)
    inside the band (0, w_d) and 0 outside it.  At w_d / 2 it is g2_thermal's
    N_T + N_i (1 + 2 N_T).  ``omega`` is a float, or an array of frequencies.
    """
    omega = np.asarray(omega, dtype=float)
    weight = (2.0 / modes.omega_d) ** 2 * float(intensities(modes, spectrum)[..., i])
    inside = (0.0 < omega) & (omega < modes.omega_d)
    pairs = np.where(inside, weight * omega * (modes.omega_d - omega), 0.0)
    background = thermal_occupation(omega, temperature)
    partner = thermal_occupation(modes.omega_d - omega, temperature)
    flux = background + pairs * (1.0 + background + partner)
    return flux if flux.ndim else float(flux)


def g1_broadband(
    i: int, modes: ModeResponse, spectrum: LaplacianSpectrum, line: LineParams
):
    """Broadband voltage intensity (hbar Z0 / 4 pi) sum_n (c_n^i)^2 w_d^4/12 (dL_n/v)^2.

    That is (hbar Z0 / 4 pi) w_d^2 / 3 times the band-centre intensity N_i.
    """
    kappa = HBAR * line.z0 / (4.0 * math.pi)
    return kappa * modes.omega_d**2 / 3.0 * intensities(modes, spectrum)[..., i]


# Taylor coefficients of J / w_d^3 = sum_m (i x)^m / (m! (m + 2) (m + 3)), x = tau w_d,
# highest power first; at |x| < 1 the last term is below 1e-21 of the first.
_SERIES = [1.0 / (math.factorial(m) * (m + 2) * (m + 3)) for m in range(19, -1, -1)]


def _poly_kernel_closed(tau, w_d: float):
    """J(tau) = int_0^{w_d} w (w_d - w) e^{i w tau} dw, elementary antiderivative.

    ``tau`` is a float, or an array that gives J at every delay in it.  The
    Taylor series takes over for |tau| w_d < 1 where the closed form loses
    digits to cancellation.
    """
    tau = np.asarray(tau, dtype=float)
    x = tau * w_d
    series = np.abs(x) < 1.0
    k = 1j * np.where(series, 1.0, tau)  # a placeholder where the series takes over
    e = np.exp(k * w_d)
    kernel = np.array(e * (w_d / k**2 - 2.0 / k**3) + w_d / k**2 + 2.0 / k**3)
    kernel[series] = w_d**3 * np.polyval(_SERIES, 1j * x[series])
    return kernel if kernel.ndim else complex(kernel)


def pair_integral(n: int, tau: float, modes: ModeResponse) -> complex:
    """I_n(tau) = -i (deltaL_n / v) * int_0^{w_d} w (w_d - w) e^{i w tau} dw."""
    return -1j * modes.delta_l[..., n] / modes.v * _poly_kernel_closed(tau, modes.omega_d)


def _poly_kernel_quadrature(tau: float, w_d: float) -> complex:
    """J(tau) by adaptive quadrature; the tests' reference for the closed form."""
    from scipy.integrate import quad

    scale = w_d**3 / 6.0

    def kernel(w: float) -> complex:
        return w * (w_d - w) * cmath.exp(1j * w * tau)

    re, _ = quad(lambda w: kernel(w).real, 0.0, w_d,
                 epsabs=1e-12 * scale, epsrel=1e-12, limit=200)
    im, _ = quad(lambda w: kernel(w).imag, 0.0, w_d,
                 epsabs=1e-12 * scale, epsrel=1e-12, limit=200)
    return complex(re, im)


def pair_integral_quadrature(n: int, tau: float, modes: ModeResponse) -> complex:
    """Adaptive-quadrature evaluation of I_n(tau); the tests' reference."""
    j_tau = _poly_kernel_quadrature(tau, modes.omega_d)
    return -1j * modes.delta_l[..., n] / modes.v * j_tau


def g2_broadband(
    i: int,
    j: int,
    tau,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    line: LineParams,
):
    """Time-delayed broadband pair correlator G2_ij(tau) of the output voltages.

    G2_ij(tau) = (hbar Z0 / 4 pi)^2 |sum_n c_n^i c_n^j I_n(tau)|^2.  Every
    I_n(tau) is -2i (eps_n / w_d) J(tau) with one shared delay kernel J, so
    G2_ij(tau) = (hbar Z0 / 4 pi)^2 (2 |J(tau)| / w_d M_ij)^2 with the
    band-centre pair amplitude M_ij = sum_n c_n^i c_n^j eps_n.  ``tau`` is a
    float, or an array that gives G2_ij at every delay in it.
    """
    kappa = HBAR * line.z0 / (4.0 * math.pi)
    kernel = _poly_kernel_closed(tau, modes.omega_d)
    m_ij = _pair_sum(modes.eps, spectrum.modes, [i], [j])[..., 0, 0]
    return (2.0 * kappa * np.abs(kernel) / modes.omega_d * m_ij) ** 2


def g2_broadband_normalized(corr: CorrelationSet, i: int, j: int):
    """Dimensionless zero-delay broadband correlation G2_ij(0)/sqrt(G1_i G1_j).

    The voltage correlators are expressed in units of the single-photon
    voltage scale at the band centre, i.e. the ratio is divided by
    (hbar Z0 / 4 pi) (w_d / 2)^2, making it dimensionless and free of the
    line.  It equals 4/3 times the band-centre g2_ij at T = 0, so unlike
    that g2 it is not bounded by one (it peaks at 4/3 for two waveguides).
    ``corr`` is the T = 0 set of
    :func:`~dcearray.correlations.g2_zero_temperature`, at a point or over
    a batch; its failed points hold their errors.
    """
    return with_errors(4.0 / 3.0 * corr.g2(i, j), corr.errors)
