"""Broadband voltage-based observables: scattering, flux density, G1, G2(tau).

The perturbative boundary scattering amplitude of normal mode n is

    S_n(w', w'') = -i (deltaL_n / v) sqrt(w' w'') Theta(w') Theta(w'')

from which follow the photon flux spectral density, the broadband
intensity G1_i, and the time-delayed pair correlator G2_ij(tau) built
from I_n(tau) = int_0^{w_d} sqrt(w (w_d - w)) S_n e^{i w tau} dw.  Every
frequency integral has an elementary closed form; adaptive quadrature
cross-checks guard against algebra slips.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR
from .drive import LineParams, ModeResponse
from .errors import QuadratureDisagreement, ZeroIntensity
from .lattice import LaplacianSpectrum
from .quantum_state import thermal_occupation

__all__ = [
    "SpectralConfig",
    "scattering_amplitude",
    "photon_flux_density",
    "g1_broadband",
    "pair_integral",
    "pair_integral_quadrature",
    "g2_broadband",
    "g2_broadband_normalized",
]


@dataclass(frozen=True)
class SpectralConfig:
    """Frequency and delay grids for broadband sweeps."""

    omega_d: float
    line: LineParams
    resolution: int = 2048
    tau_grid: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 30.0, 512)
    )  # in units of omega_d * tau

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("frequency grid resolution must be >= 16")

    def omega_grid(self) -> np.ndarray:
        """Interior frequency grid over (0, omega_d), endpoints excluded."""
        k = np.arange(1, self.resolution + 1)
        return self.omega_d * k / (self.resolution + 1.0)


def scattering_amplitude(
    n: int, omega1: float, omega2: float, modes: ModeResponse
) -> complex:
    """Pair-scattering amplitude S_n(w', w'') of normal mode n."""
    if omega1 <= 0.0 or omega2 <= 0.0:
        return 0.0j
    return -1j * modes.delta_l[n] / modes.v * math.sqrt(omega1 * omega2)


def photon_flux_density(
    i: int,
    omega,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    temperature: float = 0.0,
):
    """Photon flux spectral density of the output field of waveguide i.

    T=0: n_i(w) = sum_n (c_n^i)^2 |S_n(w, w_d - w)|^2
    = w (w_d - w) sum_n (c_n^i)^2 (deltaL_n / v)^2.  At finite temperature
    the reflected thermal background N_T(w) adds, and the parametric term
    is stimulated by (1 + N_T(w_d - w)).  ``omega`` is a float, or an array
    that gives the density at every frequency in it.
    """
    omega = np.asarray(omega, dtype=float)
    weight = float(spectrum.modes[:, i] ** 2 @ (modes.delta_l / modes.v) ** 2)
    inside = (0.0 < omega) & (omega < modes.omega_d)
    flux = np.where(inside, weight * omega * (modes.omega_d - omega), 0.0)
    if temperature != 0.0:
        background = thermal_occupation(omega, temperature)
        stimulated = 1.0 + thermal_occupation(modes.omega_d - omega, temperature)
        flux = background + flux * stimulated
    return flux if flux.ndim else float(flux)


def g1_broadband(
    i: int,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    line: LineParams,
    check: bool = False,
) -> float:
    """Broadband voltage intensity (hbar Z0 / 4 pi) sum_n (c_n^i)^2 w_d^4/12 (dL_n/v)^2."""
    weights = spectrum.modes[:, i] ** 2
    ratios = (modes.delta_l / modes.v) ** 2
    closed = (
        HBAR * line.z0 / (4.0 * math.pi)
        * modes.omega_d**4 / 12.0
        * float(weights @ ratios)
    )
    if check:
        from scipy.integrate import quad

        w_d = modes.omega_d
        integral, _ = quad(lambda w: w * w * (w_d - w), 0.0, w_d)
        numeric = (
            HBAR * line.z0 / (4.0 * math.pi) * float(weights @ ratios) * integral
        )
        if closed != 0.0 and abs(numeric - closed) > 1e-9 * abs(closed):
            raise QuadratureDisagreement(
                f"G1 closed form {closed:.12g} vs quadrature {numeric:.12g}"
            )
    return closed


def _poly_kernel_series(x: float, w_d: float) -> complex:
    """J at x = tau w_d by its power series, for |x| < 1."""
    total = 0.0j
    term_power = 1.0 + 0.0j
    for m in range(40):
        contrib = term_power * w_d**3 / ((m + 2.0) * (m + 3.0))
        total += contrib
        if abs(contrib) < 1e-18 * abs(total) and m > 4:
            break
        term_power *= 1j * x / (m + 1.0)
    return total


def _poly_kernel_closed(tau, w_d: float):
    """J(tau) = int_0^{w_d} w (w_d - w) e^{i w tau} dw, elementary antiderivative.

    ``tau`` is a float, or an array that gives J at every delay in it.  A
    power series takes over for |tau| w_d < 1 where the closed form loses
    digits to cancellation.
    """
    tau = np.asarray(tau, dtype=float)
    x = tau * w_d
    series = np.abs(x) < 1.0
    k = 1j * np.where(series, 1.0, tau)  # a placeholder where the series takes over
    e = np.exp(k * w_d)
    kernel = np.array(e * (w_d / k**2 - 2.0 / k**3) + w_d / k**2 + 2.0 / k**3)
    kernel[series] = [_poly_kernel_series(v, w_d) for v in x[series].tolist()]
    return kernel if kernel.ndim else complex(kernel)


def pair_integral(n: int, tau: float, modes: ModeResponse) -> complex:
    """I_n(tau) = -i (deltaL_n / v) * int_0^{w_d} w (w_d - w) e^{i w tau} dw."""
    return -1j * modes.delta_l[n] / modes.v * _poly_kernel_closed(tau, modes.omega_d)


def _poly_kernel_quadrature(tau: float, w_d: float) -> complex:
    """J(tau) by adaptive quadrature; the independent cross-check."""
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
    """Adaptive-quadrature evaluation of I_n(tau); the independent cross-check."""
    j_tau = _poly_kernel_quadrature(tau, modes.omega_d)
    return -1j * modes.delta_l[n] / modes.v * j_tau


def g2_broadband(
    i: int,
    j: int,
    tau,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    line: LineParams,
    check: bool = True,
):
    """Time-delayed broadband pair correlator G2_ij(tau) of the output voltages.

    G2_ij(tau) = (hbar Z0 / 4 pi)^2 |sum_n c_n^i c_n^j I_n(tau)|^2.  Every
    I_n(tau) is -i (deltaL_n / v) J(tau) with one shared delay kernel J, so
    G2_ij(tau) = (hbar Z0 / 4 pi)^2 (|J(tau)| / v sum_n c_n^i c_n^j deltaL_n)^2.
    ``tau`` is a float, or an array that gives G2_ij at every delay in it.
    With ``check`` the closed-form J is validated against adaptive quadrature
    to 1e-9 relative, one delay at a time.
    """
    c = spectrum.modes
    kappa = HBAR * line.z0 / (4.0 * math.pi)
    kernel = _poly_kernel_closed(tau, modes.omega_d)
    if check and np.any(modes.delta_l != 0.0):
        for t, closed in zip(np.ravel(tau).tolist(), np.ravel(kernel).tolist()):
            ref = _poly_kernel_quadrature(t, modes.omega_d)
            scale = max(abs(closed), abs(ref))
            if scale > 0 and abs(closed - ref) > 1e-9 * scale:
                raise QuadratureDisagreement(
                    f"J({t:g}) closed form {closed} vs quadrature {ref}"
                )
    weight = float((c[:, i] * c[:, j]) @ modes.delta_l)
    return (kappa * abs(kernel) / modes.v * weight) ** 2


def g2_broadband_normalized(
    i: int,
    j: int,
    modes: ModeResponse,
    spectrum: LaplacianSpectrum,
    line: LineParams,
) -> float:
    """Dimensionless zero-delay broadband correlation G2_ij(0)/sqrt(G1_i G1_j).

    The voltage correlators are expressed in units of the single-photon
    voltage scale at the band centre, i.e. the ratio is divided by
    (hbar Z0 / 4 pi) (w_d / 2)^2, making it dimensionless.  Unlike the
    single-frequency g2 it is not bounded by one (it peaks at 4/3 for two
    waveguides).
    """
    g1_i = g1_broadband(i, modes, spectrum, line)
    g1_j = g1_broadband(j, modes, spectrum, line)
    if g1_i <= 0.0 or g1_j <= 0.0:
        raise ZeroIntensity("broadband intensity vanishes; g2 undefined")
    g2 = g2_broadband(i, j, 0.0, modes, spectrum, line, check=False)
    photon_scale = HBAR * line.z0 / (4.0 * math.pi) * (modes.omega_d / 2.0) ** 2
    return g2 / math.sqrt(g1_i * g1_j) / photon_scale
