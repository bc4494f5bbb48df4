"""Flux drive parameters and the per-mode parametric response.

The terminating and coupling Josephson energies are modulated as

    E_J(t) = A0 sin(phi) + dA0 sin(theta) cos(w_d t)
    F_J(t) = A0 cos(phi) + dA0 cos(theta) cos(w_d t)

so each normal mode n with Laplacian eigenvalue lambda_n sees a static
energy Lambda0_n = A0 (sin phi + lambda_n cos phi), a modulation
dLambda_n = dA0 (sin theta + lambda_n cos theta), and a dimensionless
pair-creation amplitude eps_n = w_d (phi0/2pi)^2 dLambda_n / (2 Z0 Lambda0_n^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import FLUX_QUANTUM
from .errors import NonFinite, NonPositiveModeEnergy, NoResponse
from .lattice import LaplacianSpectrum

__all__ = [
    "DriveParams",
    "LineParams",
    "ModeResponse",
    "intensities",
    "mode_response",
    "calibrate_da0_over_grid",
]

PERTURBATIVE_RATIO = 0.1
# m/s; the phase velocity cancels from every output, as eps_n has no v in it.
PHASE_VELOCITY = 1.2e8


def _finite(name: str, value) -> None:
    """Reject a value or grid entry that is not finite; NaN passes any ``x <= 0``."""
    bad = np.extract(~np.isfinite(value), value)
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


@dataclass(frozen=True)
class DriveParams:
    """Static amplitude, modulation amplitude, mixing angles and drive frequency."""

    a0: float        # J
    da0: float       # J
    phi: float       # rad
    theta: float     # rad; an array of angles gives a grid (mode_response)
    omega_d: float   # rad/s

    def __post_init__(self):
        for name in ("a0", "da0", "phi", "theta", "omega_d"):
            _finite(name, getattr(self, name))
        if self.a0 <= 0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if self.da0 < 0:
            raise ValueError(f"da0 must be non-negative, got {self.da0}")
        if self.omega_d <= 0:
            raise ValueError(f"omega_d must be positive, got {self.omega_d}")
        if self.da0 / self.a0 > PERTURBATIVE_RATIO:
            warnings.warn(
                f"da0/a0 = {self.da0 / self.a0:.3g} exceeds {PERTURBATIVE_RATIO}; "
                "the perturbative treatment assumes da0 << a0",
                stacklevel=3,  # the caller of the dataclass-generated __init__
            )


@dataclass(frozen=True)
class LineParams:
    """Characteristic impedance of each waveguide."""

    z0: float   # ohm

    def __post_init__(self):
        _finite("z0", self.z0)
        if self.z0 <= 0:
            raise ValueError(f"z0 must be positive, got {self.z0}")


@dataclass(frozen=True)
class ModeResponse:
    """Per-mode static energies, modulations and pair amplitudes."""

    lambda0: np.ndarray   # J, shape (N,): independent of theta
    dlambda: np.ndarray   # J, shape (N,) for one angle, (K, N) for K angles
    delta_l: np.ndarray   # m, shaped as dlambda
    eps: np.ndarray       # dimensionless, shaped as dlambda
    omega_d: float        # rad/s
    v: float              # m/s
    # delta_l and v are filled from PHASE_VELOCITY for bench/workloads.py,
    # which builds ModeResponse by keyword; no output reads them.


def intensities(modes: ModeResponse, spectrum: LaplacianSpectrum) -> np.ndarray:
    """Mean photon number N_i = sum_n (c_n^i)^2 eps_n^2 of each waveguide at T=0."""
    return modes.eps**2 @ spectrum.modes**2


def mode_response(
    drive: DriveParams, line: LineParams, spectrum: LaplacianSpectrum
) -> ModeResponse:
    """Response of every normal mode to the drive; drive.theta may be a (K,) array."""
    lam = spectrum.lambdas
    lambda0 = drive.a0 * (math.sin(drive.phi) + lam * math.cos(drive.phi))
    if np.any(lambda0 <= 0):
        bad = int(np.argmin(lambda0))
        raise NonPositiveModeEnergy(
            f"mode {bad} has Lambda0 = {lambda0[bad]:.3g} J <= 0; "
            "unphysical static working point"
        )
    theta = np.asarray(drive.theta, dtype=float)[..., None]  # (K, 1) or (1,)
    dlambda = drive.da0 * (np.sin(theta) + lam * np.cos(theta))
    delta_l = (FLUX_QUANTUM / (2.0 * math.pi)) ** 2 * dlambda / (
        (line.z0 / PHASE_VELOCITY) * lambda0**2
    )
    eps = drive.omega_d / (2.0 * PHASE_VELOCITY) * delta_l
    return ModeResponse(
        lambda0=lambda0,
        dlambda=dlambda,
        delta_l=delta_l,
        eps=eps,
        omega_d=drive.omega_d,
        v=PHASE_VELOCITY,
    )


def calibrate_da0_over_grid(
    drive: DriveParams,
    line: LineParams,
    spectrum: LaplacianSpectrum,
    target_max_occupancy: float,
) -> tuple:
    """The drive whose largest intensity over its theta grid meets the target.

    Mirrors the figure convention of choosing amplitudes once per sweep so
    that max_i <a_i^dag a_i> never exceeds the target at T=0.  The grid is
    ``drive.theta``, one angle or an array of them as in mode_response, at
    the seed da0.  The response is linear in da0, so one evaluation fixes the
    scale and, scaled, is the returned ``(drive, modes)``'s response.
    Lambda0 does not depend on theta, so a working point with a non-positive
    mode energy fails at every grid point and raises NonPositiveModeEnergy.
    A peak that overflows, or one so small that da0 overflows, raises NonFinite.
    """
    if not 0.0 < target_max_occupancy < 1.0:
        raise ValueError("target occupancy must lie in (0, 1)")
    if drive.da0 <= 0:
        raise ValueError("need a positive da0 seed")
    modes = mode_response(drive, line, spectrum)
    peak = float(np.max(intensities(modes, spectrum)))  # max over theta and guide
    if peak == 0.0:
        raise NoResponse("no grid point produces a nonzero response")
    scale = math.sqrt(target_max_occupancy / peak)
    a0, da0, phi, omega_d = drive.a0, drive.da0 * scale, drive.phi, drive.omega_d
    if not 0.0 < da0 < math.inf:
        raise NonFinite(f"peak occupancy {peak:.3g} over the grid gives da0 = {da0:.3g}")
    scaled = {k: getattr(modes, k) * scale for k in ("dlambda", "delta_l", "eps")}
    return (DriveParams(a0=a0, da0=da0, phi=phi, theta=drive.theta, omega_d=omega_d),
            replace(modes, **scaled))
