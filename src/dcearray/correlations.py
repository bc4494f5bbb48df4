"""Band-centre photon statistics: intensities, G2, normalized g2, thermal case.

For a vacuum input the emitted intensity and pair correlator at the
degenerate frequency w_d/2 are

    N_i    = sum_n (c_n^i)^2 eps_n^2
    G2_ij  = M_ij^2,   M_ij = sum_n c_n^i c_n^j eps_n
    g2_ij  = G2_ij / sqrt(N_i N_j)

normalized by the first power of the intensities, which keeps g2 in [0, 1]
for states with at most one photon pair.  The finite-temperature variant
factorizes the exact Gaussian output state (see quantum_state) and is
normalized the same way with the thermal G1 in place of N.  Both return a
CorrelationSet holding only what callers read: the intensities, the
normalized g2 matrix and the thermal occupation; M_ij itself comes from
pair_amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import ModeResponse
from .errors import AsymmetricModes, ZeroIntensity
from .lattice import LaplacianSpectrum
from .quantum_state import output_gaussian, thermal_occupation

__all__ = [
    "CorrelationSet",
    "intensities",
    "pair_amplitude",
    "g2_zero_temperature",
    "g2_thermal",
    "cauchy_schwarz_violation",
]


@dataclass(frozen=True)
class CorrelationSet:
    """Intensities and normalized second-order correlations of all guide pairs."""

    intensities: np.ndarray      # N_i (thermal G1_i when temperature > 0)
    g2_matrix: np.ndarray        # g2_ij = G2_ij / sqrt(N_i N_j)
    n_thermal: float             # Bose occupation at omega_d / 2

    def g2(self, i: int, j: int) -> float:
        return float(self.g2_matrix[i, j])


def intensities(modes: ModeResponse, spectrum: LaplacianSpectrum) -> np.ndarray:
    """Mean photon number per band emitted from each waveguide at T=0."""
    weights = spectrum.modes**2  # weights[n, i]
    return weights.T @ modes.eps**2


def pair_amplitude(modes: ModeResponse, spectrum: LaplacianSpectrum) -> np.ndarray:
    """Real symmetric pair-correlator matrix M_ij = sum_n c_n^i c_n^j eps_n."""
    c = spectrum.modes
    return c.T @ np.diag(modes.eps) @ c


def _normalized(g1: np.ndarray, g2_raw: np.ndarray, n_thermal: float) -> CorrelationSet:
    """g2_ij = G2_ij / sqrt(G1_i G1_j), the same normalization at every T."""
    if np.any(g1 == 0.0):
        raise ZeroIntensity(
            "some waveguide emits no photons; normalized g2 is undefined"
        )
    return CorrelationSet(
        intensities=g1,
        g2_matrix=g2_raw / np.sqrt(np.outer(g1, g1)),
        n_thermal=n_thermal,
    )


def g2_zero_temperature(
    modes: ModeResponse, spectrum: LaplacianSpectrum
) -> CorrelationSet:
    """Leading-order vacuum-input correlations, g2_ij = M_ij^2 / sqrt(N_i N_j)."""
    n_i = intensities(modes, spectrum)
    return _normalized(n_i, pair_amplitude(modes, spectrum) ** 2, 0.0)


def g2_thermal(
    modes: ModeResponse, spectrum: LaplacianSpectrum, temperature: float
) -> CorrelationSet:
    """Finite-temperature correlations from the exact Gaussian factorization.

    G2_ij = G1_i G1_j + |<a_i^dag a_j>|^2 + |<a_i a_j>|^2 with the thermal
    second moments of the output state; reduces to the vacuum result plus
    the O(eps^4) Gaussian corrections at T=0.  Normalized by the first
    power of the thermal intensities, g2_ij = G2_ij / sqrt(G1_i G1_j).
    """
    state = output_gaussian(modes, spectrum, temperature)
    g1 = np.real(np.diag(state.number)).copy()
    g2_raw = (
        np.outer(g1, g1)
        + np.abs(state.number) ** 2
        + np.abs(state.anomalous) ** 2
    )
    return _normalized(g1, g2_raw, thermal_occupation(modes.omega_d / 2.0, temperature))


def cauchy_schwarz_violation(corr: CorrelationSet, i: int, j: int) -> float:
    """Signed violation g2_ij - g2_ii of the classical Cauchy-Schwarz bound.

    Defined for symmetric mode pairs only (equal intensities); a positive
    value certifies nonclassical inter-waveguide correlations.
    """
    n_i, n_j = corr.intensities[i], corr.intensities[j]
    scale = max(abs(n_i), abs(n_j))
    if scale > 0 and abs(n_i - n_j) > 1e-9 * scale:
        raise AsymmetricModes(
            f"intensities N_{i}={n_i:.6g} and N_{j}={n_j:.6g} differ beyond "
            "1e-9 relative; the symmetric-pair inequality does not apply"
        )
    return float(corr.g2_matrix[i, j] - corr.g2_matrix[i, i])
