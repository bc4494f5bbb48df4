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
CorrelationSet that keeps the per-mode weights and forms each g2 entry on
demand, in O(N) per point; M_ij itself comes from pair_amplitude.

Every function takes a drive at one point or at a batch of K points (eps of
shape (K, N)); the values then gain a leading axis of length K.  A point
raises its error; a batch lists the errors of its failed points by index
in ``errors`` (see :mod:`dcearray.errors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drive import ModeResponse, intensities
from .errors import AsymmetricModes, ZeroIntensity, point_errors, with_errors
from .lattice import LaplacianSpectrum
from .quantum_state import _mode_moments, _pair_sum

__all__ = [
    "CorrelationSet",
    "pair_amplitude",
    "g2_zero_temperature",
    "g2_thermal",
    "cauchy_schwarz_violation",
]


@dataclass(frozen=True)
class CorrelationSet:
    """Intensities and normalized second-order correlations of all guide pairs.

    G2_ij = M_ij^2 at T = 0 and G1_i G1_j + N_ij^2 + |M_ij|^2 at T > 0, with
    M_ij and N_ij the pair sums of the per-mode weights ``pair`` and
    ``number``.  In a batch, ``errors`` maps each failed point to its error;
    the values of a failed point are meaningless.
    """

    intensities: np.ndarray      # N_i (thermal G1_i when temperature > 0)
    modes: np.ndarray            # c[n, i] of the spectrum
    pair: np.ndarray             # eps_n at T = 0, Im(u_n v_n) (1 + 2 N_T) at T > 0
    number: np.ndarray | None    # per-mode occupation at T > 0; None at T = 0
    errors: dict = field(default_factory=dict)

    def _g2(self, rows, cols) -> np.ndarray:
        """g2_ij = G2_ij / sqrt(G1_i G1_j) for i in rows and j in cols.

        nan where G1_i G1_j overflows: there the quotient is not a g2.
        """
        g1 = self.intensities
        norm = g1[..., rows, None] * g1[..., None, cols]
        g2 = _pair_sum(self.pair, self.modes, rows, cols) ** 2
        if self.number is not None:
            g2 = g2 + norm + _pair_sum(self.number, self.modes, rows, cols) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):  # failed points
            return np.where(np.isinf(norm), np.nan, g2 / np.sqrt(norm))

    def g2(self, i: int, j: int):
        """g2_ij at the point, or at every point of a batch."""
        return self._g2([i], [j])[..., 0, 0]

    @property
    def g2_matrix(self) -> np.ndarray:
        """g2 of every guide pair, (..., N, N)."""
        guides = np.arange(self.intensities.shape[-1])
        return self._g2(guides, guides)


def pair_amplitude(modes: ModeResponse, spectrum: LaplacianSpectrum) -> np.ndarray:
    """Real symmetric pair-correlator matrix M_ij = sum_n c_n^i c_n^j eps_n."""
    return _pair_sum(modes.eps, spectrum.modes)


def _normalized(g1, spectrum, pair, number=None) -> CorrelationSet:
    """The CorrelationSet of intensities g1; g2 is undefined where one vanishes."""
    errors = point_errors(
        np.any(g1 == 0.0, axis=-1),
        lambda k: ZeroIntensity(
            "some waveguide emits no photons; normalized g2 is undefined"
        ),
    )
    return CorrelationSet(g1, spectrum.modes, pair, number, errors)


def g2_zero_temperature(
    modes: ModeResponse, spectrum: LaplacianSpectrum
) -> CorrelationSet:
    """Leading-order vacuum-input correlations, g2_ij = M_ij^2 / sqrt(N_i N_j)."""
    return _normalized(intensities(modes, spectrum), spectrum, modes.eps)


def g2_thermal(
    modes: ModeResponse, spectrum: LaplacianSpectrum, temperature: float
) -> CorrelationSet:
    """Finite-temperature correlations from the exact Gaussian factorization.

    G2_ij = G1_i G1_j + |<a_i^dag a_j>|^2 + |<a_i a_j>|^2 with the thermal
    second moments of the output state; reduces to the vacuum result plus
    the O(eps^4) Gaussian corrections at T=0.  Normalized by the first
    power of the thermal intensities, g2_ij = G2_ij / sqrt(G1_i G1_j).
    The moments are the pair sums of the per-mode weights of
    :func:`~dcearray.quantum_state.output_gaussian`; the pair weights
    u_n v_n (1 + 2 N_T) are imaginary, so |<a_i a_j>| is the pair sum of
    their imaginary parts.
    """
    occ, pair = _mode_moments(modes, temperature)
    g1 = occ @ spectrum.modes**2
    return _normalized(g1, spectrum, pair.imag, occ)


def cauchy_schwarz_violation(corr: CorrelationSet, i: int, j: int):
    """Signed violation g2_ij - g2_ii of the classical Cauchy-Schwarz bound.

    Defined for symmetric mode pairs only (equal intensities); a positive
    value certifies nonclassical inter-waveguide correlations.  Over a
    batch, a failed point holds its error in its cell: the state's, else
    AsymmetricModes.
    """
    n_i, n_j = corr.intensities[..., i], corr.intensities[..., j]
    scale = np.maximum(abs(n_i), abs(n_j))
    errors = point_errors(
        (scale > 0) & (abs(n_i - n_j) > 1e-9 * scale),
        lambda k: AsymmetricModes(
            f"intensities N_{i}={n_i[k]:.6g} and N_{j}={n_j[k]:.6g} differ beyond "
            "1e-9 relative; the symmetric-pair inequality does not apply"
        ),
    )
    return with_errors(corr.g2(i, j) - corr.g2(i, i), {**errors, **corr.errors})
