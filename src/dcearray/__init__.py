"""Photon statistics of dynamical-Casimir radiation in waveguide arrays."""

import os

# Before numpy loads: OpenBLAS's pool spin-waits on matrices this small, costing CPU
# for no wall time, and one thread keeps the CSV bytes independent of the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constants import FLUX_QUANTUM, HBAR, K_B
from .correlations import (
    CorrelationSet,
    cauchy_schwarz_violation,
    g2_thermal,
    g2_zero_temperature,
    intensities,
    pair_amplitude,
)
from .drive import (
    DriveParams,
    LineParams,
    ModeResponse,
    calibrate_da0_over_grid,
    mode_response,
)
from .lattice import (
    ArrayTopology,
    LaplacianSpectrum,
    TopologyKind,
    analytic_spectrum,
    build_laplacian,
    eigendecompose,
)
from .quantum_state import (
    GaussianOutputState,
    TruncatedDensityMatrix,
    density_matrix,
    maximally_entangled_fidelity,
    noon_fidelity,
    output_gaussian,
    perturbative_density_matrix,
    perturbative_pure_state,
    thermal_occupation,
    von_neumann_entropy,
    wick_moment,
)
from .spectral import (
    TAU_GRID,
    g1_broadband,
    g2_broadband,
    g2_broadband_normalized,
    omega_grid,
    pair_integral,
    photon_flux_density,
    scattering_amplitude,
)

__version__ = "0.1.0"
