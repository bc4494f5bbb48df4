"""Photon statistics of dynamical-Casimir radiation in waveguide arrays."""

import os

# Before numpy loads: OpenBLAS's pool spin-waits on matrices this small, costing CPU
# for no wall time, and one thread keeps the CSV bytes independent of the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each module's __all__ is the one statement of its public names.
from .constants import *
from .correlations import *
from .drive import *
from .lattice import *
from .quantum_state import *
from .spectral import *

# The star imports bind each submodule here too, so __all__ keeps them and os out.
__all__ = [
    name for module in (constants, correlations, drive, lattice, quantum_state, spectral)
    for name in module.__all__
]
__version__ = "0.1.0"
