"""Physical constants used throughout the package (SI units)."""

__all__ = ["HBAR", "K_B", "FLUX_QUANTUM"]

HBAR = 1.054571817e-34          # reduced Planck constant, J*s
K_B = 1.380649e-23              # Boltzmann constant, J/K
FLUX_QUANTUM = 2.067833848e-15  # superconducting flux quantum h/(2e), Wb
