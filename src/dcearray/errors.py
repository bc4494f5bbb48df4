"""Exception hierarchy for the dcearray package."""


class DceArrayError(Exception):
    """Base class for all package-specific errors."""


# -- lattice ---------------------------------------------------------------

class RingTooSmall(DceArrayError):
    """Ring topology needs at least three waveguides."""


class NegativeWeight(DceArrayError):
    """Coupling-graph edge weights must be non-negative."""


class NotSymmetric(DceArrayError):
    """Eigensolver input matrix is not symmetric."""


class UnsupportedTopology(DceArrayError):
    """Closed-form spectrum exists only for open chains and rings."""


# -- drive -----------------------------------------------------------------

class NonPositiveModeEnergy(DceArrayError):
    """Some static mode energy sin(phi) + lambda*cos(phi) is not positive."""


class NoResponse(DceArrayError):
    """All length modulations vanish; amplitude calibration has no solution."""


# -- correlations ----------------------------------------------------------

class ZeroIntensity(DceArrayError):
    """Normalized correlations are undefined when an intensity vanishes."""


class AsymmetricModes(DceArrayError):
    """Cauchy-Schwarz test requires a symmetric pair of modes."""


# -- quantum state ---------------------------------------------------------

class NotNormalOrdered(DceArrayError):
    """Wick evaluation expects all daggered operators left of undaggered ones."""


class NotNormalized(DceArrayError):
    """Density matrix trace deviates from one."""


# -- oracle ----------------------------------------------------------------

class CutoffTooSmall(DceArrayError):
    """Fock-space cutoff cannot hold the requested state to tolerance."""


# -- spectral --------------------------------------------------------------

class QuadratureDisagreement(DceArrayError):
    """Closed-form and quadrature values of a spectral integral disagree."""


# -- cli / config ----------------------------------------------------------

class ConfigError(DceArrayError):
    """Base class for configuration problems."""


class UnknownKey(ConfigError):
    """Configuration contains a key outside the accepted set."""


class MissingRequired(ConfigError):
    """A required configuration key is absent."""


class RangeError(ConfigError):
    """A configuration value is outside its allowed range."""
