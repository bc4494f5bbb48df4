"""Exception hierarchy for the dcearray package, and per-point errors of batches."""

import numpy as np


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


class NonFinite(DceArrayError):
    """A result is inf or nan: the drive is beyond double precision."""


# -- correlations ----------------------------------------------------------

class ZeroIntensity(DceArrayError):
    """Normalized correlations are undefined when an intensity vanishes."""


class AsymmetricModes(DceArrayError):
    """Cauchy-Schwarz test requires a symmetric pair of modes."""


# -- quantum state ---------------------------------------------------------

class NotNormalOrdered(DceArrayError):
    """Wick evaluation expects all daggered operators left of undaggered ones."""


class NotNormalized(DceArrayError):
    """Density matrix trace deviates from one, or a reduced state is not PSD."""


# -- oracle ----------------------------------------------------------------

class CutoffTooSmall(DceArrayError):
    """Fock-space cutoff cannot hold the requested state to tolerance."""


# -- cli / config ----------------------------------------------------------

class ConfigError(DceArrayError):
    """Base class for configuration problems."""


class UnknownKey(ConfigError):
    """Configuration contains a key outside the accepted set."""


class MissingRequired(ConfigError):
    """A required configuration key is absent."""


class RangeError(ConfigError):
    """A configuration value is outside its allowed range."""


# -- batches of points -----------------------------------------------------
# A function evaluated at one point raises its error.  Over a batch of K
# points (a leading axis of its inputs) one failed point must not void the
# others, so the errors travel with the values instead.

def point_errors(failed, error) -> dict:
    """Errors of the failed points of a batch, by point index.

    ``failed`` flags each of K points, or is one flag for a single point,
    whose error is raised instead.  ``error(k)`` builds the error of point
    k (``k = ()`` for a single point).
    """
    if np.ndim(failed) == 0:
        if failed:
            raise error(())
        return {}
    return {k: error(k) for k in np.flatnonzero(failed).tolist()}


def with_errors(values, errors: dict):
    """``values`` of a batch, each failed point holding its error in its cell.

    With errors the result is an object array; without, ``values`` itself.
    """
    if not errors:
        return values
    cells = np.asarray(values).astype(object)
    for k, exc in errors.items():
        cells[k] = exc
    return cells
