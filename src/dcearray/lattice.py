"""Coupling graph of the waveguide array and its normal-mode decomposition.

The array of waveguides maps onto the Laplacian of a weighted edge list:
open chains hold the unit-weight path graph, rings the cycle graph, and
arbitrary weighted graphs are accepted for defect studies.  Normal modes
of the boundary dynamics are the Laplacian eigenvectors; every downstream
observable is a function of the eigenvalues ``lambda_n`` and the real
orthogonal mode coefficients ``c[n][i]``.  ``eigendecompose`` obtains
them from LAPACK (``numpy.linalg.eigh``); ``analytic_spectrum`` gives the
closed forms for chains and rings as an independent cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeWeight,
    NotSymmetric,
    RingTooSmall,
    UnsupportedTopology,
)

__all__ = [
    "TopologyKind",
    "ArrayTopology",
    "LaplacianSpectrum",
    "build_laplacian",
    "eigendecompose",
    "analytic_spectrum",
]


def _waveguides(n) -> int:
    """``n`` itself, if it is an integer (bool is not)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"number of waveguides n={n!r} is not an integer")
    return n


class TopologyKind(enum.Enum):
    OPEN_CHAIN = "open_chain"
    RING = "ring"
    CUSTOM_GRAPH = "custom_graph"


@dataclass(frozen=True)
class ArrayTopology:
    """Coupling layout of the waveguide array.

    ``edges`` holds ``(i, j, weight)`` triples with 0-based node indices, the
    unit-weight path or cycle for chains and rings.  ``kind`` selects only the
    closed form of :func:`analytic_spectrum` and the ring's n >= 3 rule.
    """

    kind: TopologyKind
    n: int
    edges: tuple

    def __post_init__(self):
        if _waveguides(self.n) < 1:
            raise ValueError(f"need at least one waveguide, got n={self.n}")
        if self.kind is TopologyKind.RING and self.n < 3:
            raise RingTooSmall(f"ring topology needs n >= 3, got n={self.n}")
        for i, j, w in self.edges:
            if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
                raise ValueError(f"edge ({i},{j}) has a node index that is not an integer")
            if i == j:
                raise ValueError(f"self-loop on node {i} is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) outside 0..{self.n - 1}")
            if not math.isfinite(w):
                raise ValueError(f"edge ({i},{j}) has weight {w}, which is not finite")
            if w < 0:
                raise NegativeWeight(f"edge ({i},{j}) has weight {w} < 0")

    @classmethod
    def open_chain(cls, n: int) -> "ArrayTopology":
        edges = tuple((i, i + 1, 1.0) for i in range(_waveguides(n) - 1))
        return cls(TopologyKind.OPEN_CHAIN, n, edges)

    @classmethod
    def ring(cls, n: int) -> "ArrayTopology":
        edges = tuple((i, (i + 1) % n, 1.0) for i in range(_waveguides(n)))
        return cls(TopologyKind.RING, n, edges)

    @classmethod
    def custom(cls, n: int, edges) -> "ArrayTopology":
        return cls(TopologyKind.CUSTOM_GRAPH, n, tuple(tuple(e) for e in edges))


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues (ascending) and row-wise orthonormal eigenvectors.

    ``modes[n, i]`` is the coefficient c_n^i of waveguide ``i`` in normal
    mode ``n``.  Signs follow a fixed convention: in each eigenvector the
    entry of largest magnitude is positive (first such index on ties).
    """

    lambdas: np.ndarray
    modes: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas)


def build_laplacian(topology: ArrayTopology) -> np.ndarray:
    """Weighted graph Laplacian of the coupling topology's edges."""
    lap = np.zeros((topology.n, topology.n))
    for i, j, w in topology.edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is positive."""
    lead = modes[np.arange(modes.shape[0]), np.argmax(np.abs(modes), axis=1)]
    return modes * np.where(lead < 0, -1.0, 1.0)[:, None]


def eigendecompose(lap: np.ndarray) -> LaplacianSpectrum:
    """Diagonalize a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come out ascending; ``modes[n]`` is the n-th eigenvector
    with the sign convention of :class:`LaplacianSpectrum`.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.size == 0:
        raise ValueError(f"input matrix has shape {lap.shape}, not a non-empty 2-D array")
    if not np.isfinite(lap).all():
        raise ValueError("input matrix is not finite")
    n = lap.shape[0]
    scale = max(1.0, float(np.abs(lap).max()))
    if lap.shape != (n, n) or np.abs(lap - lap.T).max() > 1e-12 * scale:
        raise NotSymmetric("input matrix is not symmetric within 1e-12")
    lambdas, vecs = np.linalg.eigh(lap)
    return LaplacianSpectrum(lambdas=lambdas, modes=_fix_signs(vecs.T))


def analytic_spectrum(topology: ArrayTopology) -> LaplacianSpectrum:
    """Closed-form Laplacian spectrum for open chains and rings.

    Open chain: lambda_k = 2 - 2 cos(k pi / N) with cosine eigenvectors.
    Ring: lambda_k = 2 - 2 cos(2 pi k / N) with cosine/sine pairs.
    Serves as the independent cross-check for ``eigendecompose``.
    """
    n = topology.n
    if topology.kind is TopologyKind.OPEN_CHAIN:
        lambdas = np.array([2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n)])
        modes = np.zeros((n, n))
        i = np.arange(n)
        for k in range(n):
            if k == 0:
                modes[k] = 1.0 / math.sqrt(n)
            else:
                modes[k] = math.sqrt(2.0 / n) * np.cos(
                    k * math.pi * (2 * i + 1) / (2.0 * n)
                )
        order = np.argsort(lambdas, kind="stable")
    elif topology.kind is TopologyKind.RING:
        i = np.arange(n)
        rows = []
        lams = []
        rows.append(np.full(n, 1.0 / math.sqrt(n)))
        lams.append(0.0)
        for k in range(1, n // 2 + 1):
            lam = 2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)
            if 2 * k == n:  # alternating mode, only for even n
                rows.append(np.array([(-1.0) ** ii for ii in i]) / math.sqrt(n))
                lams.append(lam)
            else:
                rows.append(math.sqrt(2.0 / n) * np.cos(2.0 * math.pi * k * i / n))
                lams.append(lam)
                rows.append(math.sqrt(2.0 / n) * np.sin(2.0 * math.pi * k * i / n))
                lams.append(lam)
        lambdas = np.array(lams)
        modes = np.array(rows)
        order = np.argsort(lambdas, kind="stable")
    else:
        raise UnsupportedTopology("no closed-form spectrum for custom graphs")
    return LaplacianSpectrum(lambdas=lambdas[order], modes=_fix_signs(modes[order]))
