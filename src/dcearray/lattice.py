"""Coupling graph of the waveguide array and its normal-mode decomposition.

The array of waveguides maps onto the Laplacian of a weighted edge list:
open chains hold the unit-weight path graph, rings the cycle graph, and
arbitrary weighted graphs are accepted for defect studies.  Normal modes
of the boundary dynamics are the Laplacian eigenvectors; every downstream
observable is a function of the eigenvalues ``lambda_n`` and the real
orthogonal mode coefficients ``c[n][i]``.  ``analytic_spectrum`` gives
the closed forms of chains and rings, the only arrays the CLI runs, so the
CLI takes every spectrum from it; ``eigendecompose`` diagonalizes any other
graph with LAPACK (``numpy.linalg.eigh``), and each checks the other in the
tests.
"""

from __future__ import annotations

import enum
import math
import numbers
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
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 3):
                raise ValueError(f"edge {edge!r} is not an (i, j, weight) triple")
            i, j, w = edge
            if not isinstance(w, numbers.Real):
                raise ValueError(f"edge {edge!r} has weight {w!r}, which is not a real number")
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
    if np.iscomplexobj(lap):
        raise ValueError("input matrix is complex; only a real symmetric matrix is diagonalized")
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
    """Closed-form Laplacian spectrum for open chains and rings, ascending.

    Open chain: lambda_k = 2 - 2 cos(k pi / N) with cosine eigenvectors.
    Ring: lambda_q = 2 - 2 cos(2 pi q / N) with a cosine/sine pair per
    0 < q < N / 2.  Both cost O(N^2), against O(N^3) for ``eigh``, which
    would also return an arbitrary rotation inside each degenerate ring pair;
    the CLI takes every spectrum from here.  ``eigendecompose`` is the
    independent cross-check of both forms.
    """
    n = topology.n
    i = np.arange(n)
    if topology.kind is TopologyKind.OPEN_CHAIN:
        # row k is cos(k pi (2 i + 1) / 2N), k = 0 the constant mode; formed in
        # place, since (N, N) temporaries nearly double its time at N = 2047
        modes = np.outer(i * math.pi, 2 * i + 1)
        modes /= 2.0 * n
        np.cos(modes, out=modes)
        modes *= math.sqrt(2.0 / n)
        modes[0] = 1.0 / math.sqrt(n)
        lambdas = 2.0 - 2.0 * np.cos(i * math.pi / n)
    elif topology.kind is TopologyKind.RING:
        # row k holds q = (k + 1) // 2: the cosine for odd k, the sine for even k > 0
        q = (i + 1) // 2
        angle = 2.0 * math.pi * i / n
        cos, sin = np.cos(angle), np.sin(angle)
        phase = np.outer(q, i) % n  # q i mod n indexes the tables of 2 pi m / n
        modes = np.empty((n, n))
        modes[0] = 1.0 / math.sqrt(n)
        modes[1::2] = math.sqrt(2.0 / n) * cos[phase[1::2]]
        modes[2::2] = math.sqrt(2.0 / n) * sin[phase[2::2]]
        if n % 2 == 0:  # the alternating mode, q = n / 2
            modes[-1] = (1 - 2 * (i % 2)) / math.sqrt(n)
        lambdas = 2.0 - 2.0 * cos[q]
    else:
        raise UnsupportedTopology("no closed-form spectrum for custom graphs")
    return LaplacianSpectrum(lambdas=lambdas, modes=_fix_signs(modes))
