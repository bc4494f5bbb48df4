"""Brute-force truncated-Fock-space reference for the analytic pipeline.

Each normal mode is prepared as a squeezed thermal state with
sinh(r_n) = eps_n and squeeze phase chosen so that
<b_n b_n> = -i eps_n sqrt(1 + eps_n^2) (1 + 2 N_T), matching the exact
Bogoliubov embedding of quantum_state.  The truncated squeeze operator
exp(-i H), H = (r_n/2)(b_n^2 + b_n^dag^2), comes from the eigenvectors of
the real symmetric H.  Besides the density matrix rho, a state keeps the
exact factor F = (x)_n S_n diag(sqrt(w_n)) with rho = F F^dag, where S_n
is the squeeze and w_n the thermal weights (columns of zero weight are
dropped, nothing else).  Waveguide operators are the orthogonal
combinations a_i = sum_n c_n^i b_n.  :func:`moment` multiplies them as
dense matrices; :func:`normal_moments` and the number states of
:func:`fock_element` and :func:`fock_block` apply them as slice shifts on
the mode axes of F or of a state vector, so the two paths check each
other.  Test oracle only: numpy alone, at most three modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CutoffTooSmall

__all__ = [
    "FockSpace",
    "OracleState",
    "build_state",
    "moment",
    "normal_moments",
    "fock_element",
    "fock_block",
]

MAX_MODES = 3


def _local_dim(n_modes: int, cutoff: int) -> int:
    """Levels per mode, cutoff + 1, of a register the oracle supports."""
    if not 1 <= n_modes <= MAX_MODES:
        raise ValueError(f"oracle supports 1..{MAX_MODES} modes")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return cutoff + 1


class FockSpace:
    """Dense ladder operators for a small register of truncated modes."""

    def __init__(self, n_modes: int, cutoff: int = 8):
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.local_dim = _local_dim(n_modes, cutoff)
        self.dim = self.local_dim**n_modes

        a = np.diag(np.sqrt(np.arange(1, self.local_dim)), k=1)
        eye = np.eye(self.local_dim)
        self.lower = []
        for m in range(n_modes):
            factors = [a if k == m else eye for k in range(n_modes)]
            op = factors[0]
            for f in factors[1:]:
                op = np.kron(op, f)
            self.lower.append(op)

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim)
        vec[0] = 1.0
        return vec


@dataclass
class OracleState:
    """Density matrix in the normal-mode basis plus waveguide operators."""

    space: FockSpace
    rho: np.ndarray
    a_ops: list  # waveguide annihilation operators a_i = sum_n c_n^i b_n
    c_matrix: np.ndarray  # c_matrix[n, i] = c_n^i
    factor: np.ndarray  # F with rho = F F^dag, one column per kept Fock product


# Factor columns per pass of normal_moments.  It bounds the memory of the
# operator products held at once: 35 products of dim x 64 complex numbers
# for three modes up to total 4.
_BLOCK = 64


def _thermal_weights(local_dim: int, n_thermal: float, deficit_tol: float):
    levels = np.arange(local_dim)
    if n_thermal == 0.0:
        return (levels == 0).astype(float)
    ratio = n_thermal / (1.0 + n_thermal)
    weights = ratio**levels / (1.0 + n_thermal)
    deficit = ratio ** local_dim
    if deficit > deficit_tol:
        raise CutoffTooSmall(
            f"thermal trace deficit {deficit:.3g} exceeds {deficit_tol:g}"
        )
    return weights


def _squeeze(r: float, local_dim: int) -> np.ndarray:
    """exp(-i H) with H = (r/2)(b^2 + b^dag^2) on one truncated mode.

    H is real symmetric, so exp(-i H) = V diag(e^{-i lambda}) V^T from
    its eigendecomposition H = V diag(lambda) V^T.
    """
    lower = np.diag(np.sqrt(np.arange(1, local_dim)), k=1)
    pair = lower @ lower
    lam, vec = np.linalg.eigh(0.5 * r * (pair + pair.T))
    return (vec * np.exp(-1j * lam)) @ vec.T


def build_state(
    eps,
    c_matrix,
    n_thermal: float = 0.0,
    cutoff: int = 8,
    deficit_tol: float = 1e-10,
) -> OracleState:
    """Squeezed thermal state of the normal modes, viewed through c_matrix.

    ``eps`` holds the per-mode pair amplitudes (sinh of the squeeze
    parameter, sign included); ``c_matrix[n, i]`` the orthogonal mode
    coefficients.  Raises CutoffTooSmall when the truncated register cannot
    represent the state to ``deficit_tol`` (checked via the thermal trace
    deficit and the top-level occupancy after squeezing).
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    c_matrix = np.asarray(c_matrix, dtype=float)
    n_modes = len(eps)
    local_dim = _local_dim(n_modes, cutoff)

    # Both checks need one mode's levels only, so a too-small cutoff is
    # rejected before FockSpace builds its dense register ladders.
    weights = _thermal_weights(local_dim, n_thermal, deficit_tol)
    kept = weights > 0.0
    rho = factor = None
    for e in eps:
        r = math.asinh(float(e))
        squeeze = _squeeze(r, local_dim) if r else np.eye(local_dim)
        rho_n = (squeeze * weights) @ squeeze.conj().T
        top = float(np.real(rho_n[-1, -1]))
        if top > deficit_tol:
            raise CutoffTooSmall(
                f"top Fock level holds {top:.3g} > {deficit_tol:g} after squeezing"
            )
        factor_n = squeeze[:, kept] * np.sqrt(weights[kept])
        rho = rho_n if rho is None else np.kron(rho, rho_n)
        factor = factor_n if factor is None else np.kron(factor, factor_n)

    space = FockSpace(n_modes, cutoff)
    a_ops = []
    for i in range(n_modes):
        op = sum(c_matrix[n, i] * space.lower[n] for n in range(n_modes))
        a_ops.append(op)
    return OracleState(
        space=space, rho=rho, a_ops=a_ops, c_matrix=c_matrix, factor=factor
    )


def moment(state: OracleState, word) -> complex:
    """<word> by direct matrix algebra, operators applied in the given order."""
    op = None
    for mode, is_dag in word:
        mat = state.a_ops[mode]
        mat = mat.conj().T if is_dag else mat
        op = mat if op is None else op @ mat
    if op is None:
        return complex(np.trace(state.rho))
    # Tr[rho op] without forming the product matrix
    return complex(np.sum(state.rho * op.T))


def _ladder(x: np.ndarray, coeffs, dagger: bool = False) -> np.ndarray:
    """a = sum_n coeffs[n] b_n, or a^dag, applied along the leading mode axes of x.

    Each b_n is a slice shift on mode axis n, (b_n x)[k - 1] = sqrt(k) x[k]
    and (b_n^dag x)[k] = sqrt(k) x[k - 1]: the truncated ladders of
    FockSpace.  Trailing axes (columns of F) ride along.
    """
    out = None
    root = np.sqrt(np.arange(1.0, x.shape[0]))
    for n, c in enumerate(coeffs):
        if c != 0.0:
            scale = (c * root).reshape((-1,) + (1,) * (x.ndim - n - 1))
            axis = (slice(None),) * n
            upper = axis + (slice(1, None),)
            lower = axis + (slice(None, -1),)
            src, dst, edge = (lower, upper, 0) if dagger else (upper, lower, -1)
            if out is None:  # the first term fills out without a zero pass
                out = np.empty_like(x)
                np.multiply(scale, x[src], out=out[dst])
                out[axis + (edge,)] = 0.0
            else:
                out[dst] += scale * x[src]
    return np.zeros_like(x) if out is None else out


def _lowering_products(x: np.ndarray, c_matrix, max_total: int) -> dict:
    """B_m x = prod_i a_i^m_i x for every multi-index m with |m| <= max_total.

    Each product grows from one with a lower total by one ladder shift.
    """
    n_modes = c_matrix.shape[1]
    products = {(0,) * n_modes: x}
    for total in range(1, max_total + 1):
        for index in [m for m in products if sum(m) == total - 1]:
            for i in range(n_modes):
                grown = index[:i] + (index[i] + 1,) + index[i + 1:]
                if grown not in products:
                    products[grown] = _ladder(products[index], c_matrix[:, i])
    return products


def normal_moments(state: OracleState, totals=(2, 4)) -> dict:
    """All normally ordered moments with total operator count in ``totals``.

    Returns ``{(dag_counts, low_counts): value}`` where the keys hold one
    creation and one annihilation count per waveguide and the value is
    <prod_i a_i^dag^d_i prod_i a_i^k_i> = vdot(B_dag F, B_low F) with
    B_m = prod_i a_i^m_i.  F is taken a fixed number of columns at a time,
    so one pass serves all words in bounded memory, much cheaper than
    calling :func:`moment` word by word.
    """
    shape = (state.space.local_dim,) * state.space.n_modes
    out = {}
    for start in range(0, state.factor.shape[1], _BLOCK):
        block = state.factor[:, start:start + _BLOCK].reshape(shape + (-1,))
        products = _lowering_products(block, state.c_matrix, max(totals))
        keys = list(products)
        for k, low in enumerate(keys):
            for dag in keys[k:]:
                if sum(dag) + sum(low) in totals:
                    value = np.vdot(products[dag], products[low])
                    out[dag, low] = out.get((dag, low), 0j) + value
                    if dag != low:  # <B_low^dag B_dag> = conj <B_dag^dag B_low>
                        out[low, dag] = out.get((low, dag), 0j) + value.conjugate()
    return {word: complex(value) for word, value in out.items()}


def _number_vector(state: OracleState, counts) -> np.ndarray:
    """prod_i (a_i^dag)^n_i / sqrt(n_i!) |0> for photon numbers ``counts``."""
    shape = (state.space.local_dim,) * state.space.n_modes
    vec = state.space.vacuum().reshape(shape)
    for mode, count in enumerate(counts):
        for _ in range(count):
            vec = _ladder(vec, state.c_matrix[:, mode], dagger=True)
        vec = vec / math.sqrt(math.factorial(count))
    return vec.reshape(-1)


def fock_element(state: OracleState, bra, ket) -> complex:
    """<bra| rho |ket> with bra/ket photon-number tuples in the waveguide basis."""
    left = _number_vector(state, bra)
    right = _number_vector(state, ket)
    return complex(left.conj() @ state.rho @ right)


def fock_block(state: OracleState, levels: int = 3) -> np.ndarray:
    """Matrix <bra| rho |ket> over all waveguide number states below ``levels``.

    Rows and columns run over the tuples (n_1, .., n_N) with each n_i in
    range(levels), in lexicographic order, so for two waveguides the result
    is the 9x9 two-qutrit block.  The number vectors are built once and
    reused, unlike repeated calls to :func:`fock_element`.
    """
    counts = product(range(levels), repeat=state.space.n_modes)
    basis = np.array([_number_vector(state, ns) for ns in counts]).T
    return basis.conj().T @ state.rho @ basis
