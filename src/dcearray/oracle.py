"""Brute-force truncated-Fock-space reference for the analytic pipeline.

Each normal mode is prepared as a squeezed thermal state with
sinh(r_n) = eps_n and squeeze phase chosen so that
<b_n b_n> = -i eps_n sqrt(1 + eps_n^2) (1 + 2 N_T), matching the exact
Bogoliubov embedding of quantum_state.  Waveguide operators are the
orthogonal combinations a_i = sum_n c_n^i b_n, built as dense matrices so
arbitrary moments and Fock-basis matrix elements reduce to linear algebra.
Test oracle only: dense matrices, at most three modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse
from scipy.linalg import expm

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


class FockSpace:
    """Dense ladder operators for a small register of truncated modes."""

    def __init__(self, n_modes: int, cutoff: int = 8):
        if not 1 <= n_modes <= MAX_MODES:
            raise ValueError(f"oracle supports 1..{MAX_MODES} modes")
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.local_dim = cutoff + 1
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


def _thermal_single(space: FockSpace, n_thermal: float, deficit_tol: float):
    levels = np.arange(space.local_dim)
    if n_thermal == 0.0:
        weights = np.zeros(space.local_dim)
        weights[0] = 1.0
        return np.diag(weights)
    ratio = n_thermal / (1.0 + n_thermal)
    weights = ratio**levels / (1.0 + n_thermal)
    deficit = ratio ** space.local_dim
    if deficit > deficit_tol:
        raise CutoffTooSmall(
            f"thermal trace deficit {deficit:.3g} exceeds {deficit_tol:g}"
        )
    return np.diag(weights)


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
    space = FockSpace(n_modes, cutoff)

    single_a = np.diag(np.sqrt(np.arange(1, space.local_dim)), k=1)
    rho = None
    for e in eps:
        rho_n = _thermal_single(space, n_thermal, deficit_tol)
        r = math.asinh(float(e))
        if r != 0.0:
            gen = -0.5j * r * (single_a @ single_a + single_a.T @ single_a.T)
            squeeze = expm(gen)
            rho_n = squeeze @ rho_n @ squeeze.conj().T
        top = float(np.real(rho_n[-1, -1]))
        if top > deficit_tol:
            raise CutoffTooSmall(
                f"top Fock level holds {top:.3g} > {deficit_tol:g} after squeezing"
            )
        rho = rho_n if rho is None else np.kron(rho, rho_n)

    a_ops = []
    for i in range(n_modes):
        op = sum(c_matrix[n, i] * space.lower[n] for n in range(n_modes))
        a_ops.append(op)
    return OracleState(space=space, rho=rho, a_ops=a_ops)


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


def _lowering_products(state: OracleState, max_total: int):
    """Products prod_i a_i^{m_i} for every multi-index with |m| <= max_total.

    Every a_i is banded, so the products are built and returned as sparse
    CSR matrices; a dense product would cost dim^3 per multiplication.
    """
    n_modes = state.space.n_modes
    lower = [sparse.csr_matrix(op) for op in state.a_ops]
    products = {
        (0,) * n_modes: sparse.identity(state.space.dim, dtype=complex, format="csr")
    }
    for total in range(1, max_total + 1):
        for index in products.copy():
            if sum(index) != total - 1:
                continue
            for i in range(n_modes):
                grown = list(index)
                grown[i] += 1
                grown = tuple(grown)
                if grown not in products:
                    products[grown] = products[index] @ lower[i]
    return products


def normal_moments(state: OracleState, totals=(2, 4)) -> dict:
    """All normally ordered moments with total operator count in ``totals``.

    Returns ``{(dag_counts, low_counts): value}`` where the keys hold one
    creation and one annihilation count per waveguide and the value is
    <prod_i a_i^dag^d_i prod_i a_i^k_i>.  One pass shares the operator
    products between all words, which is much cheaper than calling
    :func:`moment` word by word.  Each dense product B_low rho is consumed
    against every creation product before the next one is formed, so only
    one dim x dim product is held at a time.
    """
    products = _lowering_products(state, max(totals))
    conj = {k: op.conj() for k, op in products.items()}
    out = {}
    for low, b_low in products.items():
        c_low = b_low @ state.rho
        for dag, b_dag_conj in conj.items():
            if sum(dag) + sum(low) in totals:
                # Tr[rho B_dag^H B_low] = sum_ij (B_low rho)_ij conj(B_dag)_ij
                out[(dag, low)] = complex(b_dag_conj.multiply(c_low).sum())
    return out


def _number_vector(state: OracleState, counts) -> np.ndarray:
    """prod_i (a_i^dag)^n_i / sqrt(n_i!) |0> for photon numbers ``counts``."""
    vec = state.space.vacuum().astype(complex)
    for mode, count in enumerate(counts):
        create = state.a_ops[mode].conj().T
        for _ in range(count):
            vec = create @ vec
        vec /= math.sqrt(math.factorial(count))
    return vec


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
