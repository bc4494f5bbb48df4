"""Brute-force truncated-Fock-space reference for the analytic pipeline.

Each normal mode is prepared as a squeezed thermal state with
sinh(r_n) = eps_n and squeeze phase chosen so that
<b_n b_n> = -i eps_n sqrt(1 + eps_n^2) (1 + 2 N_T), matching the exact
Bogoliubov embedding of quantum_state.  The truncated squeeze operator
exp(-i H), H = (r_n/2)(b_n^2 + b_n^dag^2), comes from the eigenvectors of
the real symmetric H.  The state is a product over modes, and a state
keeps each mode's density matrix rho_n = S_n diag(w_n) S_n^dag and its
exact factor F_n = S_n diag(sqrt(w_n)), rho_n = F_n F_n^dag, where S_n is
the squeeze and w_n the thermal weights (columns of zero weight are
dropped, nothing else).  Waveguide operators are the orthogonal
combinations a_i = sum_n c_n^i b_n.

Two paths check each other:

* per mode, on each mode's own cutoff + 1 levels: :func:`normal_moments`
  and :func:`fock_block`, which ``oracle-check`` uses.  Truncated ladders
  of different modes commute, so a product of a_i (or of a_i^dag on the
  vacuum) expands exactly as sum_p C[p] prod_n b_n^p_n with real
  coefficients C, and each value is C (x)_n T_n C^T for small tables T_n;
* dense, on the whole local_dim^n register: :func:`moment` and
  :func:`fock_element` multiply the waveguide matrices ``a_ops`` and the
  density matrix ``rho``, which a state builds only on first use.  It is
  the independent check of the other path, for the tests and the bench.

The coefficients C depend on the mode basis alone, not on the squeezing or
the temperature, so the per-mode path expands each basis once: a small memo
keeps the read-only C of the last few (basis, words, power) keys, and
states that share a basis (every draw of one array) share them.

Numpy alone, at most three modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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


def _lowering(local_dim: int) -> np.ndarray:
    """The truncated annihilation operator b of one mode."""
    return np.diag(np.sqrt(np.arange(1, local_dim)), k=1)


class FockSpace:
    """A small register of truncated modes."""

    def __init__(self, n_modes: int, cutoff: int = 8):
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.local_dim = _local_dim(n_modes, cutoff)
        self.dim = self.local_dim**n_modes

    @cached_property
    def lower(self) -> list:
        """Dense dim x dim ladder b_n of each mode on the whole register."""
        a = _lowering(self.local_dim)
        eye = np.eye(self.local_dim)
        return [
            reduce(np.kron, [a if k == m else eye for k in range(self.n_modes)])
            for m in range(self.n_modes)
        ]

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim)
        vec[0] = 1.0
        return vec


@dataclass
class OracleState:
    """Product state of the normal modes plus waveguide operators."""

    space: FockSpace
    c_matrix: np.ndarray  # c_matrix[n, i] = c_n^i
    mode_rhos: list  # rho_n of each mode on its local_dim levels
    factors: list  # F_n with rho_n = F_n F_n^dag, one column per kept level

    @cached_property
    def rho(self) -> np.ndarray:
        """Dense density matrix (x)_n rho_n of the whole register."""
        return reduce(np.kron, self.mode_rhos)

    @cached_property
    def a_ops(self) -> list:
        """Dense waveguide annihilation operators a_i = sum_n c_n^i b_n."""
        n_modes = self.space.n_modes
        return [
            sum(self.c_matrix[n, i] * self.space.lower[n] for n in range(n_modes))
            for i in range(n_modes)
        ]


def _thermal_weights(local_dim: int, n_thermal: float, deficit_tol: float):
    levels = np.arange(local_dim)
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
    lower = _lowering(local_dim)
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
    # rejected before any register is set up.
    weights = _thermal_weights(local_dim, n_thermal, deficit_tol)
    kept = weights > 0.0
    mode_rhos, factors = [], []
    for e in eps:
        r = math.asinh(float(e))
        squeeze = _squeeze(r, local_dim) if r else np.eye(local_dim)
        rho_n = (squeeze * weights) @ squeeze.conj().T
        top = float(np.real(rho_n[-1, -1]))
        if top > deficit_tol:
            raise CutoffTooSmall(
                f"top Fock level holds {top:.3g} > {deficit_tol:g} after squeezing"
            )
        mode_rhos.append(rho_n)
        factors.append(squeeze[:, kept] * np.sqrt(weights[kept]))
    return OracleState(
        space=FockSpace(n_modes, cutoff),
        c_matrix=c_matrix,
        mode_rhos=mode_rhos,
        factors=factors,
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


def _expansion(c_matrix: np.ndarray, words, power: int) -> np.ndarray:
    """Rows C[w] with prod_i a_i^w_i = sum_p C[w, p] prod_n b_n^p_n.

    p runs over the per-mode powers 0..power of every mode, flattened in
    C order as np.kron orders the per-mode tables.  The rows depend on the
    basis, the words and the power only, so they come from a memo of the
    last few bases and are read-only.
    """
    c_matrix = np.asarray(c_matrix, dtype=float)
    return _expand(c_matrix.tobytes(), c_matrix.shape, tuple(words), power)


@lru_cache(maxsize=8)
def _expand(c_bytes: bytes, shape: tuple, words: tuple, power: int) -> np.ndarray:
    """_expansion of the basis with raw bytes ``c_bytes``, built once per key.

    A word grows from a shorter one by one factor a_i = sum_n c_n^i b_n,
    which raises p_n by one with weight c_n^i; no power exceeds the word's
    total <= power.
    """
    c_matrix = np.frombuffer(c_bytes).reshape(shape)
    n_modes = shape[0]
    vacuum = np.zeros((power + 1,) * n_modes)
    vacuum[(0,) * n_modes] = 1.0
    rows = {(0,) * n_modes: vacuum}

    def row(word):
        if word not in rows:
            i = next(i for i, k in enumerate(word) if k)
            shorter = row(word[:i] + (word[i] - 1,) + word[i + 1:])
            grown = np.zeros_like(shorter)
            for n in range(n_modes):
                axis = (slice(None),) * n
                grown[axis + (slice(1, None),)] += (
                    c_matrix[n, i] * shorter[axis + (slice(None, -1),)]
                )
            rows[word] = grown
        return rows[word]

    coeffs = np.array([row(word).reshape(-1) for word in words])
    coeffs.flags.writeable = False
    return coeffs


def _moment_table(factor: np.ndarray, power: int) -> np.ndarray:
    """G[p, q] = vdot(b^p F, b^q F) = Tr[rho_n b^dag^p b^q] for p, q <= power."""
    lower = _lowering(len(factor))
    shifted = [factor]
    for _ in range(power):
        shifted.append(lower @ shifted[-1])
    flat = np.array(shifted).reshape(power + 1, -1)
    return flat.conj() @ flat.T


def _number_table(rho_n: np.ndarray, power: int) -> np.ndarray:
    """R[p, q] = sqrt(p! q!) rho_n[p, q] for p, q <= power, zero above the cutoff.

    (b^dag)^p |0> = sqrt(p!) |p> on the truncated levels, and 0 once p
    passes the top level.
    """
    out = np.zeros((power + 1, power + 1), dtype=rho_n.dtype)
    size = min(power + 1, len(rho_n))
    root = np.sqrt([float(math.factorial(p)) for p in range(size)])
    out[:size, :size] = root[:, None] * rho_n[:size, :size] * root
    return out


def normal_moments(state: OracleState, totals=(2, 4)) -> dict:
    """All normally ordered moments with total operator count in ``totals``.

    Returns ``{(dag_counts, low_counts): value}`` where the keys hold one
    creation and one annihilation count per waveguide and the value is
    <prod_i a_i^dag^d_i prod_i a_i^k_i> = <B_d^dag B_l> with
    B_m = prod_i a_i^m_i.  With B_m = sum_p C[m, p] prod_n b_n^p_n and
    rho = (x)_n F_n F_n^dag, every value is an entry of one table
    C ((x)_n G_n) C^T, G_n[p, q] = vdot(b^p F_n, b^q F_n), computed on
    each mode's own levels.
    """
    power = max(totals)
    words = [
        word
        for word in product(range(power + 1), repeat=state.space.n_modes)
        if sum(word) <= power
    ]
    coeffs = _expansion(state.c_matrix, words, power)
    tables = [_moment_table(factor, power) for factor in state.factors]
    table = coeffs @ reduce(np.kron, tables) @ coeffs.T
    return {
        (dag, low): complex(table[d, k])
        for d, dag in enumerate(words)
        for k, low in enumerate(words)
        if sum(dag) + sum(low) in totals
    }


def _number_vector(state: OracleState, counts) -> np.ndarray:
    """prod_i (a_i^dag)^n_i / sqrt(n_i!) |0> on the dense register.

    c is real, so a_i^dag is the transpose of a_i.
    """
    vec = state.space.vacuum()
    for op, count in zip(state.a_ops, counts):
        for _ in range(count):
            vec = op.T @ vec
        vec = vec / math.sqrt(math.factorial(count))
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
    is the 9x9 two-qutrit block.  The number state of (n_i) is
    sum_p C[n, p] / sqrt(prod_i n_i!) prod_n (b_n^dag)^p_n |0>, so the
    block is C' ((x)_n R_n) C'^T with R_n[p, q] = sqrt(p! q!) rho_n[p, q],
    computed on each mode's own levels.
    """
    n_modes = state.space.n_modes
    power = n_modes * (levels - 1)
    counts = list(product(range(levels), repeat=n_modes))
    norms = np.array([math.prod(map(math.factorial, ns)) for ns in counts])
    coeffs = _expansion(state.c_matrix, counts, power) / np.sqrt(norms)[:, None]
    tables = [_number_table(rho_n, power) for rho_n in state.mode_rhos]
    return coeffs @ reduce(np.kron, tables) @ coeffs.T
