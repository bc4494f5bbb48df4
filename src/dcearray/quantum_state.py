"""Gaussian output state, Wick moments, qutrit density matrix, entanglement.

The degenerate-band input-output relation mixes each normal mode with its
own conjugate.  We embed it as an exact single-mode Bogoliubov transform
with u_n = sqrt(1 + eps_n^2), v_n = -i eps_n, which agrees with the
perturbative relation to first order in eps and keeps the output state a
physical Gaussian state at any amplitude.  With a thermal input of
occupation N_T per mode the second moments in the waveguide basis are

    <a_i^dag a_j> = sum_n c_n^i c_n^j [N_T + |v_n|^2 (1 + 2 N_T)]
    <a_i a_j>     = sum_n c_n^i c_n^j u_n v_n (1 + 2 N_T)

All higher moments follow from Wick's theorem.  The two-qutrit density
matrix is the exact Gaussian Fock block: the Fock elements of a zero-mean
Gaussian state follow in closed form from its second moments through a
multidimensional Hermite recursion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .drive import ModeResponse
from .errors import NotNormalized, NotNormalOrdered, ZeroIntensity
from .lattice import LaplacianSpectrum

__all__ = [
    "GaussianOutputState",
    "TruncatedDensityMatrix",
    "thermal_occupation",
    "output_gaussian",
    "wick_moment",
    "density_matrix",
    "perturbative_pure_state",
    "perturbative_density_matrix",
    "von_neumann_entropy",
    "noon_fidelity",
    "maximally_entangled_fidelity",
]

QUTRIT_LEVELS = 3  # each waveguide holds 0, 1 or 2 photons


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mode at angular frequency omega."""
    from .constants import HBAR, K_B

    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0 or omega <= 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class GaussianOutputState:
    """Normal and anomalous second moments of the output waveguide modes."""

    number: np.ndarray      # <a_i^dag a_j>, Hermitian
    anomalous: np.ndarray   # <a_i a_j>, symmetric
    temperature: float      # K

    @property
    def n_modes(self) -> int:
        return self.number.shape[0]


def output_gaussian(
    modes: ModeResponse, spectrum: LaplacianSpectrum, temperature: float = 0.0
) -> GaussianOutputState:
    """Exact Gaussian description of the emitted field at the band centre."""
    c = spectrum.modes  # c[n, i]
    eps = modes.eps
    n_t = thermal_occupation(modes.omega_d / 2.0, temperature)
    u = np.sqrt(1.0 + eps**2)
    v = -1j * eps
    occ = n_t + np.abs(v) ** 2 * (1.0 + 2.0 * n_t)
    pair = u * v * (1.0 + 2.0 * n_t)
    number = c.T @ np.diag(occ) @ c
    anomalous = c.T @ np.diag(pair) @ c
    return GaussianOutputState(
        number=number.astype(complex),
        anomalous=anomalous.astype(complex),
        temperature=temperature,
    )


def _wick_counts(state: GaussianOutputState, dag, ann) -> complex:
    """Sum over perfect matchings for a normal-ordered word given as counts.

    ``dag[m]`` / ``ann[m]`` count daggered / undaggered operators of mode m.
    Contraction values: two daggers -> conj(<a a>), dagger-annihilator ->
    <a^dag a>, two annihilators -> <a a>.  Memoized recursion; zero-mean
    Gaussian states have no odd moments.
    """
    number = state.number
    anomalous = state.anomalous
    anomalous_dag = np.conj(anomalous)
    memo: dict = {}

    def rec(d: tuple, a: tuple) -> complex:
        total = sum(d) + sum(a)
        if total == 0:
            return 1.0 + 0.0j
        if total % 2 == 1:
            return 0.0j
        key = (d, a)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = 0.0j
        if any(d):
            m = next(k for k, cnt in enumerate(d) if cnt > 0)
            d1 = list(d)
            d1[m] -= 1
            # contract with remaining daggers
            for k, cnt in enumerate(d1):
                if cnt > 0:
                    d2 = list(d1)
                    d2[k] -= 1
                    result += cnt * anomalous_dag[m, k] * rec(tuple(d2), a)
            # contract with annihilators
            for k, cnt in enumerate(a):
                if cnt > 0:
                    a2 = list(a)
                    a2[k] -= 1
                    result += cnt * number[m, k] * rec(tuple(d1), tuple(a2))
        else:
            m = next(k for k, cnt in enumerate(a) if cnt > 0)
            a1 = list(a)
            a1[m] -= 1
            for k, cnt in enumerate(a1):
                if cnt > 0:
                    a2 = list(a1)
                    a2[k] -= 1
                    result += cnt * anomalous[m, k] * rec(d, tuple(a2))
        memo[key] = result
        return result

    return rec(tuple(dag), tuple(ann))


def wick_moment(state: GaussianOutputState, word) -> complex:
    """Normal-ordered Gaussian moment of a word of ladder operators.

    ``word`` is a sequence of ``(mode_index, dagger)`` pairs with every
    daggered operator preceding every undaggered one.
    """
    n = state.n_modes
    seen_annihilator = False
    dag = [0] * n
    ann = [0] * n
    for mode, is_dag in word:
        if not 0 <= mode < n:
            raise ValueError(f"mode index {mode} outside 0..{n - 1}")
        if is_dag:
            if seen_annihilator:
                raise NotNormalOrdered(
                    "daggered operator found right of an undaggered one"
                )
            dag[mode] += 1
        else:
            seen_annihilator = True
            ann[mode] += 1
    if (sum(dag) + sum(ann)) % 2 == 1:
        return 0.0j
    return _wick_counts(state, dag, ann)


@dataclass(frozen=True)
class TruncatedDensityMatrix:
    """Two-qutrit density matrix over |n1 n2>, n in {0,1,2}.

    ``rho[3*n+m, 3*n'+m']`` = <n m| rho |n' m'>.  ``post_selected`` means
    the vacuum |00> was projected out and the rest renormalized; every other
    element of the block, the double pair |22> included, is kept.
    """

    rho: np.ndarray
    post_selected: bool


def _fock_block(state: GaussianOutputState) -> np.ndarray:
    """Exact Fock elements <n m| rho |n' m'> of a zero-mean Gaussian state.

    Multidimensional Hermite recursion (Miatto & Quesada, Quantum 4, 366
    (2020)): with Q = [[N^T + I, M], [M^*, N + I]], N = <a^dag a>,
    M = <a a>, and A = X (I - Q^-1)^*, where X swaps the two halves,
    rho[k_bra, k_ket] = det(Q)^(-1/2) G(k), where k joins the two photon-number
    tuples, G(0) = 1 and G(k + e_i) = sum_j A_ij sqrt(k_j) G(k - e_j) /
    sqrt(k_i + 1).  Every guide runs over 0..QUTRIT_LEVELS-1; the block is
    not renormalized.
    """
    n = state.n_modes
    eye = np.eye(n)
    q = np.block(
        [
            [state.number.T + eye, state.anomalous],
            [np.conj(state.anomalous), state.number + eye],
        ]
    )
    swap = np.roll(np.eye(2 * n), n, axis=0)
    a = swap @ np.conj(np.eye(2 * n) - np.linalg.inv(q))
    g = np.zeros((QUTRIT_LEVELS,) * (2 * n), dtype=complex)
    g[(0,) * (2 * n)] = 1.0
    # lexicographic order visits every k - e_j before k
    for k in product(range(QUTRIT_LEVELS), repeat=2 * n):
        if not any(k):
            continue
        i = next(idx for idx, count in enumerate(k) if count)
        prev = list(k)
        prev[i] -= 1
        value = 0.0j
        for j, count in enumerate(prev):
            if count:
                low = list(prev)
                low[j] -= 1
                value += a[i, j] * math.sqrt(count) * g[tuple(low)]
        g[k] = value / math.sqrt(k[i])
    dim = QUTRIT_LEVELS**n
    return g.reshape(dim, dim) / math.sqrt(np.linalg.det(q).real)


def density_matrix(
    state: GaussianOutputState,
    post_select: bool = True,
    max_degree: int | None = 8,
    remainder_tol: float = 1e-4,
) -> TruncatedDensityMatrix:
    """Two-qutrit density matrix of a two-waveguide Gaussian output state.

    The elements are the exact Fock elements of the Gaussian state from the
    Hermite recursion of :func:`_fock_block`; the block is renormalized to
    unit trace.  ``max_degree`` and ``remainder_tol`` are accepted for
    compatibility and ignored: nothing is truncated but the qutrit block.

    ``post_select=True`` removes only the vacuum |00> and renormalizes the
    remaining eight levels, so the one-photon and three- and four-photon
    elements (|22> among them) stay.  Two guides with equal mode amplitudes
    eps each hold a squeezed vacuum with sinh r = eps, and the NOON fidelity
    of the post-selected block is (1 + tanh^2 r / 4)^(-1/2) rather than 1.
    :func:`perturbative_pure_state` instead keeps only the two-photon
    sector, where the same drive gives F = 1.
    """
    if state.n_modes != 2:
        raise ValueError("density_matrix covers the two-waveguide case only")
    mean_occ = float(np.max(np.real(np.diag(state.number))))
    if mean_occ > 0.5:
        warnings.warn(
            f"mean photon number {mean_occ:.3g} > 0.5; the qutrit block "
            "misses much of the population beyond two photons per guide",
            stacklevel=2,
        )

    rho = _fock_block(state)
    rho = 0.5 * (rho + rho.conj().T)
    if post_select:
        rho[0, :] = 0.0
        rho[:, 0] = 0.0
        norm = np.trace(rho).real
        if norm <= 0.0:
            raise ZeroIntensity("no photons emitted; nothing to post-select")
        rho = rho / norm
    else:
        norm = np.trace(rho).real
        if norm <= 0.0:
            raise ZeroIntensity("state has no weight in the qutrit block")
        rho = rho / norm
    return TruncatedDensityMatrix(rho=rho, post_selected=post_select)


def perturbative_pure_state(modes: ModeResponse, spectrum: LaplacianSpectrum):
    """Leading-order two-photon amplitudes at zero temperature.

    Returns ``(beta, amplitudes)`` where ``beta = (i/2) C^T diag(eps) C`` is
    the symmetric pair-amplitude matrix and ``amplitudes`` maps a pair
    ``(i, j)`` with i <= j to the normalized post-selected amplitude of one
    photon in waveguide i and one in j (two in i when i == j).  Post-selection
    here keeps only the two-photon sector, unlike :func:`density_matrix`,
    which removes only the vacuum.
    """
    c = spectrum.modes
    beta = 0.5j * (c.T @ np.diag(modes.eps) @ c)
    n = beta.shape[0]
    amps = {}
    for i in range(n):
        amps[(i, i)] = math.sqrt(2.0) * beta[i, i]
        for j in range(i + 1, n):
            amps[(i, j)] = 2.0 * beta[i, j]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm == 0.0:
        raise ZeroIntensity("no pair amplitude; nothing to post-select")
    amps = {k: a / norm for k, a in amps.items()}
    return beta, amps


def perturbative_density_matrix(
    modes: ModeResponse, spectrum: LaplacianSpectrum
) -> TruncatedDensityMatrix:
    """Pure post-selected qutrit density matrix from the leading-order state.

    Two-waveguide arrays only; the N > 2 case is served by the amplitude
    dictionary of :func:`perturbative_pure_state`.
    """
    if spectrum.n != 2:
        raise ValueError("qutrit density matrix covers two waveguides only")
    _, amps = perturbative_pure_state(modes, spectrum)
    psi = np.zeros(9, dtype=complex)
    psi[3 * 2 + 0] = amps[(0, 0)]  # |20>
    psi[3 * 0 + 2] = amps[(1, 1)]  # |02>
    psi[3 * 1 + 1] = amps[(0, 1)]  # |11>
    return TruncatedDensityMatrix(rho=np.outer(psi, psi.conj()), post_selected=True)


def von_neumann_entropy(
    tdm: TruncatedDensityMatrix, traced_subsystem: int = 1
) -> float:
    """Base-3 von Neumann entropy of the reduced single-qutrit state.

    Eigenvalues are clipped at zero with tolerance 1e-12 and 0*log(0) := 0;
    the maximally entangled two-qutrit state gives exactly 1.
    """
    if traced_subsystem not in (0, 1):
        raise ValueError("traced_subsystem must be 0 or 1")
    trace = np.trace(tdm.rho).real
    if abs(trace - 1.0) > 1e-9:
        raise NotNormalized(f"density matrix trace is {trace:.12g}, expected 1")
    blocks = tdm.rho.reshape(3, 3, 3, 3)  # [n, m, n', m']
    if traced_subsystem == 1:
        reduced = np.einsum("nkpk->np", blocks)
    else:
        reduced = np.einsum("knkp->np", blocks)
    eigs = np.linalg.eigvalsh(reduced)
    if eigs.min() < -1e-12:
        raise ValueError(f"reduced state has eigenvalue {eigs.min():.3g} < 0")
    eigs = np.clip(eigs, 0.0, None)
    entropy = -sum(p * math.log(p, 3) for p in eigs if p > 0.0)
    return float(entropy)


def _fidelity_to(tdm: TruncatedDensityMatrix, psi: np.ndarray) -> float:
    overlap = np.real(psi.conj() @ tdm.rho @ psi)
    return float(math.sqrt(max(0.0, min(1.0, overlap))))


def noon_fidelity(tdm: TruncatedDensityMatrix) -> float:
    """F = sqrt(<psi|rho|psi>) against the two-photon NOON state."""
    if not tdm.post_selected:
        raise ValueError("NOON fidelity expects a post-selected state")
    psi = np.zeros(9, dtype=complex)
    psi[3 * 2 + 0] = 1.0 / math.sqrt(2.0)
    psi[3 * 0 + 2] = 1.0 / math.sqrt(2.0)
    return _fidelity_to(tdm, psi)


def maximally_entangled_fidelity(tdm: TruncatedDensityMatrix) -> float:
    """Fidelity against (|11> + |20> + |02>)/sqrt(3)."""
    if not tdm.post_selected:
        raise ValueError("fidelity expects a post-selected state")
    psi = np.zeros(9, dtype=complex)
    psi[3 * 1 + 1] = 1.0 / math.sqrt(3.0)
    psi[3 * 2 + 0] = 1.0 / math.sqrt(3.0)
    psi[3 * 0 + 2] = 1.0 / math.sqrt(3.0)
    return _fidelity_to(tdm, psi)
