"""Gaussian output state, Wick moments, qutrit density matrix, entanglement.

The degenerate-band input-output relation mixes each normal mode with its
own conjugate.  We embed it as an exact single-mode Bogoliubov transform
with u_n = sqrt(1 + eps_n^2), v_n = -i eps_n, which agrees with the
perturbative relation to first order in eps and keeps the output state a
physical Gaussian state at any amplitude.  With a thermal input of
occupation N_T per mode the second moments in the waveguide basis are

    <a_i^dag a_j> = sum_n c_n^i c_n^j [N_T + |v_n|^2 (1 + 2 N_T)]
    <a_i a_j>     = sum_n c_n^i c_n^j u_n v_n (1 + 2 N_T)

All higher moments follow from Wick's theorem, and the two-qutrit density
matrix is the exact Gaussian Fock block.  Both come from one multidimensional
Hermite recursion over the second moments: a Wick moment is its value for the
matrix of contractions, and a Fock element its value for a matrix built from
the covariance, scaled by det(Q)^(-1/2) / sqrt(k!).  The recursion's rule is
:func:`_hermite_step`, and two evaluators run it.  A Wick word reads a few
entries of a key space that grows with the modes, at one point: a state fills
its one table of contractions (:class:`_Hermite`) on first lookup and serves
every word from it.  A qutrit block reads the same 81 keys over a batch, in
one numpy step per even photon number (:func:`_fock_block`).

The output state, the density matrices and the qutrit values take a drive
at one point or at a batch of K points (eps of shape (K, N), a leading axis
on every result).  A point raises its error; a batch lists the errors of
its failed points by index in ``errors`` (see :mod:`dcearray.errors`).
Wick moments are evaluated at one point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product

import numpy as np

from .constants import HBAR, K_B
from .drive import ModeResponse
from .errors import (
    NonFinite,
    NotNormalized,
    NotNormalOrdered,
    ZeroIntensity,
    point_errors,
    with_errors,
)
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


def thermal_occupation(omega, temperature: float):
    """Bose-Einstein occupation at angular frequency omega, a float or an array.

    Zero at T = 0, at omega <= 0 and where hbar omega / k_B T exceeds 700.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    omega = np.asarray(omega, dtype=float)
    occ = np.zeros_like(omega)
    if temperature > 0.0:
        x = HBAR * omega / (K_B * temperature)
        live = (omega > 0.0) & (x <= 700.0)
        occ[live] = 1.0 / np.expm1(x[live])
    return occ if occ.ndim else float(occ)


def _pair_sum(weights, c, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """sum_n c_n^i c_n^j w_n for guides i in ``rows`` and j in ``cols``.

    ``weights`` holds w_n on its last axis, for one point or a batch; the
    result is (..., rows, cols).  Every pair matrix of the mode basis (the
    output moments, the pair amplitudes, g2) is such a sum; a column for
    one pair costs O(N) per point, the full matrix O(N^3).
    """
    return np.einsum("...n,ni,nj->...ij", weights, c[:, rows], c[:, cols])


def _mode_moments(eps, n_thermal: float) -> tuple:
    """Occupation and pair amplitude of each output normal mode.

    N_T + |v_n|^2 (1 + 2 N_T) and u_n v_n (1 + 2 N_T), u_n = sqrt(1 + eps_n^2),
    v_n = -i eps_n.
    """
    u = np.sqrt(1.0 + eps**2)
    v = -1j * eps
    occ = n_thermal + np.abs(v) ** 2 * (1.0 + 2.0 * n_thermal)
    return occ, u * v * (1.0 + 2.0 * n_thermal)


def _hermite_step(k: tuple) -> tuple:
    """The Hermite recursion's rule at a key k that counts some operator.

    H(0) = 1 and H(k) = sum_j b_ij p_j H(p - e_j) over the j with p_j > 0, in
    order, where i is the first operator k counts and p = k - e_i (Miatto &
    Quesada, Quantum 4, 366 (2020)).  Returns i and the terms (j, p_j, p - e_j).
    """
    i = list(map(bool, k)).index(True)
    p = list(k)
    p[i] -= 1
    terms = []
    for j, count in enumerate(p):
        if count:
            p[j] -= 1
            terms.append((j, count, tuple(p)))
            p[j] += 1
    return i, terms


class _Hermite(dict):
    """Lazily filled multidimensional Hermite table H[k] over a matrix b.

    H(k) sums the perfect matchings of a word with k_i copies of operator i,
    each pair (i, j) weighted by the symmetric b_ij.  Of the two evaluators
    of :func:`_hermite_step` (the other is :func:`_fock_block`), this one
    serves :func:`wick_moment`: a word reads a few entries of a possibly
    huge key space at one point, so an entry is computed on first lookup and
    kept, ``b`` is nested lists of Python scalars and the table a dict.
    """

    def __init__(self, b: list):
        self.b = b  # the dict itself starts empty

    def __missing__(self, k: tuple):
        if sum(k) % 2:  # the recursion keeps parity: odd orders vanish
            value = 0j
        elif not any(k):
            value = 1.0 + 0j
        else:
            i, terms = _hermite_step(k)
            value = sum((count * self.b[i][j] * self[p] for j, count, p in terms), 0j)
        self[k] = value
        return value


@dataclass(frozen=True)
class GaussianOutputState:
    """Normal and anomalous second moments of the output waveguide modes."""

    number: np.ndarray      # <a_i^dag a_j>, Hermitian; (..., N, N)
    anomalous: np.ndarray   # <a_i a_j>, symmetric
    temperature: float      # K

    @property
    def n_modes(self) -> int:
        return self.number.shape[-1]

    @cached_property
    def _wick_table(self) -> _Hermite:
        """Hermite table over the contractions B = [[M^*, N], [N^T, M]].

        Built on the first :func:`wick_moment` of a one-point state and
        shared by every later one; the moments must not change after that.
        """
        number, anomalous = self.number.tolist(), self.anomalous.tolist()
        b = [[m.conjugate() for m in row] + n_row for row, n_row in zip(anomalous, number)]
        b += [list(n_col) + row for n_col, row in zip(zip(*number), anomalous)]
        return _Hermite(b)


def output_gaussian(
    modes: ModeResponse, spectrum: LaplacianSpectrum, temperature: float = 0.0
) -> GaussianOutputState:
    """Exact Gaussian description of the emitted field at the band centre."""
    n_t = thermal_occupation(modes.omega_d / 2.0, temperature)
    occ, pair = _mode_moments(modes.eps, n_t)
    return GaussianOutputState(
        number=_pair_sum(occ, spectrum.modes).astype(complex),
        anomalous=_pair_sum(pair, spectrum.modes),
        temperature=temperature,
    )


def wick_moment(state: GaussianOutputState, word) -> complex:
    """Normal-ordered Gaussian moment of a word of ladder operators.

    ``word`` is a sequence of ``(mode_index, dagger)`` pairs with every
    daggered operator preceding every undaggered one.  By Wick's theorem the
    moment is the Hermite table of :class:`_Hermite` at the per-mode counts
    k = dag + ann, with the contractions B = [[M^*, N], [N^T, M]],
    N = <a^dag a>, M = <a a>.  The table is the state's ``_wick_table``:
    every word of one state reads and extends it, the empty word at 1 and
    the odd ones at 0.  The state must be one point.
    """
    if state.number.ndim != 2:
        raise ValueError(
            "Wick moments take one point; the state's number moments have "
            f"shape {state.number.shape}"
        )
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
    return state._wick_table[tuple(dag + ann)]


@dataclass(frozen=True)
class TruncatedDensityMatrix:
    """Two-qutrit density matrix over |n1 n2>, n in {0,1,2}.

    ``rho[..., 3*n+m, 3*n'+m']`` = <n m| rho |n' m'>.  ``post_selected``
    means the vacuum |00> was projected out and the rest renormalized; every
    other element of the block, the double pair |22> included, is kept.  In
    a batch, ``errors`` maps each failed point to its error; its rho is zero.
    """

    rho: np.ndarray
    post_selected: bool
    errors: dict = field(default_factory=dict)


@cache
def _qutrit_schedule() -> tuple:
    """Index schedule of :func:`_fock_block`'s recursion over the 81 keys.

    Key k = (n_1, n_2, n'_1, n'_2) is entry k . (27, 9, 3, 1) of rho, and
    H(k) follows :func:`_hermite_step`.  Returns the column of sqrt(k!) of
    every key and, per even degree 2..8, its keys and (term, key) tables of
    the counts p_j, the indices of A_ij in the flattened (I - Q^-1)^*, whose
    row i + 2 mod 4 is row i of A, and the keys p - e_j; shorter sums are
    padded with count 0 and key 0.  Built on the first call.
    """
    keys = list(product(range(QUTRIT_LEVELS), repeat=4))
    roots = np.array([[math.sqrt(math.prod(map(math.factorial, k)))] for k in keys])
    sums, degrees = list(map(sum, keys)), []
    for degree in (2, 4, 6, 8):
        rows, terms = [], []
        for row, k in enumerate(keys):
            if sums[row] == degree:
                i, step = _hermite_step(k)
                rows.append(row)
                terms.append([(count, 4 * ((i + 2) % 4) + j, 27 * a + 9 * b + 3 * c + d)
                              for j, count, (a, b, c, d) in step])
        width = max(map(len, terms))  # the longest sum of the degree
        table = [t + [(0, 0, 0)] * (width - len(t)) for t in terms]
        counts, cells, sources = np.array(table).T
        counts = counts[..., None].astype(float)
        degrees.append((np.array(rows), counts, cells, sources))
    return roots, degrees


@np.errstate(all="ignore")
def _fock_block(state: GaussianOutputState) -> np.ndarray:
    """Exact Fock elements <n m| rho |n' m'> of a two-guide Gaussian state.

    With Q = [[N^T + I, M], [M^*, N + I]], N = <a^dag a>, M = <a a>, and
    A = X (I - Q^-1)^*, where X swaps the two halves,
    rho[k_bra, k_ket] = det(Q)^(-1/2) H_A(k) / sqrt(k!), where k joins the two
    photon-number tuples and H_A follows :func:`_hermite_step`.  Both guides
    run over 0..QUTRIT_LEVELS-1, so every block reads the same 81 keys, over
    a batch: one numpy step per even degree |k| fills its keys at every point
    from the degree below, along :func:`_qutrit_schedule`.  The table holds
    the keys by row and the points (one for a single state) along its
    columns, so rho keeps the points fastest in memory: the batched entropies
    and fidelities round by that layout.  Each sum starts from 0j A_00, and
    the odd degrees hold that zero; the entangle rho dump prints these zeros'
    signs.  The block is not renormalized.  A point whose det(Q) is not finite
    and positive is no state: its block is nan, and I takes its Q's place in
    the inverse, which LAPACK takes matrix by matrix, so no other point moves.
    Such a point, or one that overflows, warns nothing: its block is not finite.
    """
    roots, degrees = _qutrit_schedule()
    number, anomalous = state.number, state.anomalous
    top = np.concatenate([np.swapaxes(number, -1, -2), anomalous], axis=-1)
    bottom = np.concatenate([np.conj(anomalous), number], axis=-1)
    q = np.concatenate([top, bottom], axis=-2) + np.eye(4)
    det = np.linalg.det(q).real
    det = np.where(np.isfinite(det) & (det > 0.0), det, np.nan)
    q = np.where(np.isnan(det)[..., None, None], np.eye(4), q)
    c = np.conj(np.eye(4) - np.linalg.inv(q)).reshape(-1, 16).T  # (16, points)
    zero = 0.0j * c[8]  # 0j A_00
    h = np.repeat(zero[None], len(roots), axis=0)
    h[0] = zero + 1.0
    for rows, counts, cells, sources in degrees:
        h[rows] = sum(counts * c[cells] * h[sources], zero)
    rho = (h / roots).T.reshape(q.shape[:-2] + (9, 9))
    return rho / np.sqrt(det)[..., None, None]


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
    A batch of states (moments of shape (K, 2, 2)) runs one recursion, and
    warns once, at its largest mean photon number.  A point whose block is
    not finite fails with NonFinite, and one with no weight in it with
    ZeroIntensity; a failed point's rho is zero.

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
    mean_occ = float(np.max(np.real(np.diagonal(state.number, 0, -2, -1))))
    if mean_occ > 0.5:
        warnings.warn(
            f"mean photon number {mean_occ:.3g} > 0.5; the qutrit block "
            "misses much of the population beyond two photons per guide",
            stacklevel=2,
        )

    rho = _fock_block(state)
    finite = np.isfinite(rho).all(axis=(-2, -1))
    rho = np.where(finite[..., None, None], rho, 0.0)
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    if post_select:
        rho[..., 0, :] = 0.0
        rho[..., :, 0] = 0.0
    norm = np.trace(rho, 0, -2, -1).real
    empty = ("no photons emitted; nothing to post-select" if post_select
             else "state has no weight in the qutrit block")
    errors = point_errors(norm <= 0.0, lambda k: (
        ZeroIntensity(empty) if finite[k]
        else NonFinite("qutrit block is not finite: det Q is not finite and positive "
                       "or an element overflows")))
    rho = rho / np.where(norm > 0.0, norm, 1.0)[..., None, None]
    return TruncatedDensityMatrix(rho=rho, post_selected=post_select, errors=errors)


def perturbative_pure_state(modes: ModeResponse, spectrum: LaplacianSpectrum):
    """Leading-order two-photon amplitudes at zero temperature.

    Returns ``(beta, amplitudes)`` where ``beta = (i/2) C^T diag(eps) C`` is
    the symmetric pair-amplitude matrix and ``amplitudes`` maps a pair
    ``(i, j)`` with i <= j to the normalized post-selected amplitude of one
    photon in waveguide i and one in j (two in i when i == j).  Post-selection
    here keeps only the two-photon sector, unlike :func:`density_matrix`,
    which removes only the vacuum.
    """
    beta, amps, _ = _pure_state(modes, spectrum)
    return beta, amps


@np.errstate(all="ignore")  # a drive beyond double precision fails its point
def _pure_state(modes: ModeResponse, spectrum: LaplacianSpectrum) -> tuple:
    """perturbative_pure_state and its per-point errors.

    A point whose pair norm is 0 fails with ZeroIntensity, and one whose norm
    is not finite with NonFinite.  The amplitudes of a failed point are 0.
    """
    beta = 0.5j * _pair_sum(modes.eps, spectrum.modes)
    n = beta.shape[-1]
    amps = {}
    for i in range(n):
        amps[(i, i)] = math.sqrt(2.0) * beta[..., i, i]
        for j in range(i + 1, n):
            amps[(i, j)] = 2.0 * beta[..., i, j]
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    ok = (norm > 0.0) & np.isfinite(norm)
    errors = point_errors(~ok, lambda k: (
        ZeroIntensity("no pair amplitude; nothing to post-select") if norm[k] == 0.0
        else NonFinite(f"pair norm is {norm[k]}; the drive is beyond double precision")))
    norm = np.where(ok, norm, 1.0)
    return beta, {k: np.where(ok, a, 0.0) / norm for k, a in amps.items()}, errors


def perturbative_density_matrix(
    modes: ModeResponse, spectrum: LaplacianSpectrum
) -> TruncatedDensityMatrix:
    """Pure post-selected qutrit density matrix from the leading-order state.

    Two-waveguide arrays only; the N > 2 case is served by the amplitude
    dictionary of :func:`perturbative_pure_state`.
    """
    if spectrum.n != 2:
        raise ValueError("qutrit density matrix covers two waveguides only")
    _, amps, errors = _pure_state(modes, spectrum)
    psi = np.zeros(modes.eps.shape[:-1] + (9,), dtype=complex)
    psi[..., 3 * 2 + 0] = amps[(0, 0)]  # |20>
    psi[..., 3 * 0 + 2] = amps[(1, 1)]  # |02>
    psi[..., 3 * 1 + 1] = amps[(0, 1)]  # |11>
    rho = psi[..., :, None] * psi.conj()[..., None, :]
    return TruncatedDensityMatrix(rho=rho, post_selected=True, errors=errors)


def von_neumann_entropy(tdm: TruncatedDensityMatrix, traced_subsystem: int = 1):
    """Base-3 von Neumann entropy of the reduced single-qutrit state.

    Eigenvalues are clipped at zero with tolerance 1e-12 and 0*log(0) := 0;
    the maximally entangled two-qutrit state gives exactly 1.  A point whose
    trace is not 1 or whose reduced state has an eigenvalue below -1e-12 fails
    with NotNormalized, and one whose reduced state is not finite reads nan.
    """
    if traced_subsystem not in (0, 1):
        raise ValueError("traced_subsystem must be 0 or 1")
    blocks = tdm.rho.reshape(tdm.rho.shape[:-2] + (3, 3, 3, 3))  # [n, m, n', m']
    if traced_subsystem == 1:
        reduced = np.einsum("...nkpk->...np", blocks)
    else:
        reduced = np.einsum("...knkp->...np", blocks)
    finite = np.isfinite(reduced).all(axis=(-2, -1))
    eigs = np.full(reduced.shape[:-1], np.nan)
    eigs[finite] = np.linalg.eigvalsh(reduced[finite])
    trace = np.trace(tdm.rho, 0, -2, -1).real
    unnormalized = np.abs(trace - 1.0) > 1e-9
    failed = unnormalized | (eigs.min(axis=-1) < -1e-12)
    errors = point_errors(failed, lambda k: NotNormalized(
        f"density matrix trace is {trace[k]:.12g}, expected 1" if unnormalized[k]
        else f"reduced state has eigenvalue {eigs[k].min():.3g} < 0"))
    eigs = np.clip(eigs, 0.0, None)
    logs = np.log(np.where(eigs > 0.0, eigs, 1.0)) / math.log(3)
    return with_errors(-np.sum(eigs * logs, axis=-1), errors)


def _fidelity_to(tdm: TruncatedDensityMatrix, levels: tuple):
    """sqrt(<psi|rho|psi>), psi the equal superposition of rho indices ``levels``."""
    if not tdm.post_selected:
        raise ValueError("fidelity expects a post-selected state")
    psi = np.zeros(9, dtype=complex)
    psi[list(levels)] = 1.0 / math.sqrt(len(levels))
    overlap = np.real(psi.conj() @ tdm.rho @ psi)
    return np.sqrt(np.clip(overlap, 0.0, 1.0))


def noon_fidelity(tdm: TruncatedDensityMatrix):
    """Fidelity against the two-photon NOON state (|20> + |02>)/sqrt(2)."""
    return _fidelity_to(tdm, (3 * 2 + 0, 3 * 0 + 2))


def maximally_entangled_fidelity(tdm: TruncatedDensityMatrix):
    """Fidelity against (|11> + |20> + |02>)/sqrt(3)."""
    return _fidelity_to(tdm, (3 * 1 + 1, 3 * 2 + 0, 3 * 0 + 2))
