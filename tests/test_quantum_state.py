import dataclasses
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dcearray import oracle
from dcearray.drive import (
    DriveParams,
    LineParams,
    calibrate_da0_over_grid,
    mode_response,
)
from dcearray.errors import NonFinite, NotNormalized, NotNormalOrdered
from dcearray.lattice import ArrayTopology, build_laplacian, eigendecompose
from dcearray.quantum_state import (
    GaussianOutputState,
    _fock_block,
    density_matrix,
    maximally_entangled_fidelity,
    noon_fidelity,
    output_gaussian,
    perturbative_density_matrix,
    perturbative_pure_state,
    thermal_occupation,
    von_neumann_entropy,
    wick_moment,
)

LINE = LineParams(z0=55.0, v=1.2e8)
OMEGA_D = 2.0 * math.pi * 10.3e9
SPEC2 = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))


def modes_at(phi, theta, da0=1e-25, spectrum=SPEC2):
    d = DriveParams(a0=1e-23, da0=da0, phi=phi, theta=theta, omega_d=OMEGA_D)
    return mode_response(d, LINE, spectrum)


def state_from_eps(eps, n_thermal=0.0, c=None):
    eps = np.asarray(eps, dtype=float)
    if c is None:
        c = SPEC2.modes
    u = np.sqrt(1.0 + eps**2)
    v = -1j * eps
    occ = n_thermal + np.abs(v) ** 2 * (1.0 + 2.0 * n_thermal)
    pair = u * v * (1.0 + 2.0 * n_thermal)
    return GaussianOutputState(
        number=(c.T @ np.diag(occ) @ c).astype(complex),
        anomalous=(c.T @ np.diag(pair) @ c).astype(complex),
        temperature=0.0,
    )


def test_thermal_occupation_bose_factor():
    omega = 2.0 * math.pi * 5.15e9
    assert thermal_occupation(omega, 0.025) == pytest.approx(5.1e-5, rel=0.05)
    assert thermal_occupation(omega, 0.0) == 0.0


def test_thermal_occupation_monotone_in_temperature():
    omega = 2.0 * math.pi * 5.15e9
    values = [thermal_occupation(omega, t) for t in (0.01, 0.025, 0.05, 0.1)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_symmetric_drive_has_no_cross_anomalous():
    state = state_from_eps([0.1, 0.1])
    assert abs(state.anomalous[0, 1]) < 1e-15
    assert state.anomalous[0, 0] == pytest.approx(
        -1j * 0.1 * math.sqrt(1.01), abs=1e-15
    )


def test_antisymmetric_drive_has_only_cross_anomalous():
    state = state_from_eps([0.1, -0.1])
    assert abs(state.anomalous[0, 0]) < 1e-15
    assert abs(state.anomalous[1, 1]) < 1e-15
    assert state.anomalous[0, 1] == pytest.approx(
        -1j * 0.1 * math.sqrt(1.01), abs=1e-15
    )


def test_vacuum_state_for_zero_modulation():
    modes = modes_at(0.9, 1.2, da0=0.0)
    state = output_gaussian(modes, SPEC2, 0.0)
    assert np.all(state.number == 0.0)
    assert np.all(state.anomalous == 0.0)


def test_number_diagonal_matches_thermal_g1():
    modes = modes_at(math.pi / 4.0, 0.8)
    t = 0.03
    state = output_gaussian(modes, SPEC2, t)
    n_t = thermal_occupation(OMEGA_D / 2.0, t)
    expected = sum(
        SPEC2.modes[n, 0] ** 2
        * (n_t + modes.eps[n] ** 2 * (1.0 + 2.0 * n_t))
        for n in range(2)
    )
    assert state.number[0, 0].real == pytest.approx(expected, rel=1e-12)


def test_covariance_physicality():
    # symplectic eigenvalues of the doubled covariance stay >= the vacuum bound
    state = state_from_eps([0.3, -0.25], n_thermal=0.1)
    n = 2
    num = state.number
    ano = state.anomalous
    sigma = np.block(
        [[num + 0.5 * np.eye(n), ano], [np.conj(ano), np.conj(num) + 0.5 * np.eye(n)]]
    )
    omega = np.block([[np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), -np.eye(n)]])
    sympl = np.abs(np.linalg.eigvals(omega @ sigma))
    assert np.min(sympl) >= 0.5 - 1e-12


def test_wick_single_contraction():
    state = state_from_eps([0.2, -0.1])
    word = [(1, True), (1, False)]
    assert wick_moment(state, word) == pytest.approx(state.number[1, 1])


def test_wick_fourth_moment_closed_form():
    state = state_from_eps([0.2, -0.1], n_thermal=0.05)
    word = [(0, True), (0, True), (0, False), (0, False)]
    n00 = state.number[0, 0]
    a00 = state.anomalous[0, 0]
    assert wick_moment(state, word) == pytest.approx(
        2.0 * n00**2 + abs(a00) ** 2
    )


def test_wick_odd_word_vanishes():
    state = state_from_eps([0.2, -0.1])
    assert wick_moment(state, [(0, True), (0, False), (1, False)]) == 0.0


def test_wick_rejects_disordered_word():
    state = state_from_eps([0.2, -0.1])
    with pytest.raises(NotNormalOrdered):
        wick_moment(state, [(0, False), (0, True)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_wick_matching_count_is_double_factorial(k):
    # with all contractions equal to one, the moment counts perfect matchings
    ones = np.ones((1, 1), dtype=complex)
    state = GaussianOutputState(number=ones, anomalous=ones, temperature=0.0)
    word = [(0, True)] * k + [(0, False)] * k
    expected = float(np.prod(np.arange(2 * k - 1, 0, -2)))
    assert wick_moment(state, word).real == pytest.approx(expected)


def _word(dag, low):
    """Normal-ordered word from per-mode creation and annihilation counts."""
    word = []
    for mode, count in enumerate(dag):
        word += [(mode, True)] * count
    for mode, count in enumerate(low):
        word += [(mode, False)] * count
    return word


@pytest.mark.parametrize(
    "eps, n_thermal, topology, cutoff, totals",
    [
        ([0.2, -0.15], 0.1, ArrayTopology.open_chain(2), 20, (6,)),
        ([0.05, -0.04, 0.025], 0.015, ArrayTopology.open_chain(3), 7, (2, 4)),
    ],
    ids=["2modes-order6", "3modes-order2and4"],
)
def test_wick_matches_oracle_moments(eps, n_thermal, topology, cutoff, totals):
    c = eigendecompose(build_laplacian(topology)).modes
    state = state_from_eps(eps, n_thermal=n_thermal, c=c)
    ref = oracle.build_state(
        eps, c, n_thermal=n_thermal, cutoff=cutoff, deficit_tol=1e-6
    )
    moments = oracle.normal_moments(ref, totals=totals)
    gap = max(
        abs(wick_moment(state, _word(dag, low)) - value)
        for (dag, low), value in moments.items()
    )
    print(f"{len(moments)} words of order {totals}: max gap {gap:.2e}")
    assert gap <= 1e-6


def _contraction(state, left, right):
    """<left right> of two ladder operators, left one first."""
    (i, dag_i), (j, dag_j) = left, right
    if dag_i and dag_j:
        return np.conj(state.anomalous[i, j])
    if dag_i:
        return state.number[i, j]
    return state.anomalous[i, j]


def _matchings(ops):
    """Every perfect matching of a list of operators, as lists of pairs."""
    if not ops:
        yield []
        return
    for k in range(1, len(ops)):
        for rest in _matchings(ops[1:k] + ops[k + 1:]):
            yield [(ops[0], ops[k])] + rest


def _matching_sum(state, word):
    """Wick's theorem written out: the sum over perfect matchings."""
    return sum(
        np.prod([_contraction(state, *pair) for pair in m]) for m in _matchings(word)
    )


def test_wick_six_operator_word_sums_fifteen_matchings():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(8)))
    state = output_gaussian(modes_at(math.pi / 4.0, 0.7, da0=3e-25, spectrum=spec),
                            spec, 0.04)
    word = [(0, True), (3, True), (5, True), (0, False), (3, False), (5, False)]
    assert len(list(_matchings(word))) == 15
    expected = _matching_sum(state, word)
    assert abs(expected) > 1e-12
    assert wick_moment(state, word) == pytest.approx(expected, rel=1e-12, abs=0.0)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    c, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return state_from_eps(rng.uniform(-0.3, 0.3, n), rng.uniform(0.0, 0.2), c=c)


def _words(n, max_total):
    """Every normal-ordered word of n modes with at most max_total operators."""
    for counts in product(range(max_total + 1), repeat=2 * n):
        if sum(counts) <= max_total:
            yield _word(counts[:n], counts[n:])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wick_matches_the_perfect_matching_sum(n):
    # one state answers every word up to total 6 from its shared tables
    state = _random_state(n, seed=n)
    for word in _words(n, 6):
        expected = _matching_sum(state, word) if len(word) % 2 == 0 else 0.0
        assert abs(wick_moment(state, word) - expected) <= 1e-14, word


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wick_empty_word_is_one(n):
    assert wick_moment(_random_state(n, seed=n), []) == 1.0


def test_wick_alternating_states_keep_their_own_values():
    words = list(_words(2, 4))
    states = [_random_state(2, seed) for seed in (11, 12)]
    # each reference value from a new state that answers that word alone
    fresh = [[wick_moment(_random_state(2, seed), w) for w in words] for seed in (11, 12)]
    assert fresh[0] != fresh[1]
    for _ in range(2):
        for k, word in enumerate(words):
            for state, values in zip(states, fresh):
                assert wick_moment(state, word) == values[k]


def test_wick_repeated_word_returns_the_identical_value():
    state = _random_state(3, seed=5)
    word = [(0, True), (2, True), (1, False), (1, False)]
    first = wick_moment(state, word)
    assert first != 0.0
    assert wick_moment(state, word) is first


def test_wick_rejects_a_batched_state():
    state = output_gaussian(
        modes_at(math.pi / 4.0, np.array([0.3, 0.6, 0.9])), SPEC2, 0.025
    )
    with pytest.raises(ValueError, match=r"one point.*\(3, 2, 2\)"):
        wick_moment(state, [(0, True), (0, False)])


def _stacked(points):
    """One batched state from (eps, n_thermal) pairs."""
    states = [state_from_eps(eps, n_thermal=nt) for eps, nt in points]
    return GaussianOutputState(
        number=np.stack([s.number for s in states]),
        anomalous=np.stack([s.anomalous for s in states]),
        temperature=0.0,
    )


def _fock_reference(state):
    """det(Q)^(-1/2) (perfect-matching sum over A) / sqrt(k!) for each qutrit key."""
    n, m = state.number, state.anomalous
    eye, nil = np.eye(2), np.zeros((2, 2))
    q = np.block([[np.swapaxes(n, -1, -2) + eye, m], [np.conj(m), n + eye]])
    a = np.block([[nil, eye], [eye, nil]]) @ np.conj(np.eye(4) - np.linalg.inv(q))
    rho = np.zeros(n.shape[:-2] + (81,), dtype=complex)
    for flat, k in enumerate(product(range(3), repeat=4)):
        ops = [i for i, count in enumerate(k) for _ in range(count)]
        total = sum(math.prod(a[..., i, j] for i, j in pairs)
                    for pairs in _matchings(ops))
        rho[..., flat] = total / math.sqrt(math.prod(map(math.factorial, k)))
    rho = rho.reshape(n.shape[:-2] + (9, 9))
    return rho / np.sqrt(np.linalg.det(q).real)[..., None, None]


# thermal points; the first sits at the corner of criterion 6's box
FOCK_POINTS = [([0.3, -0.3], 0.2), ([0.3, 0.28], 0.19), ([0.12, -0.05], 0.02),
               ([-0.2, 0.15], 0.1)]


def test_fock_block_matches_the_perfect_matching_sum():
    state = _stacked(FOCK_POINTS)
    block = _fock_block(state)
    ref = _fock_reference(state)
    assert block.shape == (len(FOCK_POINTS), 9, 9)
    even = [sum(k) % 2 == 0 for k in product(range(3), repeat=4)]
    assert np.min(np.abs(ref[1:].reshape(-1, 81)[:, even])) > 1e-5  # all 41 keys
    gap = np.max(np.abs(block - ref))
    print(f"81 entries x {len(FOCK_POINTS)} points: max gap {gap:.2e}")
    assert gap <= 1e-14


def test_fock_block_of_a_point_equals_its_batch_row():
    block = _fock_block(_stacked(FOCK_POINTS))
    for k, (eps, n_thermal) in enumerate(FOCK_POINTS):
        point = _fock_block(state_from_eps(eps, n_thermal=n_thermal))
        assert point.shape == (9, 9)
        assert np.max(np.abs(point - block[k])) <= 1e-15


def test_cli_import_leaves_the_qutrit_schedule_unbuilt():
    # the schedule is built by the first qutrit block, so not in set-up time
    code = (
        "import numpy as np, dcearray.cli\n"
        "from dcearray import quantum_state as qs\n"
        "before = qs._qutrit_schedule.cache_info().currsize\n"
        "qs.density_matrix(qs.GaussianOutputState(\n"
        "    0.01 * np.eye(2, dtype=complex), 0.1j * np.eye(2), 0.02))\n"
        "print(before, qs._qutrit_schedule.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "1"]


def test_density_matrix_vacuum():
    state = state_from_eps([0.0, 0.0])
    tdm = density_matrix(state, post_select=False)
    expected = np.zeros((9, 9))
    expected[0, 0] = 1.0
    assert np.allclose(tdm.rho, expected, atol=1e-14)


def test_density_matrix_post_selection_removes_vacuum():
    state = state_from_eps([0.15, 0.1])
    tdm = density_matrix(state, post_select=True)
    assert tdm.rho[0, 0] == 0.0
    assert np.trace(tdm.rho).real == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(tdm.rho)
    # a principal block of a positive operator is positive, so only rounding
    # may push an eigenvalue below zero
    assert eigs.min() > -1e-12


@pytest.mark.parametrize(
    "eps, n_thermal",
    [(0.3, 0.2), (0.6, 0.3)],
    ids=["eps0.3-nt0.2", "eps0.6-nt0.3"],
)
def test_density_matrix_auto_degree_handles_strong_drive(eps, n_thermal):
    state = state_from_eps([eps, -eps], n_thermal=n_thermal)
    tdm = density_matrix(state, post_select=False)
    ref = oracle.build_state(
        [eps, -eps], SPEC2.modes, n_thermal=n_thermal, cutoff=40, deficit_tol=1e-8
    )
    rho_ref = oracle.fock_block(ref, levels=3)
    rho_ref /= np.trace(rho_ref).real
    assert np.max(np.abs(tdm.rho - rho_ref)) <= 1e-12


def test_noon_state_from_equal_amplitudes():
    state = state_from_eps([0.05, 0.05])
    tdm = density_matrix(state, post_select=True)
    assert noon_fidelity(tdm) == pytest.approx(1.0, abs=1e-3)


def test_pair_state_from_opposite_amplitudes():
    state = state_from_eps([0.05, -0.05])
    tdm = density_matrix(state, post_select=True)
    psi_11 = np.zeros(9)
    psi_11[3 * 1 + 1] = 1.0
    overlap = float(np.real(psi_11 @ tdm.rho @ psi_11))
    assert overlap == pytest.approx(1.0, abs=3.0 * 0.05**2)


def test_perturbative_amplitudes_two_guides():
    modes = modes_at(math.pi / 4.0, 0.9)
    beta, amps = perturbative_pure_state(modes, SPEC2)
    e1, e2 = modes.eps
    raw = {
        (0, 0): math.sqrt(2.0) * 0.5j * (e1 + e2) / 2.0,
        (1, 1): math.sqrt(2.0) * 0.5j * (e1 + e2) / 2.0,
        (0, 1): 2.0 * 0.5j * (e1 - e2) / 2.0,
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    for key, val in raw.items():
        assert amps[key] == pytest.approx(val / norm, abs=1e-12)
    assert beta[0, 0] == pytest.approx(0.5j * (e1 + e2) / 2.0, abs=1e-20)


def test_perturbative_noon_and_pair_limits():
    noon = perturbative_density_matrix(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert noon_fidelity(noon) == pytest.approx(1.0, abs=1e-12)
    pair = perturbative_density_matrix(modes_at(math.pi / 4.0, math.atan(-0.2)), SPEC2)
    assert noon_fidelity(pair) == pytest.approx(0.0, abs=1e-12)


def test_ring_31_cross_amplitudes_vanish_at_localizing_angle():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(31)))
    modes = modes_at(math.pi / 4.0, 0.17, spectrum=spec)
    _, amps = perturbative_pure_state(modes, spec)
    cross = max(abs(a) for (i, j), a in amps.items() if i != j)
    same = max(abs(a) for (i, j), a in amps.items() if i == j)
    # pair probabilities, not amplitudes, are what the localization plot shows
    assert (cross / same) ** 2 < 0.05


def test_entropy_of_noon_state():
    tdm = perturbative_density_matrix(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert von_neumann_entropy(tdm) == pytest.approx(math.log(2.0, 3.0), abs=1e-10)


def test_entropy_symmetric_under_traced_subsystem():
    tdm = perturbative_density_matrix(modes_at(math.pi / 4.0, 1.0), SPEC2)
    assert von_neumann_entropy(tdm, 0) == pytest.approx(
        von_neumann_entropy(tdm, 1), abs=1e-12
    )


def test_entropy_requires_normalization():
    tdm = perturbative_density_matrix(modes_at(math.pi / 4.0, 1.0), SPEC2)
    broken = type(tdm)(rho=2.0 * tdm.rho, post_selected=True)
    with pytest.raises(NotNormalized):
        von_neumann_entropy(broken)


def test_entropy_bounds_over_sweep():
    for theta in np.linspace(0.05, math.pi - 0.05, 25):
        try:
            tdm = perturbative_density_matrix(
                modes_at(math.pi / 4.0, float(theta)), SPEC2
            )
        except Exception:
            continue
        e = von_neumann_entropy(tdm)
        assert -1e-12 <= e <= 1.0 + 1e-12


def test_maximally_entangled_overlaps():
    noon = perturbative_density_matrix(modes_at(math.pi / 4.0, math.atan(0.25)), SPEC2)
    assert maximally_entangled_fidelity(noon) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-12
    )
    pair = perturbative_density_matrix(modes_at(math.pi / 4.0, math.atan(-0.2)), SPEC2)
    assert maximally_entangled_fidelity(pair) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-12
    )


def test_wick_density_matrix_tracks_perturbative_state():
    d = DriveParams(a0=1e-23, da0=1e-26, phi=math.pi / 4.0, theta=0.9, omega_d=OMEGA_D)
    _, modes = calibrate_da0_over_grid(d, LINE, SPEC2, 0.01)
    eps2 = float(np.max(modes.eps**2))
    pert = perturbative_density_matrix(modes, SPEC2)
    wick = density_matrix(output_gaussian(modes, SPEC2, 0.0), post_select=True)
    assert np.max(np.abs(wick.rho - pert.rho)) < 10.0 * eps2


def test_purity_at_calibrated_amplitude():
    d = DriveParams(a0=1e-23, da0=1e-26, phi=math.pi / 4.0, theta=1.2, omega_d=OMEGA_D)
    _, modes = calibrate_da0_over_grid(d, LINE, SPEC2, 0.1)
    tdm = density_matrix(output_gaussian(modes, SPEC2, 0.0), post_select=True)
    purity = float(np.real(np.trace(tdm.rho @ tdm.rho)))
    assert purity == pytest.approx(1.0, abs=5e-3)


def test_noon_fidelity_degrades_with_temperature():
    modes = modes_at(math.pi / 4.0, math.atan(0.25), da0=3e-25)
    fids = []
    for t_mk in (50.0, 60.0):
        state = output_gaussian(modes, SPEC2, t_mk * 1e-3)
        tdm = density_matrix(state, post_select=True)
        fids.append(noon_fidelity(tdm))
    assert fids[0] > fids[1]


def test_singular_point_of_a_batch_is_nan_and_leaves_the_others_bit_identical():
    points = [([0.05, -0.02], 0.01), ([0.12, 0.07], 0.03), ([-0.2, 0.1], 0.05)]
    regular = _stacked(points)
    # N = -I and M = 0 give Q = 0: singular, no state
    number, anomalous = regular.number.copy(), regular.anomalous.copy()
    number[1], anomalous[1] = -np.eye(2), 0.0
    singular = GaussianOutputState(number=number, anomalous=anomalous, temperature=0.0)
    for post_select in (True, False):
        tdm = density_matrix(singular, post_select=post_select)
        ref = density_matrix(regular, post_select=post_select).rho
        assert list(tdm.errors) == [1] and isinstance(tdm.errors[1], NonFinite)
        assert not tdm.rho[1].any()  # a failed point's rho is zero
        assert tdm.rho[[0, 2]].tobytes() == ref[[0, 2]].tobytes()
    one = GaussianOutputState(number=-np.eye(2), anomalous=np.zeros((2, 2)),
                              temperature=0.0)
    with pytest.raises(NonFinite, match="qutrit block is not finite"):
        density_matrix(one, post_select=False)


def test_fidelities_and_entropy_carry_the_state_errors():
    regular = _stacked([([0.05, -0.02], 0.01)] * 2)
    number, anomalous = regular.number.copy(), regular.anomalous.copy()
    number[1], anomalous[1] = -np.eye(2), 0.0  # Q = 0: no state at point 1
    tdm = density_matrix(
        GaussianOutputState(number=number, anomalous=anomalous, temperature=0.0)
    )
    state_error = tdm.errors[1]
    assert isinstance(state_error, NonFinite)
    for observable in (noon_fidelity, maximally_entangled_fidelity, von_neumann_entropy):
        cells = observable(tdm)
        assert cells[1] is state_error, observable.__name__
        assert cells[0] == observable(density_matrix(regular))[0]


def test_non_finite_pair_norm_fails_its_point_with_zero_amplitudes():
    regular = modes_at(math.pi / 4.0, np.array([0.6, 1.0, 1.4]))
    eps = regular.eps.copy()
    eps[1] *= 1e200  # |beta|^2 overflows: the pair norm is inf
    huge = dataclasses.replace(regular, eps=eps)
    tdm = perturbative_density_matrix(huge, SPEC2)
    ref = perturbative_density_matrix(regular, SPEC2).rho
    assert list(tdm.errors) == [1] and isinstance(tdm.errors[1], NonFinite)
    assert not tdm.rho[1].any()  # a failed point's amplitudes are 0
    assert tdm.rho[[0, 2]].tobytes() == ref[[0, 2]].tobytes()
    _, amps = perturbative_pure_state(huge, SPEC2)
    assert all(a[1] == 0.0 for a in amps.values())
    one = dataclasses.replace(regular, eps=eps[1])
    with pytest.raises(NonFinite, match="pair norm is inf"):
        perturbative_density_matrix(one, SPEC2)


def _non_psd_rho():
    """Unit trace, and the reduced state diag(1.5, -0.5, 0) of guide 1."""
    rho = np.zeros((9, 9), dtype=complex)
    rho[3 * 0 + 0, 3 * 0 + 0], rho[3 * 1 + 0, 3 * 1 + 0] = 1.5, -0.5
    return rho


def test_entropy_fails_a_non_psd_point_in_its_own_cell():
    thetas = np.array([0.6, 1.0, 1.4])
    good = perturbative_density_matrix(modes_at(math.pi / 4.0, thetas), SPEC2)
    rho = good.rho.copy()
    rho[1] = _non_psd_rho()
    values = von_neumann_entropy(type(good)(rho=rho, post_selected=True))
    assert isinstance(values[1], NotNormalized)
    assert "reduced state has eigenvalue -0.5 < 0" in str(values[1])
    assert [values[0], values[2]] == von_neumann_entropy(good)[[0, 2]].tolist()
    with pytest.raises(NotNormalized, match="eigenvalue -0.5"):
        von_neumann_entropy(type(good)(rho=_non_psd_rho(), post_selected=True))


def test_entropy_of_a_non_finite_point_is_nan():
    thetas = np.array([0.6, 1.0])
    good = perturbative_density_matrix(modes_at(math.pi / 4.0, thetas), SPEC2)
    rho = good.rho.copy()
    rho[0, 3 * 1 + 1, 3 * 0 + 1] = np.inf  # <11|rho|01>: off the trace
    values = von_neumann_entropy(type(good)(rho=rho, post_selected=True))
    assert values.dtype == float  # no point failed
    assert np.isnan(values[0]) and values[1] == von_neumann_entropy(good)[1]
