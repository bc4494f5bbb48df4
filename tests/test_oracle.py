import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from dcearray import oracle
from dcearray.errors import CutoffTooSmall
from dcearray.oracle import (
    FockSpace,
    build_state,
    fock_block,
    fock_element,
    moment,
    normal_moments,
)

C2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# normal modes of an open three-guide chain, one mode per row
C3 = np.array(
    [
        [0.5, math.sqrt(0.5), 0.5],
        [math.sqrt(0.5), 0.0, -math.sqrt(0.5)],
        [0.5, -math.sqrt(0.5), 0.5],
    ]
)


def test_ladder_commutator_below_cutoff():
    space = FockSpace(1, cutoff=8)
    a = space.lower[0]
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)


def test_vacuum_state_for_zero_squeeze():
    state = build_state([0.0], np.eye(1))
    vac = np.zeros((9, 9))
    vac[0, 0] = 1.0
    assert np.allclose(state.rho, vac, atol=1e-14)
    assert fock_element(state, (0,), (0,)) == pytest.approx(1.0)


def test_single_mode_squeezed_occupancy():
    state = build_state([0.2], np.eye(1), cutoff=16)
    occ = moment(state, [(0, True), (0, False)])
    assert occ.real == pytest.approx(0.04, abs=1e-10)
    assert abs(occ.imag) < 1e-12


def test_single_mode_anomalous_moment():
    eps = 0.2
    state = build_state([eps], np.eye(1), cutoff=16)
    pair = moment(state, [(0, False), (0, False)])
    assert pair == pytest.approx(-1j * eps * math.sqrt(1 + eps**2), abs=1e-10)


def test_symmetric_pair_has_no_cross_moment():
    state = build_state([0.15, 0.15], C2, cutoff=14)
    cross = moment(state, [(0, False), (1, False)])
    assert abs(cross) < 1e-10


def test_thermal_occupancy_adds():
    state = build_state([0.0], np.eye(1), n_thermal=0.1, cutoff=20)
    occ = moment(state, [(0, True), (0, False)])
    assert occ.real == pytest.approx(0.1, abs=1e-10)


def test_trace_is_one():
    state = build_state([0.25, -0.1], C2, n_thermal=0.05, cutoff=16, deficit_tol=1e-6)
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-8)


def test_cutoff_guard_trips():
    with pytest.raises(CutoffTooSmall):
        build_state([0.3], np.eye(1), n_thermal=0.2, cutoff=4, deficit_tol=1e-10)


def test_cutoff_convergence():
    # Cauchy test between successive cutoffs on a fourth moment
    vals = []
    for cutoff in (6, 8, 10):
        state = build_state([0.1, -0.05], C2, cutoff=cutoff, deficit_tol=1e-6)
        vals.append(moment(state, [(0, True), (0, True), (0, False), (0, False)]))
    assert abs(vals[1] - vals[0]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-10


def test_mode_limit():
    with pytest.raises(ValueError):
        FockSpace(4, cutoff=4)


def test_too_small_cutoff_is_rejected_before_the_register(monkeypatch):
    built = []

    class Counted(FockSpace):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracle, "FockSpace", Counted)
    with pytest.raises(CutoffTooSmall):
        build_state([0.3, -0.3], C2, n_thermal=0.2, cutoff=8, deficit_tol=1e-9)
    assert built == []
    # an unsupported register is still a ValueError, whatever the tolerance
    for eps, cutoff in (([0.3] * 4, 8), ([0.3, -0.3], 1)):
        with pytest.raises(ValueError):
            build_state(eps, np.eye(len(eps)), n_thermal=0.2, cutoff=cutoff,
                        deficit_tol=1e-9)


@pytest.mark.parametrize("cutoff", [8, 32])
@pytest.mark.parametrize("eps", [-0.3, -0.1, 0.05, 0.3])
def test_squeeze_matches_matrix_exponential(cutoff, eps):
    a = FockSpace(1, cutoff).lower[0]
    r = math.asinh(eps)
    reference = expm(-0.5j * r * (a @ a + a.T @ a.T))
    squeeze = oracle._squeeze(r, cutoff + 1)
    assert np.max(np.abs(squeeze - reference)) <= 1e-12


def test_normal_moments_match_single_calls():
    # the per-mode expansion against dense operator products, for two
    # thermal modes, a three-mode thermal state, two modes at T = 0 (each
    # F_n has rank one) and one mode
    for eps, c_matrix, n_thermal, cutoff, count in (
        ([0.2, -0.1], C2, 0.05, 12, 45),
        ([0.1, -0.08, 0.05], C3, 0.02, 6, 147),
        ([0.2, -0.1], C2, 0.0, 12, 45),
        ([0.2], np.eye(1), 0.05, 12, 8),
    ):
        state = build_state(
            eps, c_matrix, n_thermal=n_thermal, cutoff=cutoff, deficit_tol=1e-6
        )
        table = normal_moments(state, totals=(2, 4))
        assert len(table) == count
        for (dag, low), value in table.items():
            word = [(i, True) for i, d in enumerate(dag) for _ in range(d)]
            word += [(i, False) for i, k in enumerate(low) for _ in range(k)]
            assert value == pytest.approx(moment(state, word), abs=1e-12)


def test_fock_block_matches_single_elements():
    # the per-mode block against dense number vectors, also where the
    # block's photon numbers pass the register's top level
    for eps, c_matrix, n_thermal, cutoff in (
        ([0.15, 0.1], C2, 0.02, 12),
        ([1e-4, -1e-4], C2, 0.0, 2),
        ([0.01, -0.008, 0.005], C3, 0.0, 4),
    ):
        state = build_state(
            eps, c_matrix, n_thermal=n_thermal, cutoff=cutoff, deficit_tol=1e-6
        )
        block = fock_block(state, levels=3)
        counts = list(product(range(3), repeat=len(eps)))
        assert block.shape == (len(counts), len(counts))
        for row, bra in enumerate(counts):
            for col, ket in enumerate(counts):
                assert block[row, col] == pytest.approx(
                    fock_element(state, bra, ket), abs=1e-14
                )


def test_per_mode_paths_leave_the_dense_register_unbuilt():
    # the corner of criterion 6's box at cutoff 32: a 1089-dim register
    state = build_state(
        [0.3, -0.3], C2, n_thermal=0.2, cutoff=32, deficit_tol=1e-9
    )
    normal_moments(state, totals=(2, 4))
    fock_block(state, levels=3)
    assert not {"rho", "a_ops"} & set(vars(state))
    assert "lower" not in vars(state.space)
    # the dense operators, built on a later call, agree with the table
    state = build_state(
        [0.3, -0.3], C2, n_thermal=0.2, cutoff=20, deficit_tol=1e-6
    )
    table = normal_moments(state, totals=(2, 4))
    assert not {"rho", "a_ops"} & set(vars(state))
    for (dag, low), value in table.items():
        word = [(i, True) for i, d in enumerate(dag) for _ in range(d)]
        word += [(i, False) for i, k in enumerate(low) for _ in range(k)]
        assert value == pytest.approx(moment(state, word), abs=1e-12)


def test_fock_element_matches_moment_structure():
    state = build_state([0.12, 0.12], C2, cutoff=12)
    # <20| rho |02> relates to the fourth moment <a1^2 (a2^dag)^2> / 2
    elem = fock_element(state, (2, 0), (0, 2))
    assert abs(elem) > 0.0
    assert abs(elem.imag) < 1e-12


def test_memoised_expansions_serve_alternating_bases():
    # chain-2, a rotated two-mode basis and a three-mode basis take turns
    # through the per-mode paths; the first two share every memo key but
    # the basis
    turn = np.array([[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]])
    states = [
        build_state([0.15, -0.1], C2, n_thermal=0.02, cutoff=12, deficit_tol=1e-6),
        build_state([0.01, -0.008, 0.005], C3, cutoff=4, deficit_tol=1e-6),
        build_state([0.15, -0.1], turn, n_thermal=0.02, cutoff=12, deficit_tol=1e-6),
    ]
    for _ in range(2):
        for state in states:
            for (dag, low), value in normal_moments(state, totals=(2, 4)).items():
                word = [(i, True) for i, d in enumerate(dag) for _ in range(d)]
                word += [(i, False) for i, k in enumerate(low) for _ in range(k)]
                assert abs(value - moment(state, word)) <= 1e-12
            counts = list(product(range(3), repeat=state.space.n_modes))
            block = fock_block(state, levels=3)
            for row, bra in enumerate(counts):
                for col, ket in enumerate(counts):
                    assert abs(block[row, col] - fock_element(state, bra, ket)) <= 1e-12


def test_memoised_expansion_is_read_only():
    words = [(0, 0), (1, 0), (1, 1)]
    coeffs = oracle._expansion(C2, words, 2)
    assert oracle._expansion(C2.copy(), list(words), 2) is coeffs
    with pytest.raises(ValueError, match="read-only"):
        coeffs[0, 0] = 2.0
