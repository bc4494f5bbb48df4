import math

import numpy as np
import pytest

from dcearray.errors import (
    NegativeWeight,
    NotSymmetric,
    RingTooSmall,
    UnsupportedTopology,
)
from dcearray.lattice import (
    ArrayTopology,
    _fix_signs,
    analytic_spectrum,
    build_laplacian,
    eigendecompose,
)


def test_open_chain_two_laplacian():
    lap = build_laplacian(ArrayTopology.open_chain(2))
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_ring_three_laplacian():
    lap = build_laplacian(ArrayTopology.ring(3))
    assert np.array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_open_chain_three_laplacian():
    lap = build_laplacian(ArrayTopology.open_chain(3))
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_chain_and_ring_hold_their_unit_weight_edges():
    assert ArrayTopology.open_chain(3).edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert ArrayTopology.ring(3).edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))


@pytest.mark.parametrize(
    "kind, n",
    [("open_chain", n) for n in (2, 3, 8, 64)] + [("ring", n) for n in (3, 4, 31, 64)],
)
def test_laplacian_is_the_custom_graph_of_its_edges(kind, n):
    top = getattr(ArrayTopology, kind)(n)
    custom = build_laplacian(ArrayTopology.custom(n, top.edges))
    assert np.array_equal(build_laplacian(top), custom)


def test_custom_graph_laplacian_row_sums():
    top = ArrayTopology.custom(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0)])
    lap = build_laplacian(top)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(lap, lap.T)
    assert lap[0, 1] == -2.0


def test_ring_needs_three_nodes():
    with pytest.raises(RingTooSmall):
        ArrayTopology.ring(2)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        ArrayTopology.custom(3, [(0, 1, -1.0)])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        ArrayTopology.custom(3, [(1, 1, 1.0)])


def test_two_waveguide_modes_match_closed_form():
    spec = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))
    assert np.allclose(spec.lambdas, [0.0, 2.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(spec.modes[0], [s, s], atol=1e-14)
    assert np.allclose(spec.modes[1], [s, -s], atol=1e-14)


def test_open_chain_three_eigenvalues():
    spec = eigendecompose(build_laplacian(ArrayTopology.open_chain(3)))
    assert np.allclose(spec.lambdas, [0.0, 1.0, 3.0], atol=1e-12)


def test_ring_three_eigenvalues():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(3)))
    assert np.allclose(spec.lambdas, [0.0, 3.0, 3.0], atol=1e-12)


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetric):
        eigendecompose(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSymmetric):
        eigendecompose(np.zeros((2, 3)))


def test_analytic_open_chain_two():
    spec = analytic_spectrum(ArrayTopology.open_chain(2))
    assert np.allclose(spec.lambdas, [0.0, 2.0])


def test_analytic_ring_31_top_eigenvalue():
    spec = analytic_spectrum(ArrayTopology.ring(31))
    expected = 2.0 - 2.0 * math.cos(30.0 * math.pi / 31.0)
    assert abs(spec.lambdas[-1] - expected) < 1e-12
    assert abs(expected - 3.9897) < 5e-4


def test_analytic_ring_four():
    spec = analytic_spectrum(ArrayTopology.ring(4))
    assert np.allclose(spec.lambdas, [0.0, 2.0, 2.0, 4.0], atol=1e-12)


def test_analytic_rejects_custom_graph():
    with pytest.raises(UnsupportedTopology):
        analytic_spectrum(ArrayTopology.custom(3, [(0, 1, 1.0)]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 13, 31, 64, 127, 128, 256])
@pytest.mark.parametrize("kind", ["open_chain", "ring"])
def test_jacobi_matches_analytic_eigenvalues(kind, n):
    if kind == "ring" and n < 3:
        pytest.skip("ring needs n >= 3")
    maker = getattr(ArrayTopology, kind)
    top = maker(n)
    lap = build_laplacian(top)
    jac = eigendecompose(lap)
    ana = analytic_spectrum(top)
    assert np.max(np.abs(jac.lambdas - ana.lambdas)) < 1e-10
    # eigenvalues alone do not fix the modes; every guide-pair sum
    # sum_n c_n^i c_n^j f(lambda_n) does, even inside a degenerate pair
    pair_sums = [(s.modes.T * np.exp(-s.lambdas)) @ s.modes for s in (ana, jac)]
    assert np.max(np.abs(pair_sums[0] - pair_sums[1])) <= 1e-13
    assert np.max(np.abs(ana.modes @ ana.modes.T - np.eye(n))) <= 1e-12
    assert np.max(np.abs(lap @ ana.modes.T - ana.modes.T * ana.lambdas)) <= 1e-12
    if kind == "ring":  # the cosine and sine of each 0 < q < n / 2 share lambda
        pairs = ana.lambdas[1 : n - (n % 2 == 0)]
        assert np.array_equal(pairs[0::2], pairs[1::2])
        assert np.all(np.diff(ana.lambdas) >= 0.0)
    else:
        assert np.all(np.diff(ana.lambdas) > 0.0)
    for row in ana.modes:
        assert row[int(np.argmax(np.abs(row)))] > 0


def _chain_rows(n):
    """The open chain's closed form, one mode row at a time."""
    i = np.arange(n)
    modes = np.empty((n, n))
    modes[0] = 1.0 / math.sqrt(n)
    for k in range(1, n):
        modes[k] = math.sqrt(2.0 / n) * np.cos(k * math.pi * (2 * i + 1) / (2.0 * n))
    lambdas = np.array([2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n)])
    return lambdas, _fix_signs(modes)


def test_chain_closed_form_is_its_row_loop_to_the_bit():
    for n in [*range(1, 300), 511, 512, 1024, 2047]:
        spec = analytic_spectrum(ArrayTopology.open_chain(n))
        lambdas, modes = _chain_rows(n)
        assert np.array_equal(spec.lambdas, lambdas) and np.array_equal(spec.modes, modes), n


@pytest.mark.parametrize("n", [2, 5, 17])
def test_spectrum_invariants(n):
    lap = build_laplacian(ArrayTopology.open_chain(n))
    spec = eigendecompose(lap)
    assert np.allclose(spec.modes @ spec.modes.T, np.eye(n), atol=1e-12)
    rebuilt = spec.modes.T @ np.diag(spec.lambdas) @ spec.modes
    assert np.max(np.abs(rebuilt - lap)) < 1e-12
    assert spec.lambdas.min() > -1e-12
    assert np.all(np.diff(spec.lambdas) >= -1e-13)


def test_zero_mode_is_uniform():
    spec = eigendecompose(build_laplacian(ArrayTopology.ring(7)))
    assert abs(spec.lambdas[0]) < 1e-12
    assert np.allclose(spec.modes[0], np.full(7, 1.0 / math.sqrt(7)), atol=1e-10)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        lap = m + m.T
        spec = eigendecompose(lap)
        for row in spec.modes:
            assert row[int(np.argmax(np.abs(row)))] > 0


def test_eigenvalues_agree_with_eigvalsh_on_random_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.normal(size=(8, 8))
        sym = m + m.T
        spec = eigendecompose(sym)
        ref = np.sort(np.linalg.eigvalsh(sym))
        assert np.max(np.abs(spec.lambdas - ref)) < 1e-10


def test_degenerate_weighted_graph_decomposition():
    # leaves 1..3 hang off node 0 with equal weight, so any zero-sum vector
    # on them is an eigenvector of eigenvalue 1.5: a two-fold degeneracy
    top = ArrayTopology.custom(
        6, [(0, 1, 1.5), (0, 2, 1.5), (0, 3, 1.5), (0, 4, 0.7), (4, 5, 2.3)]
    )
    lap = build_laplacian(top)
    spec = eigendecompose(lap)
    assert np.sum(np.abs(spec.lambdas - 1.5) < 1e-12) == 2
    assert np.max(np.abs(spec.modes @ spec.modes.T - np.eye(6))) < 1e-12
    rebuilt = spec.modes.T @ np.diag(spec.lambdas) @ spec.modes
    assert np.max(np.abs(lap - rebuilt)) < 1e-12
    assert np.all(np.diff(spec.lambdas) >= 0.0)
    for row in spec.modes:
        assert row[int(np.argmax(np.abs(row)))] > 0
