import math

import numpy as np
import pytest

from dcearray import oracle
from dcearray.drive import DriveParams, LineParams, calibrate_da0_over_grid, mode_response
from dcearray.lattice import ArrayTopology, TopologyKind, build_laplacian, eigendecompose
from dcearray.quantum_state import (
    density_matrix,
    noon_fidelity,
    output_gaussian,
    perturbative_density_matrix,
    thermal_occupation,
    von_neumann_entropy,
    wick_moment,
)

LINE = LineParams(z0=55.0)
SPEC2 = eigendecompose(build_laplacian(ArrayTopology.open_chain(2)))
SPEC3 = eigendecompose(build_laplacian(ArrayTopology.open_chain(3)))


def _drive(**changes):
    values = dict(a0=1e-23, da0=1e-25, phi=0.7, theta=1.0, omega_d=2.0 * math.pi * 10.3e9)
    return DriveParams(**{**values, **changes})


def _state(spectrum):
    return output_gaussian(mode_response(_drive(), LINE, spectrum), spectrum)


# One case per argument check of the library: (call, message it raises)
ARGUMENT_CHECKS = {
    "drive-a0": (lambda: _drive(a0=0.0), "a0 must be positive"),
    "drive-da0": (lambda: _drive(da0=-1e-25), "da0 must be non-negative"),
    "drive-omega-d": (lambda: _drive(omega_d=0.0), "omega_d must be positive"),
    "drive-nan-a0": (lambda: _drive(a0=math.nan), "a0 must be finite, got nan"),
    "drive-inf-a0": (lambda: _drive(a0=math.inf), "a0 must be finite, got inf"),
    "drive-nan-da0": (lambda: _drive(da0=math.nan), "da0 must be finite, got nan"),
    "drive-nan-phi": (lambda: _drive(phi=math.nan), "phi must be finite, got nan"),
    "drive-inf-phi": (lambda: _drive(phi=-math.inf), "phi must be finite, got -inf"),
    "drive-nan-omega-d": (lambda: _drive(omega_d=math.nan), "omega_d must be finite, got nan"),
    "line-z0": (lambda: LineParams(z0=0.0), "z0 must be positive"),
    "line-nan-z0": (lambda: LineParams(z0=math.nan), "z0 must be finite, got nan"),
    "calibrate-target": (
        lambda: calibrate_da0_over_grid(_drive(), LINE, SPEC2, 1.0),
        r"target occupancy must lie in \(0, 1\)",
    ),
    "calibrate-seed": (
        lambda: calibrate_da0_over_grid(_drive(da0=0.0), LINE, SPEC2, 0.1),
        "need a positive da0 seed",
    ),
    "topology-n": (
        lambda: ArrayTopology(TopologyKind.OPEN_CHAIN, 0, ()),
        "need at least one waveguide, got n=0",
    ),
    "topology-float-n": (
        lambda: ArrayTopology.custom(2.5, [(0, 1, 1.0)]),
        "number of waveguides n=2.5 is not an integer",
    ),
    "topology-bool-n": (
        lambda: ArrayTopology.open_chain(True),
        "number of waveguides n=True is not an integer",
    ),
    "topology-edge": (
        lambda: ArrayTopology.custom(2, [(0, 2, 1.0)]),
        r"edge \(0,2\) outside 0..1",
    ),
    "topology-node-index": (
        lambda: ArrayTopology.custom(3, [(0, 0.5, 1.0)]),
        r"edge \(0,0.5\) has a node index that is not an integer",
    ),
    "topology-nan-weight": (
        lambda: ArrayTopology.custom(3, [(0, 1, math.nan), (1, 2, 1.0)]),
        r"edge \(0,1\) has weight nan, which is not finite",
    ),
    "topology-inf-weight": (
        lambda: ArrayTopology.custom(3, [(0, 1, 1.0), (1, 2, math.inf)]),
        r"edge \(1,2\) has weight inf, which is not finite",
    ),
    "topology-str-weight": (
        lambda: ArrayTopology.custom(2, [(0, 1, "1")]),
        r"edge \(0, 1, '1'\) has weight '1', which is not a real number",
    ),
    "topology-complex-weight": (
        lambda: ArrayTopology.custom(2, [(0, 1, 1j)]),
        r"edge \(0, 1, 1j\) has weight 1j, which is not a real number",
    ),
    "topology-pair-edge": (
        lambda: ArrayTopology.custom(2, [(0, 1)]),
        r"edge \(0, 1\) is not an \(i, j, weight\) triple",
    ),
    "eigendecompose-complex": (
        lambda: eigendecompose(np.array([[1, 1j], [-1j, 1]])),
        "input matrix is complex; only a real symmetric matrix is diagonalized",
    ),
    "eigendecompose-nan": (
        lambda: eigendecompose(np.array([[math.nan, 0.0], [0.0, 1.0]])),
        "input matrix is not finite",
    ),
    "eigendecompose-scalar": (
        lambda: eigendecompose(np.float64(1.0)),
        r"input matrix has shape \(\), not a non-empty 2-D array",
    ),
    "eigendecompose-empty": (
        lambda: eigendecompose(np.zeros((0, 0))),
        r"input matrix has shape \(0, 0\), not a non-empty 2-D array",
    ),
    "thermal-occupation": (
        lambda: thermal_occupation(1.0, -1e-3), "temperature must be non-negative"
    ),
    "thermal-occupation-nan": (
        lambda: thermal_occupation(1.0, math.nan), "temperature must be finite, got nan"
    ),
    "thermal-occupation-inf": (
        lambda: thermal_occupation(1.0, math.inf), "temperature must be finite, got inf"
    ),
    "wick-mode": (
        lambda: wick_moment(_state(SPEC2), [(2, True)]), "mode index 2 outside 0..1"
    ),
    "density-matrix-modes": (
        lambda: density_matrix(_state(SPEC3)),
        "density_matrix covers the two-waveguide case only",
    ),
    "perturbative-density-matrix-guides": (
        lambda: perturbative_density_matrix(mode_response(_drive(), LINE, SPEC3), SPEC3),
        "qutrit density matrix covers two waveguides only",
    ),
    "entropy-subsystem": (
        lambda: von_neumann_entropy(density_matrix(_state(SPEC2)), traced_subsystem=2),
        "traced_subsystem must be 0 or 1",
    ),
    "fidelity-post-selected": (
        lambda: noon_fidelity(density_matrix(_state(SPEC2), post_select=False)),
        "fidelity expects a post-selected state",
    ),
}


@pytest.mark.parametrize("case", list(ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(case):
    call, message = ARGUMENT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_oracle_empty_word_is_the_trace():
    state = oracle.build_state([0.2, -0.1], SPEC2.modes, n_thermal=0.05, cutoff=16)
    assert abs(oracle.moment(state, ()) - 1.0) <= 1e-12
