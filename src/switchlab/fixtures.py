"""Bundled reference data used by the validators, the CLI and the tests:
a small parity-check matrix, worked routing examples, a capacity matrix
with two of its decompositions and the token grids they induce, and the
scheduler comparison table."""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

import numpy as np

from .closmodel import ClosSpec, RoutingTag
from .graphcode import TannerCode
from .matching import CallRequestSet
from .pathswitch import CapacityMatrix
from .sched import TokenGrid, WeightSet

__all__ = [
    "DEFLECTION_A",
    "DEFLECTION_C",
    "CAPACITY_ENTROPY",
    "GRID_TOTALS",
    "WFQ_SELECTIONS",
    "WF2Q_SELECTIONS",
    "parity_check_8x4",
    "eight_port_request_set",
    "eight_port_reference_tags",
    "benes_permutation",
    "capacity_4x4",
    "capacity_4x4_states",
    "capacity_4x4_alt_states",
    "reference_grid",
    "scheduler_table",
    "five_state_weights",
    "load_text",
]


# Published reference values (4 decimals) that `validate` and the acceptance
# tests compare with: the deflection constants a and c at full load, the
# entropy of capacity_4x4, and the smoothness totals of its reference grids.
DEFLECTION_A = 1.4285
DEFLECTION_C = 1.2906
CAPACITY_ENTROPY = 5.1714
GRID_TOTALS = {"wfq": 6.2522, "hurr": 5.3794, "hurr_alt": 5.3392}
# the worked WFQ and WF2Q frames of five_state_weights: the state served in each slot
WFQ_SELECTIONS = (0, 0, 0, 0, 1, 2, 3, 4)
WF2Q_SELECTIONS = (0, 1, 0, 2, 0, 3, 0, 4)


def load_text(name: str) -> str:
    return resources.files("switchlab").joinpath("data", name).read_text()


def parity_check_8x4() -> TannerCode:
    """4-constraint, 8-variable parity matrix used by the decoder tests."""
    rows = [
        [int(tok) for tok in line.split()]
        for line in load_text("parity_8x4.txt").strip().splitlines()
    ]
    return TannerCode.from_rows(rows)


# worked 8-port example: permutation, Clos shape and a known-valid tag set
_EIGHT_PORT_DEST = (1, 3, 2, 0, 6, 4, 7, 5)
_EIGHT_PORT_SPEC = ClosSpec(m=3, n=2, k=4)
_EIGHT_PORT_TAGS = (
    (0, 0, 1),
    (2, 1, 1),
    (0, 1, 0),
    (2, 0, 0),
    (2, 3, 0),
    (1, 2, 0),
    (0, 3, 1),
    (2, 2, 1),
)


def eight_port_request_set() -> CallRequestSet:
    return CallRequestSet.from_permutation(_EIGHT_PORT_DEST, _EIGHT_PORT_SPEC)


def eight_port_reference_tags() -> list[RoutingTag]:
    return [RoutingTag(g, q, r) for g, q, r in _EIGHT_PORT_TAGS]


def benes_permutation() -> tuple[int, ...]:
    """8-port connection request set for the two-module outer stage."""
    return (1, 6, 0, 5, 7, 2, 4, 3)


def capacity_4x4() -> CapacityMatrix:
    """Doubly stochastic 4x4 rate matrix with frame size 8 (crossbar case)."""
    scaled = [
        [6, 0, 1, 1],
        [1, 4, 3, 0],
        [1, 1, 4, 2],
        [0, 3, 0, 5],
    ]
    return CapacityMatrix.from_integer_matrix(scaled, frame_size=8)


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def capacity_4x4_states() -> tuple[tuple[np.ndarray, Fraction], ...]:
    """Five-state decomposition of :func:`capacity_4x4` (weights /8)."""
    identity = np.eye(4, dtype=np.int64)
    p2 = _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    p3 = _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    p4 = _mat([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    p5 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    eighth = Fraction(1, 8)
    return (identity, Fraction(1, 2)), (p2, eighth), (p3, eighth), (p4, eighth), (p5, eighth)


def capacity_4x4_alt_states() -> tuple[tuple[np.ndarray, Fraction], ...]:
    """Four-state decomposition of the same matrix."""
    q1 = _mat([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    q2 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    q3 = _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    q4 = np.eye(4, dtype=np.int64)
    return (q1, Fraction(1, 8)), (q2, Fraction(1, 8)), (q3, Fraction(1, 4)), (q4, Fraction(1, 2))


def five_state_weights() -> WeightSet:
    """Weights of the five-state decomposition (also the worked scheduler
    trace example)."""
    return WeightSet.of("1/2", "1/8", "1/8", "1/8", "1/8")


def reference_grid(name: str) -> TokenGrid:
    """Token grids of the worked 4x4 example: 'wfq', 'hurr' or 'hurr_alt'."""
    return TokenGrid.from_text(load_text(f"grid_{name}.txt"))


def scheduler_table() -> list[dict]:
    """Smoothness comparison rows: four weights, the four scheduler values
    and the entropy floor (all in bits)."""
    raw = [
        ((0.1, 0.1, 0.1, 0.7), 1.628, 1.575, 1.414, 1.414, 1.357),
        ((0.1, 0.1, 0.2, 0.6), 1.894, 1.734, 1.626, 1.604, 1.571),
        ((0.1, 0.1, 0.3, 0.5), 2.040, 1.784, 1.724, 1.702, 1.686),
        ((0.1, 0.2, 0.2, 0.5), 2.123, 1.882, 1.801, 1.772, 1.761),
        ((0.1, 0.1, 0.4, 0.4), 2.086, 1.787, 1.745, 1.745, 1.722),
        ((0.1, 0.2, 0.3, 0.4), 2.229, 1.903, 1.903, 1.884, 1.847),
        ((0.2, 0.2, 0.2, 0.4), 2.312, 2.011, 1.980, 1.933, 1.922),
        ((0.1, 0.3, 0.3, 0.3), 2.286, 1.908, 1.908, 1.908, 1.896),
        ((0.2, 0.2, 0.3, 0.3), 2.370, 2.016, 2.016, 1.980, 1.971),
    ]
    columns = ("random", "wfq", "wf2q", "hurr", "entropy")
    return [{"weights": WeightSet.of(*map(str, ws)), **dict(zip(columns, values))} for ws, *values in raw]
