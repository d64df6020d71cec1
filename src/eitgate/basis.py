"""Restricted Hilbert-space bases for the collective five-level model.

The medium plus the two quantized field modes is described in a basis of
18 product states: the collective atomic label (all atoms in the ground
level, or exactly one atom promoted to level 1, 2, 4 or 5) times the
probe/trigger photon numbers.  Only combinations with at most two total
excitations are reachable, and the ordering below is canonical so that
matrices are comparable bit-for-bit across runs. A state is a (label,
n_p, n_t) tuple; state_names and qubit_positions read any such table,
the ladder's included, and so do the readout maps of GateTrajectories.image.
"""

from __future__ import annotations

import numpy as np


# Collective atomic labels. "G" is the fully unexcited medium (all atoms
# in level 3); "Ek" is the symmetric state with one atom in level k.
ATOM_LABELS = ("G", "E1", "E2", "E4", "E5")


# Canonical ordering of the 18 reachable states. Indices 0-11 span the
# four sectors connected by the Hamiltonian; 12-17 are reached only
# through the cross decay channels 2->1 and 4->5 (and level swaps).
M_STATES: tuple[tuple[str, int, int], ...] = (
    ("G", 0, 0),
    ("G", 1, 0),
    ("E2", 0, 0),
    ("E1", 0, 0),
    ("G", 0, 1),
    ("E4", 0, 0),
    ("E5", 0, 0),
    ("G", 1, 1),
    ("E2", 0, 1),
    ("E1", 0, 1),
    ("E4", 1, 0),
    ("E5", 1, 0),
    ("E1", 1, 0),
    ("E2", 1, 0),
    ("G", 2, 0),
    ("E5", 0, 1),
    ("E4", 0, 1),
    ("G", 0, 2),
)

M_DIM = len(M_STATES)

# Reachable photon-number pairs. The first four form the qubit block in
# the order |00>, |01>, |10>, |11>; (2,0) and (0,2) are leakage states.
FIELD_BASIS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))
FIELD_DIM = len(FIELD_BASIS)

_FIELD_INDEX = {pair: i for i, pair in enumerate(FIELD_BASIS)}


def state_names(states) -> tuple[str, ...]:
    """Names "label_n_p_n_t" of (label, n_p, n_t) states, in their order."""
    return tuple(f"{label}_{n_p}_{n_t}" for label, n_p, n_t in states)


def qubit_positions(states, ground: str) -> tuple[int, ...]:
    """Positions in states of the four qubit product states: label
    ground with the photon pairs |00>, |01>, |10>, |11>."""
    return tuple(states.index((ground, *pair)) for pair in FIELD_BASIS[:4])


QUBIT_M_INDICES = qubit_positions(M_STATES, "G")


def qubit_cells(states) -> np.ndarray:
    """Map of the 4x4 qubit block, the atomic label traced out: entry
    a + n·b goes to cell 4i + j when states a and b share their label and
    carry the photon pairs FIELD_BASIS[i] and FIELD_BASIS[j]; else -1."""
    q = np.array([_FIELD_INDEX.get((n_p, n_t), 4) for _, n_p, n_t in states])
    codes: dict[str, int] = {}
    label = np.array([codes.setdefault(s[0], len(codes)) for s in states])
    same = (label[:, None] == label) & (q[:, None] < 4) & (q < 4)
    return np.where(same, 4 * q[:, None] + q, -1).ravel(order="F")


def _diagonal_cells(cells) -> np.ndarray:
    """Map of entry a + n·a to cells[a]; every other entry is -1."""
    out = np.full(len(cells) ** 2, -1)
    out[:: len(cells) + 1] = cells
    return out


def population_cells(states) -> np.ndarray:
    """Map of the populations: entry a + n·a goes to cell a."""
    return _diagonal_cells(np.arange(len(states)))


def trace_cells(states) -> np.ndarray:
    """Map of the trace: the whole diagonal goes to cell 0."""
    return _diagonal_cells(np.zeros(len(states), dtype=int))


def edge_cells(states) -> np.ndarray:
    """Map of the truncation-edge population: the diagonal entries of states
    with n_p or n_t at the table's largest (a ladder's n_max) go to cell 0."""
    top = max(max(s[1:]) for s in states)
    return _diagonal_cells([0 if top in s[1:] else -1 for s in states])


def field_index(n_p: int, n_t: int) -> int:
    """Index of a photon-number pair in the reachable field basis."""
    try:
        return _FIELD_INDEX[(n_p, n_t)]
    except KeyError:
        raise ValueError(f"photon pair ({n_p},{n_t}) is not reachable") from None
