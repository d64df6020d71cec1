"""Restricted Hilbert-space bases for the collective five-level model.

The medium plus the two quantized field modes is described in a basis of
18 product states: the collective atomic label (all atoms in the ground
level, or exactly one atom promoted to level 1, 2, 4 or 5) times the
probe/trigger photon numbers.  Only combinations with at most two total
excitations are reachable, and the ordering below is canonical so that
matrices are comparable bit-for-bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass


# Collective atomic labels. "G" is the fully unexcited medium (all atoms
# in level 3); "Ek" is the symmetric state with one atom in level k.
ATOM_LABELS = ("G", "E1", "E2", "E4", "E5")


@dataclass(frozen=True)
class MBasisState:
    """One collective product state: atomic label and photon numbers."""

    atom: str
    n_p: int
    n_t: int

    def __post_init__(self):
        if self.atom not in ATOM_LABELS:
            raise ValueError(f"unknown atomic label {self.atom!r}")
        excitation = (0 if self.atom == "G" else 1) + self.n_p + self.n_t
        if not (0 <= self.n_p <= 2 and 0 <= self.n_t <= 2) or excitation > 2:
            raise ValueError(
                f"state ({self.atom},{self.n_p},{self.n_t}) outside the restricted space"
            )

    @property
    def name(self) -> str:
        return f"{self.atom}_{self.n_p}_{self.n_t}"


# Canonical ordering of the 18 reachable states. Indices 0-11 span the
# four sectors connected by the Hamiltonian; 12-17 are reached only
# through the cross decay channels 2->1 and 4->5 (and level swaps).
_M_BASIS_ORDER = (
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

M_BASIS: tuple[MBasisState, ...] = tuple(MBasisState(*s) for s in _M_BASIS_ORDER)
M_DIM = len(M_BASIS)

_M_INDEX = {(s.atom, s.n_p, s.n_t): i for i, s in enumerate(M_BASIS)}

# Reachable photon-number pairs. The first four form the qubit block in
# the order |00>, |01>, |10>, |11>; (2,0) and (0,2) are leakage states.
FIELD_BASIS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))
FIELD_DIM = len(FIELD_BASIS)
QUBIT_BLOCK = (0, 1, 2, 3)

# Positions of the four qubit product states (atoms unexcited, photon
# numbers in the qubit block) inside the 18-state ordering.
QUBIT_M_INDICES = (0, 4, 1, 7)

_FIELD_INDEX = {pair: i for i, pair in enumerate(FIELD_BASIS)}


def m_index(atom: str, n_p: int, n_t: int) -> int:
    """Index of a collective product state in the canonical ordering."""
    try:
        return _M_INDEX[(atom, n_p, n_t)]
    except KeyError:
        raise ValueError(f"({atom},{n_p},{n_t}) is not in the restricted basis") from None


def field_index(n_p: int, n_t: int) -> int:
    """Index of a photon-number pair in the reachable field basis."""
    try:
        return _FIELD_INDEX[(n_p, n_t)]
    except KeyError:
        raise ValueError(f"photon pair ({n_p},{n_t}) is not reachable") from None
