"""Frozen state ordering and index maps of the restricted space."""
import pytest

from eitgate import basis

EXPECTED_ORDER = (
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

EXPECTED_FIELDS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))


def test_canonical_order_is_frozen():
    assert basis.M_DIM == 18
    assert tuple((s.atom, s.n_p, s.n_t) for s in basis.M_BASIS) == EXPECTED_ORDER


def test_field_order_is_frozen():
    assert basis.FIELD_DIM == 6
    assert tuple(basis.FIELD_BASIS) == EXPECTED_FIELDS


def test_state_index_round_trip():
    for i, s in enumerate(basis.M_BASIS):
        assert basis.m_index(s.atom, s.n_p, s.n_t) == i


def test_field_index_round_trip():
    for f, (n_p, n_t) in enumerate(basis.FIELD_BASIS):
        assert basis.field_index(n_p, n_t) == f


def test_qubit_block_maps_to_ground_photon_states():
    assert basis.QUBIT_BLOCK == (0, 1, 2, 3)
    assert basis.QUBIT_M_INDICES == (0, 4, 1, 7)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    for m, (n_p, n_t) in zip(basis.QUBIT_M_INDICES, pairs):
        s = basis.M_BASIS[m]
        assert s.atom == "G" and (s.n_p, s.n_t) == (n_p, n_t)
    for f, (n_p, n_t) in zip(basis.QUBIT_BLOCK, pairs):
        assert basis.FIELD_BASIS[f] == (n_p, n_t)


def test_state_names():
    assert basis.M_BASIS[0].name == "G_0_0"
    assert basis.M_BASIS[13].name == "E2_1_0"


@pytest.mark.parametrize(
    "atom,n_p,n_t",
    [
        ("X", 0, 0),
        ("G", 3, 0),
        ("G", 0, -1),
        ("G", 2, 1),  # three quanta
        ("E2", 1, 1),  # three quanta counting the excitation
        ("E1", 2, 0),
        ("E4", 0, 2),
    ],
)
def test_unreachable_states_rejected(atom, n_p, n_t):
    with pytest.raises(ValueError):
        basis.MBasisState(atom, n_p, n_t)
    with pytest.raises(ValueError):
        basis.m_index(atom, n_p, n_t)


def test_unreachable_photon_pair_rejected():
    with pytest.raises(ValueError):
        basis.field_index(2, 1)
    with pytest.raises(ValueError):
        basis.field_index(1, 2)


def test_every_state_has_at_most_two_quanta():
    for s in basis.M_BASIS:
        quanta = (0 if s.atom == "G" else 1) + s.n_p + s.n_t
        assert quanta <= 2
