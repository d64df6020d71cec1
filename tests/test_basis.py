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
    assert basis.M_STATES == EXPECTED_ORDER


def test_field_order_is_frozen():
    assert basis.FIELD_DIM == 6
    assert tuple(basis.FIELD_BASIS) == EXPECTED_FIELDS


def test_field_index_round_trip():
    for f, (n_p, n_t) in enumerate(basis.FIELD_BASIS):
        assert basis.field_index(n_p, n_t) == f


def test_qubit_block_maps_to_ground_photon_states():
    assert basis.QUBIT_M_INDICES == (0, 4, 1, 7)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    assert basis.FIELD_BASIS[:4] == pairs
    for m, (n_p, n_t) in zip(basis.QUBIT_M_INDICES, pairs):
        assert basis.M_STATES[m] == ("G", n_p, n_t)


def test_state_names():
    names = basis.state_names(basis.M_STATES)
    assert len(names) == 18
    assert names[0] == "G_0_0"
    assert names[13] == "E2_1_0"


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
    assert (atom, n_p, n_t) not in basis.M_STATES


def test_unreachable_photon_pair_rejected():
    with pytest.raises(ValueError):
        basis.field_index(2, 1)
    with pytest.raises(ValueError):
        basis.field_index(1, 2)


def test_every_state_has_at_most_two_quanta():
    for atom, n_p, n_t in basis.M_STATES:
        quanta = (0 if atom == "G" else 1) + n_p + n_t
        assert quanta <= 2
