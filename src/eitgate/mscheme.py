"""Effective collective model of the five-level medium.

Builds the 18-state Hamiltonian, the decay and dephasing channels, and
the Liouvillian superoperator of the master equation in which the driven
medium behaves as a single effective five-level atom with collectively
enhanced couplings g√N_a and single-atom decay/dephasing rates.

All frequencies and rates are in units of the reference decay rate γ and
time is in units of 1/γ; γ itself in rad/s enters only where SI output
is needed (see the group-velocity module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import M_STATES

# Operators are dense arrays.
OperatorMatrix = np.ndarray


class Superoperator(NamedTuple):
    """A square matrix in compressed sparse rows, in numpy arrays alone:
    row i stores data[indptr[i]:indptr[i+1]] at the columns indices[...].

    As a 3-tuple it is the (data, indices, indptr) argument of scipy's
    csr_matrix, and it has the attributes of a canonical scipy CSR matrix
    that the propagator reads, so either can be passed.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        """Dense form, a stored -0.0 read as +0.0 (see dense_block)."""
        return dense_block(self, np.arange(self.shape[0]))


def dense_block(L: Superoperator, e: np.ndarray) -> np.ndarray:
    """Dense L[e][:, e] of a CSR matrix L, a Superoperator or a canonical
    scipy one, for distinct indices e. Entries are summed into zeros, as
    scipy's toarray does, so a stored -0.0 reads +0.0."""
    at = np.full(L.shape[0], -1)
    at[e] = np.arange(len(e))
    rows, cols = np.repeat(at, np.diff(L.indptr)), at[L.indices]
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((len(e), len(e)), dtype=L.data.dtype)
    np.add.at(out, (rows[keep], cols[keep]), L.data[keep])
    return out


GAMMA_SI_DEFAULT = 2.0 * math.pi * 6.0e6  # rad/s

# (source label, target label, params attribute) for the six decay channels.
_DECAYS = (
    ("E2", "E1", "gamma21"),
    ("E2", "G", "gamma23"),
    ("E2", "E5", "gamma25"),
    ("E4", "E1", "gamma41"),
    ("E4", "G", "gamma43"),
    ("E4", "E5", "gamma45"),
)

# A dephasing channel maps each label onto itself.
_DEPHASINGS = (
    ("E1", "E1", "gamma_deph_1"),
    ("E2", "E2", "gamma_deph_2"),
    ("E4", "E4", "gamma_deph_4"),
    ("E5", "E5", "gamma_deph_5"),
)


@dataclass(frozen=True)
class MSchemeParams:
    """Physical parameters of the five-level model, in units of γ."""

    N_a: float = 1.0
    g_p: float = 0.0
    g_t: float = 0.0
    Omega1: float = 0.0
    Omega4: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0
    eps12: float = 0.0
    eps34: float = 0.0
    gamma21: float = 0.0
    gamma23: float = 0.0
    gamma25: float = 0.0
    gamma41: float = 0.0
    gamma43: float = 0.0
    gamma45: float = 0.0
    gamma_deph_1: float = 0.0
    gamma_deph_2: float = 0.0
    gamma_deph_4: float = 0.0
    gamma_deph_5: float = 0.0
    gamma_SI: float = GAMMA_SI_DEFAULT

    def __post_init__(self):
        if self.N_a < 1:
            raise ValueError("N_a must be >= 1")
        rates = [getattr(self, a) for _, _, a in _DECAYS + _DEPHASINGS]
        if any(r < 0 for r in rates):
            raise ValueError("decay and dephasing rates must be >= 0")
        if self.gamma_SI <= 0:
            raise ValueError("gamma_SI must be positive")
        for v in (self.delta1, self.delta4):
            if not math.isfinite(v):
                raise ValueError("derived detunings must be finite")

    @property
    def delta1(self) -> float:
        return self.delta2 + self.eps12

    @property
    def delta4(self) -> float:
        return self.delta3 - self.eps34


@dataclass(frozen=True)
class JumpChannel:
    """One Lindblad channel: rate (units γ), operator, and its kind."""

    rate: float
    op: OperatorMatrix = field(repr=False)
    kind: str  # "decay" | "dephasing"


def transition_operator(states, src, dst, shift=(0, 0), weight=None) -> OperatorMatrix:
    """Σ w(n_p,n_t) |dst,n_p+Δp,n_t+Δt><src,n_p,n_t| on a product basis.

    states lists the basis as (label, n_p, n_t) tuples and shift is
    (Δp, Δt); terms whose image leaves the basis are dropped. weight
    maps the source photon numbers to the amplitude and defaults to 1,
    so src == dst with no shift is the projector on one label.
    """
    index = {s: i for i, s in enumerate(states)}
    op = np.zeros((len(states), len(states)), dtype=complex)
    for i, (label, n_p, n_t) in enumerate(states):
        j = index.get((dst, n_p + shift[0], n_t + shift[1]))
        if label == src and j is not None:
            op[j, i] = 1.0 if weight is None else weight(n_p, n_t)
    return op


def assemble_hamiltonian(states, energy, couplings) -> OperatorMatrix:
    """Hamiltonian on (label, n_p, n_t) states: energy[label] on the
    diagonal plus strength (T + T†) for each (strength, src, dst, shift,
    weight) row, with T = transition_operator(states, src, dst, shift, weight)."""
    H = np.zeros((len(states), len(states)), dtype=complex)
    for strength, src, dst, shift, weight in couplings:
        T = transition_operator(states, src, dst, shift, weight)
        H += strength * (T + T.conj().T)
    np.fill_diagonal(H, [energy[label] for label, _, _ in states])
    return H


def assemble_channels(states, rows) -> list[JumpChannel]:
    """Channels on (label, n_p, n_t) states from (rate, src, dst) rows, with
    operator transition_operator(states, src, dst): a dephasing if src ==
    dst, a decay otherwise. Zero-rate rows are omitted."""
    return [
        JumpChannel(
            rate, transition_operator(states, src, dst), "dephasing" if src == dst else "decay"
        )
        for rate, src, dst in rows
        if rate != 0.0
    ]


def build_hamiltonian(params: MSchemeParams, states=M_STATES) -> OperatorMatrix:
    """Hermitian Hamiltonian on the (label, n_p, n_t) states, units of γ.

    Classical fields swap the excited label at fixed photon numbers.
    Quantized fields turn an excitation into a photon of the matching
    mode, with the bosonic √(n+1) factor of the created photon. Terms
    leaving the states are dropped, so a subset of the 18-state basis
    gives the slice of the full Hamiltonian.
    """
    energy = {
        "G": 0.0,
        "E1": params.eps12,
        "E2": params.delta2,
        "E4": params.delta3,
        "E5": params.eps34,
    }
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)
    couplings = (
        (params.Omega1, "E2", "E1", (0, 0), None),
        (params.Omega4, "E4", "E5", (0, 0), None),
        (gp, "E2", "G", (1, 0), lambda n_p, n_t: math.sqrt(n_p + 1)),
        (gt, "E4", "G", (0, 1), lambda n_p, n_t: math.sqrt(n_t + 1)),
    )
    return assemble_hamiltonian(states, energy, couplings)


def build_jump_channels(params: MSchemeParams, states=M_STATES) -> list[JumpChannel]:
    """Decay and dephasing channels of the effective master equation.

    Decay operators map every upper-label state to the matching
    lower-label state with unit amplitude, preserving photon numbers
    (the medium acts as a single effective atom, so the cross channels
    2->1, 2->5, 4->1, 4->5 carry the same unit amplitude as the channels
    back to the ground level). Dephasing operators are 0/1 projectors on
    the states carrying a given excited label. Zero-rate channels are
    omitted. The operators act on states, as in build_hamiltonian.
    """
    rows = [(getattr(params, attr), src, dst) for src, dst, attr in _DECAYS + _DEPHASINGS]
    return assemble_channels(states, rows)


def build_liouvillian(H: OperatorMatrix, channels: list[JumpChannel]) -> Superoperator:
    """Superoperator L with vec(ρ̇) = L vec(ρ), column-major vectorization.

    Encodes -i(Hρ - ρH†) + Σ (γ/2)(2 S ρ S† - S†S ρ - ρ S†S), which is
    -i[H,ρ] for Hermitian H; a non-Hermitian H carries the no-jump drift
    of the conditional generators. Works for any dimension (the
    semiclassical and ladder models reuse it).

    L is assembled in CSR form from the nonzeros of each Kronecker
    factor pair, summed in the order of the dense expression so that
    L.toarray() equals the dense np.kron assembly bit for bit.
    """
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("H must be square")
    eye = np.eye(n)
    pairs = [(eye, H), (H.conj(), eye)]
    for ch in channels:
        if ch.op.shape != (n, n):
            raise ValueError("channel operator dimension mismatch")
        SdS = ch.op.conj().T @ ch.op
        pairs += [(ch.op.conj(), ch.op), (eye, SdS), (SdS.T, eye)]
    # Each kron(A, B) as COO keys row * n² + column over the factors' nonzeros.
    coo = []
    for A, B in pairs:
        (ia, ja), (ib, jb) = np.nonzero(A), np.nonzero(B)
        key = ((ia[:, None] * n + ib) * (n * n) + ja[:, None] * n + jb).ravel()
        coo.append((key, (A[ia, ja][:, None] * B[ib, jb]).ravel()))
    union = np.unique(np.concatenate([key for key, _ in coo]))
    terms = [np.zeros(union.size, dtype=complex) for _ in coo]
    for t, (key, value) in zip(terms, coo):
        t[np.searchsorted(union, key)] = value
    data = -1j * (terms[0] - terms[1])
    for m, ch in enumerate(channels):
        K3, K4, K5 = terms[2 + 3 * m : 5 + 3 * m]
        data += (ch.rate / 2.0) * (2.0 * K3 - K4 - K5)
    rows, cols = np.divmod(union, n * n)
    indptr = np.searchsorted(rows, np.arange(n * n + 1))
    return Superoperator(data, cols, indptr)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of vec."""
    if n is None:
        n = round(math.isqrt(v.size))
    return v.reshape((n, n), order="F")


# The probe, trigger and probe+trigger sectors of one and two photons.
SECTORS = (
    (("G", 1, 0), ("E2", 0, 0), ("E1", 0, 0)),
    (("G", 0, 1), ("E4", 0, 0), ("E5", 0, 0)),
    (("E1", 0, 1), ("E2", 0, 1), ("G", 1, 1), ("E4", 1, 0), ("E5", 1, 0)),
)


def reduced_hamiltonians(
    params: MSchemeParams,
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """The 3x3, 3x3 and 5x5 single- and two-photon sector Hamiltonians.

    Built on the probe sector, the trigger sector, and the probe+trigger
    sector (ordered E1, E2, ground, E4, E5).
    """
    return tuple(build_hamiltonian(params, states=states) for states in SECTORS)
