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

class Superoperator(NamedTuple):
    """A square matrix in compressed sparse rows, in numpy arrays alone:
    row i stores data[indptr[i]:indptr[i+1]] at the columns indices[...].

    As a 3-tuple it is the (data, indices, indptr) argument of scipy's
    csr_matrix, and it has the attributes of a canonical scipy CSR matrix
    that the propagator reads, so either can be passed.

    data of shape (..., nnz) is a stack of matrices on the one pattern;
    matrix k of a 1-D stack is L._replace(data=L.data[k]). toarray reads
    one matrix; dynamics.propagate_stack runs a stack one matrix at a time.
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
        """Stored entries per matrix."""
        return self.indices.size

    def toarray(self) -> np.ndarray:
        """Dense form, a stored -0.0 read as +0.0 (see BlockIndex.gather)."""
        return BlockIndex.of(self, np.arange(self.shape[0])).gather(self.data)


class BlockIndex(NamedTuple):
    """Where the stored entries of a CSR pattern, a Superoperator's or a
    canonical scipy one's, land in the dense blocks L[e][:, e] of a stack
    e (g, n) of disjoint index sets: the data positions source go to the
    flat offsets target of an array of the given shape. It depends on the
    pattern alone, so it serves every matrix of a stack."""

    source: np.ndarray
    target: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, L: Superoperator, e: np.ndarray) -> BlockIndex:
        e = np.asarray(e)
        n = e.shape[-1]
        at = np.full(L.shape[0], -1)
        at[e] = np.arange(e.size).reshape(e.shape)  # slot * n + position
        rows, cols = np.repeat(at, np.diff(L.indptr)), at[L.indices]
        keep = (rows >= 0) & (cols >= 0) & (rows // n == cols // n)
        return cls(np.flatnonzero(keep), rows[keep] * n + cols[keep] % n, e.shape + (n,))

    def gather(self, data: np.ndarray) -> np.ndarray:
        """The blocks of the matrix with these stored values, each as its
        own index set gives it. Entries are summed into zeros, as scipy's
        toarray does, so a stored -0.0 reads +0.0."""
        out = np.zeros(self.shape, dtype=data.dtype)
        np.add.at(out.reshape(-1), self.target, data[self.source])
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
        for name, g in (("g_p", self.g_p), ("g_t", self.g_t)):
            if not math.isfinite(g * math.sqrt(self.N_a)):
                raise ValueError(f"collective coupling {name}·√N_a must be finite")
        if any(r < 0 for r in channel_rates(self)):
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
    op: np.ndarray = field(repr=False)
    kind: str  # "decay" | "dephasing"


def transition_operator(states, src, dst, shift=(0, 0), weight=None) -> np.ndarray:
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


def assemble_hamiltonian(states, energy, couplings) -> np.ndarray:
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


def build_hamiltonian(params: MSchemeParams, states=M_STATES) -> np.ndarray:
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
    rates = channel_rates(params)
    rows = [(rate, src, dst) for rate, (src, dst, _) in zip(rates, _DECAYS + _DEPHASINGS)]
    return assemble_channels(states, rows)


def channel_rates(params: MSchemeParams) -> tuple[float, ...]:
    """The decay and dephasing rates build_jump_channels reads: parameter
    sets with equal rates have the same channels."""
    return tuple(getattr(params, attr) for _, _, attr in _DECAYS + _DEPHASINGS)


def _union(keys: list[np.ndarray]) -> np.ndarray:
    """The sorted distinct keys of the arrays, np.unique of their
    concatenation, by a sort and a neighbour mask: numpy's np.unique runs
    a slower hash path on integers and imports numpy.ma. Empty arrays, as
    a zero H with no channels gives, have an empty union."""
    union = np.concatenate(keys)
    union.sort()
    first = np.ones(union.size, dtype=bool)
    np.not_equal(union[1:], union[:-1], out=first[1:])
    return union[first]


def build_liouvillian(H: np.ndarray, channels: list[JumpChannel]) -> Superoperator:
    """Superoperator L with vec(ρ̇) = L vec(ρ), column-major vectorization.

    Encodes -i(Hρ - ρH†) + Σ (γ/2)(2 S ρ S† - S†S ρ - ρ S†S), which is
    -i[H,ρ] for Hermitian H; a non-Hermitian H carries the no-jump drift
    of the conditional generators. Works for any dimension (the
    semiclassical and ladder models reuse it).

    L is assembled in CSR form from the nonzeros of each Kronecker
    factor pair, summed in the order of the dense expression so that
    L.toarray() equals the dense np.kron assembly bit for bit.

    H may be a (..., n, n) stack of Hamiltonians sharing the channels:
    L then holds one pattern, the union of theirs, and data of shape
    (..., nnz), and each of its matrices has under toarray() the entries
    of the matrix built from its Hamiltonian alone.
    """
    n = H.shape[-1]
    if H.shape[-2:] != (n, n):
        raise ValueError("H must be square")
    eye = np.eye(n)
    # (A, B, nonzeros of A, nonzeros of B) for each Kronecker factor pair;
    # the nonzeros of H are those of any matrix of its stack.
    I = np.nonzero(eye)
    h = np.nonzero(np.any(H, axis=tuple(range(H.ndim - 2))) if H.ndim > 2 else H)
    pairs = [(eye, H, I, h), (H.conj(), eye, h, I)]
    for ch in channels:
        S = ch.op
        if S.shape != (n, n):
            raise ValueError("channel operator dimension mismatch")
        SdS = S.conj().T @ S
        s, d = np.nonzero(S), np.nonzero(SdS)
        pairs += [(S.conj(), S, s, s), (eye, SdS, I, d), (SdS.T, eye, np.nonzero(SdS.T), I)]
    # Each kron(A, B) as COO keys row * n² + column over the factors'
    # nonzeros; only the two terms of H carry its stack axes.
    keys = [
        ((ia[:, None] * n + ib) * (n * n) + ja[:, None] * n + jb).ravel()
        for _, _, (ia, ja), (ib, jb) in pairs
    ]
    union = _union(keys)

    def term(i: int) -> np.ndarray:
        """Term i on the union pattern, made only when it is summed, so
        at most three are held at once, whatever the stack size."""
        A, B, (ia, ja), (ib, jb) = pairs[i]
        value = A[..., ia, ja][..., :, None] * B[..., ib, jb][..., None, :]
        stack = value.shape[:-2]
        t = np.zeros((*stack, union.size), dtype=complex)
        t[..., np.searchsorted(union, keys[i])] = value.reshape(*stack, keys[i].size)
        return t

    data = -1j * (term(0) - term(1))
    for m, ch in enumerate(channels):
        data += (ch.rate / 2.0) * (2.0 * term(2 + 3 * m) - term(3 + 3 * m) - term(4 + 3 * m))
    rows, cols = np.divmod(union, n * n)
    indptr = np.searchsorted(rows, np.arange(n * n + 1))
    return Superoperator(data, cols, indptr)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec for (n, n) matrices."""
    return v.reshape((n, n), order="F")


# The probe, trigger and probe+trigger sectors of one and two photons:
# build_hamiltonian on each gives its 3x3, 3x3 or 5x5 block.
SECTORS = (
    (("G", 1, 0), ("E2", 0, 0), ("E1", 0, 0)),
    (("G", 0, 1), ("E4", 0, 0), ("E5", 0, 0)),
    (("E1", 0, 1), ("E2", 0, 1), ("G", 1, 1), ("E4", 1, 0), ("E5", 1, 0)),
)
