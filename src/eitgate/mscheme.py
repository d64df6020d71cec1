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

import numpy as np

from .basis import M_BASIS, M_DIM, m_index

# Type aliases: operators and superoperators are plain dense arrays.
OperatorMatrix = np.ndarray
Superoperator = np.ndarray

GAMMA_SI_DEFAULT = 2.0 * math.pi * 6.0e6  # rad/s

# (upper label, lower label, params attribute) for the six decay channels.
_DECAYS = (
    ("E2", "E1", "gamma21"),
    ("E2", "G", "gamma23"),
    ("E2", "E5", "gamma25"),
    ("E4", "E1", "gamma41"),
    ("E4", "G", "gamma43"),
    ("E4", "E5", "gamma45"),
)

_DEPHASINGS = (
    ("E1", "gamma_deph_1"),
    ("E2", "gamma_deph_2"),
    ("E4", "gamma_deph_4"),
    ("E5", "gamma_deph_5"),
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
        rates = [getattr(self, a) for _, _, a in _DECAYS]
        rates += [getattr(self, a) for _, a in _DEPHASINGS]
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


def build_hamiltonian(params: MSchemeParams) -> OperatorMatrix:
    """18x18 Hermitian Hamiltonian in the canonical basis, units of γ."""
    diag_by_label = {
        "G": 0.0,
        "E1": params.eps12,
        "E2": params.delta2,
        "E4": params.delta3,
        "E5": params.eps34,
    }
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)

    H = np.zeros((M_DIM, M_DIM), dtype=complex)
    for i, s in enumerate(M_BASIS):
        H[i, i] = diag_by_label[s.atom]
        # Classical fields swap the excited label at fixed photon numbers.
        if s.atom == "E1":
            j = m_index("E2", s.n_p, s.n_t)
            H[i, j] = H[j, i] = params.Omega1
        if s.atom == "E5":
            j = m_index("E4", s.n_p, s.n_t)
            H[i, j] = H[j, i] = params.Omega4
        # Quantized fields convert a photon into the matching excitation,
        # with the bosonic √n factor of the annihilated photon. Elements
        # into doubly excited atomic states do not arise here (the E
        # labels carry the single excitation already).
        if s.atom == "G" and s.n_p >= 1:
            j = m_index("E2", s.n_p - 1, s.n_t)
            H[i, j] = H[j, i] = gp * math.sqrt(s.n_p)
        if s.atom == "G" and s.n_t >= 1:
            j = m_index("E4", s.n_p, s.n_t - 1)
            H[i, j] = H[j, i] = gt * math.sqrt(s.n_t)
    return H


def build_jump_channels(params: MSchemeParams) -> list[JumpChannel]:
    """Decay and dephasing channels of the effective master equation.

    Decay operators map every upper-label state to the matching
    lower-label state with unit amplitude, preserving photon numbers
    (the medium acts as a single effective atom, so the cross channels
    2->1, 2->5, 4->1, 4->5 carry the same unit amplitude as the channels
    back to the ground level). Dephasing operators are 0/1 projectors on
    the states carrying a given excited label. Zero-rate channels are
    omitted.
    """
    channels = []
    for upper, lower, attr in _DECAYS:
        rate = getattr(params, attr)
        if rate == 0.0:
            continue
        op = np.zeros((M_DIM, M_DIM), dtype=complex)
        for i, s in enumerate(M_BASIS):
            if s.atom == upper:
                op[m_index(lower, s.n_p, s.n_t), i] = 1.0
        channels.append(JumpChannel(rate=rate, op=op, kind="decay"))
    for label, attr in _DEPHASINGS:
        rate = getattr(params, attr)
        if rate == 0.0:
            continue
        op = np.zeros((M_DIM, M_DIM), dtype=complex)
        for i, s in enumerate(M_BASIS):
            if s.atom == label:
                op[i, i] = 1.0
        channels.append(JumpChannel(rate=rate, op=op, kind="dephasing"))
    return channels


def build_liouvillian(H: OperatorMatrix, channels: list[JumpChannel]) -> Superoperator:
    """Superoperator L with vec(ρ̇) = L vec(ρ), column-major vectorization.

    Encodes -i(Hρ - ρH†) + Σ (γ/2)(2 S ρ S† - S†S ρ - ρ S†S), which is
    -i[H,ρ] for Hermitian H; a non-Hermitian H carries the no-jump drift
    of the conditional generators. Works for any dimension (the
    semiclassical and ladder models reuse it).
    """
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("H must be square")
    eye = np.eye(n)
    L = -1j * (np.kron(eye, H) - np.kron(H.conj(), eye))
    for ch in channels:
        S = ch.op
        if S.shape != (n, n):
            raise ValueError("channel operator dimension mismatch")
        SdS = S.conj().T @ S
        L += (ch.rate / 2.0) * (
            2.0 * np.kron(S.conj(), S) - np.kron(eye, SdS) - np.kron(SdS.T, eye)
        )
    return L


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of vec."""
    if n is None:
        n = round(math.isqrt(v.size))
    return v.reshape((n, n), order="F")


# Index sets of the reduced one- and two-photon sectors in the canonical
# basis: {(G,1,0),(E2,0,0),(E1,0,0)}, {(G,0,1),(E4,0,0),(E5,0,0)} and
# {(E1,0,1),(E2,0,1),(G,1,1),(E4,1,0),(E5,1,0)}.
_P_SECTOR = (1, 2, 3)
_T_SECTOR = (4, 5, 6)
_PT_SECTOR = (9, 8, 7, 10, 11)


def reduced_hamiltonians(
    params: MSchemeParams,
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """The 3x3, 3x3 and 5x5 single- and two-photon sector Hamiltonians.

    Slices of the full Hamiltonian over the probe sector, the trigger
    sector, and the probe+trigger sector (ordered E1, E2, ground, E4, E5).
    """
    H = build_hamiltonian(params)
    H_p = H[np.ix_(_P_SECTOR, _P_SECTOR)]
    H_t = H[np.ix_(_T_SECTOR, _T_SECTOR)]
    H_pt = H[np.ix_(_PT_SECTOR, _PT_SECTOR)]
    return H_p, H_t, H_pt
