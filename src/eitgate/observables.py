"""Readout of gate quantities from propagated states.

Covers the partial trace onto the two field modes, the phases picked up
by the photonic basis states, the gate Choi matrix with its average
fidelity against the ideal phase unitary, and the Monte Carlo estimate
of the conditional (no-decay) fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ATOM_LABELS, FIELD_DIM, M_BASIS, M_DIM, field_index


class UndefinedPhaseError(ValueError):
    """Raised when a phase is read off a vanishing coherence."""


def _field_projectors() -> np.ndarray:
    """(5,6,18) selection tensors, one 0/1 matrix per atomic label."""
    B = np.zeros((len(ATOM_LABELS), FIELD_DIM, M_DIM))
    for i, s in enumerate(M_BASIS):
        B[ATOM_LABELS.index(s.atom), field_index(s.n_p, s.n_t), i] = 1.0
    return B


_B = _field_projectors()


def reduce_to_fields(rho: np.ndarray) -> np.ndarray:
    """Trace out the atomic label: (...,18,18) -> (...,6,6)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (M_DIM, M_DIM):
        raise ValueError("expected states on the 18-dimensional space")
    return np.einsum("lfi,...ij,lgj->...fg", _B, rho, _B)


def qubit_block(field_rho: np.ndarray) -> np.ndarray:
    """Restrict field-basis states to the 4-dimensional qubit block."""
    return np.asarray(field_rho)[..., :4, :4]


def populations(rho: np.ndarray) -> np.ndarray:
    """Real diagonal of (...,n,n) states."""
    return np.diagonal(np.asarray(rho), axis1=-2, axis2=-1).real


def population_names() -> tuple[str, ...]:
    """Column names for the 18 collective-state populations."""
    return tuple(s.name for s in M_BASIS)


def _wrap(angle: np.ndarray) -> np.ndarray:
    """Reduce to (-π, π]."""
    return np.pi - np.mod(np.pi - angle, 2.0 * np.pi)


def phases_from_coherences(coherences: np.ndarray, amplitudes=None) -> np.ndarray:
    """Unwrap the phases of the qubit coherences against the vacuum.

    coherences[t] holds <q_k|ρ(t)|q_0> for k = 1, 2, 3. The phase
    already present in the input amplitudes is removed, then each time
    step is moved to the nearest 2π branch. Steps of magnitude π or more
    are ambiguous and raise; vanishing coherences raise
    UndefinedPhaseError.
    """
    coh = np.asarray(coherences, dtype=complex)
    single = coh.ndim == 1
    if single:
        coh = coh[None]
    if coh.shape[-1] != 3:
        raise ValueError("expected three coherence series")
    c = np.full(4, 0.5, dtype=complex) if amplitudes is None else np.asarray(
        amplitudes, dtype=complex
    ).reshape(4)
    if abs(c[0]) < 1e-12:
        raise UndefinedPhaseError("vacuum amplitude too small to anchor phases")
    if np.any(np.abs(coh) < 1e-12):
        raise UndefinedPhaseError("qubit coherence below threshold; phase undefined")
    raw = np.angle(coh) - np.angle(c[1:4] * np.conj(c[0]))[None, :]
    phases = np.empty_like(raw)
    phases[0] = _wrap(raw[0])
    for m in range(1, raw.shape[0]):
        step = _wrap(raw[m] - phases[m - 1])
        if np.any(np.abs(step) >= np.pi * (1.0 - 1e-9)):
            raise ValueError("phase step of π or more between samples; refine the grid")
        phases[m] = phases[m - 1] + step
    return phases[0] if single else phases


def extract_phases(field_rhos: np.ndarray, amplitudes=None) -> np.ndarray:
    """Accumulated phases of |01>, |10>, |11> along a field trajectory."""
    field_rhos = np.asarray(field_rhos)
    single = field_rhos.ndim == 2
    if single:
        field_rhos = field_rhos[None]
    if field_rhos.shape[-2:] != (FIELD_DIM, FIELD_DIM):
        raise ValueError("expected reduced field states")
    out = phases_from_coherences(field_rhos[:, 1:4, 0], amplitudes)
    return out[0] if single else out


def conditional_phase_shift(phases: np.ndarray) -> np.ndarray:
    """Nonlinear part φ11 - φ10 - φ01 of the accumulated phases."""
    phases = np.asarray(phases)
    return phases[..., 2] - phases[..., 1] - phases[..., 0]


def ideal_phase_unitary(phases) -> np.ndarray:
    """diag(1, e^{iφ01}, e^{iφ10}, e^{iφ11}) on the qubit block."""
    p01, p10, p11 = np.asarray(phases, dtype=float).reshape(3)
    return np.diag(np.exp(1j * np.array([0.0, p01, p10, p11])))


def choi_matrix(unit_states: np.ndarray) -> np.ndarray:
    """16x16 process matrix from the images of the matrix units.

    unit_states[4*i+j] is the full-space image of |q_i><q_j|; block
    (i,j) of the result is its reduced qubit-block matrix.
    """
    lam = qubit_block(reduce_to_fields(np.asarray(unit_states)))
    if lam.shape != (16, 4, 4):
        raise ValueError("expected the images of the 16 matrix units")
    return lam.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


def average_fidelity_from_blocks(lam: np.ndarray, target_unitary: np.ndarray) -> float:
    """Haar-average fidelity from the qubit-block images of matrix units.

    lam[4*i+j] is the 4x4 qubit-block image of |q_i><q_j|. The average
    of <ψ|U† Λ(|ψ><ψ|) U|ψ> over pure qubit inputs has the closed form
    (d² F_e + Tr Λ(I)) / (d(d+1)) with the entanglement fidelity F_e;
    the reported figure of merit is its square root.
    """
    lam = np.asarray(lam)
    if lam.shape != (16, 4, 4):
        raise ValueError("expected 16 qubit-block images")
    U = np.asarray(target_unitary, dtype=complex)
    rotated = np.einsum("ai,kij,jb->kab", U.conj().T, lam, U)
    F_e = np.mean([rotated[4 * i + j, i, j] for i in range(4) for j in range(4)])
    if abs(F_e.imag) > 1e-9:
        raise ValueError("entanglement fidelity has a non-real value")
    trace_of_identity_image = float(sum(lam[4 * i + i].trace().real for i in range(4)))
    overlap = (16.0 * F_e.real + trace_of_identity_image) / 20.0
    if overlap < -1e-12:
        raise ValueError("negative average overlap; the map is not physical")
    return math.sqrt(max(overlap, 0.0))


def average_fidelity(unit_states: np.ndarray, target_unitary: np.ndarray) -> float:
    """Haar-average fidelity of the collective-model gate map."""
    lam = qubit_block(reduce_to_fields(np.asarray(unit_states)))
    return average_fidelity_from_blocks(lam, target_unitary)


@dataclass(frozen=True)
class ConditionalFidelityResult:
    """Monte Carlo conditional fidelity and success probabilities."""

    fidelity: float
    p_success: float
    basis_success: np.ndarray  # no-jump probability per qubit basis input
    samples_used: int


def conditional_fidelity_from_blocks(
    lam: np.ndarray,
    full_traces: np.ndarray,
    target_unitary: np.ndarray,
    *,
    mc_samples: int = 2000,
    seed: int = 42,
) -> ConditionalFidelityResult:
    """Haar-average fidelity of the renormalized no-jump state.

    lam[4*i+j] is the qubit-block image of |q_i><q_j| under the
    conditional (trace-decreasing) map and full_traces its trace on the
    complete space. Each sampled pure input ψ gives the unnormalized
    output by linearity; its full trace is the no-jump probability and
    the overlap with U|ψ> is taken after renormalizing. Samples with
    trace below 1e-12 are skipped; more than 1% of them aborts the
    estimate.
    """
    lam = np.asarray(lam).reshape(4, 4, 4, 4)
    tr_full = np.asarray(full_traces).reshape(4, 4)
    U = np.asarray(target_unitary, dtype=complex)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((mc_samples, 4)) + 1j * rng.standard_normal((mc_samples, 4))
    psi = X / np.linalg.norm(X, axis=1, keepdims=True)

    W = psi[:, :, None] * psi.conj()[:, None, :]  # (S,4,4) weights c_i c_j*
    p = np.einsum("sij,ij->s", W, tr_full).real
    psi_id = psi @ U.T
    num = np.einsum("sa,sij,ijab,sb->s", psi_id.conj(), W, lam, psi_id).real

    keep = p >= 1e-12
    skipped = mc_samples - int(np.count_nonzero(keep))
    if skipped > 0.01 * mc_samples:
        raise RuntimeError(
            f"{skipped} of {mc_samples} samples had negligible success probability"
        )
    mean_f = float(np.mean(num[keep] / p[keep]))
    basis = np.array([tr_full[i, i].real for i in range(4)])
    return ConditionalFidelityResult(
        fidelity=math.sqrt(max(mean_f, 0.0)),
        p_success=float(np.mean(p)),
        basis_success=basis,
        samples_used=mc_samples - skipped,
    )

