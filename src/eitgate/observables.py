"""Readout of gate quantities from propagated states.

Covers the partial trace onto the two field modes, the phases picked up
by the photonic basis states along a time series, the average gate
fidelity against the ideal phase unitary from the images of the qubit
matrix units, and the conditional (no-decay) fidelity: its exact Haar
average, and the Monte Carlo estimate that serves as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ATOM_LABELS, FIELD_DIM, M_DIM, M_STATES, field_index


class UndefinedPhaseError(ValueError):
    """Raised when a phase is read off a vanishing coherence."""


def _field_projectors() -> np.ndarray:
    """(5,6,18) selection tensors, one 0/1 matrix per atomic label."""
    B = np.zeros((len(ATOM_LABELS), FIELD_DIM, M_DIM))
    for i, (label, n_p, n_t) in enumerate(M_STATES):
        B[ATOM_LABELS.index(label), field_index(n_p, n_t), i] = 1.0
    return B


_B = _field_projectors()


def check_states(rho, dim: int, n_max: int | None = None) -> np.ndarray:
    """rho as (...,dim,dim) states, else ValueError naming dim and any n_max."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (dim, dim):
        for_n_max = "" if n_max is None else f" for n_max {n_max}"
        raise ValueError(f"expected states of dimension {dim}{for_n_max}, got shape {rho.shape}")
    return rho


def reduce_to_fields(rho: np.ndarray) -> np.ndarray:
    """Trace out the atomic label, Σ_l B_l ρ B_lᵀ: (...,18,18) -> (...,6,6)."""
    rho = check_states(rho, M_DIM)
    return np.einsum("lfi,...ij,lgj->...fg", _B, rho, _B, optimize=True)


def qubit_block(field_rho: np.ndarray) -> np.ndarray:
    """Restrict field-basis states (...,6,6) to the 4-dimensional qubit block."""
    return check_states(field_rho, FIELD_DIM)[..., :4, :4]


def populations(rho: np.ndarray) -> np.ndarray:
    """Real diagonal of (...,n,n) states."""
    return np.diagonal(np.asarray(rho), axis1=-2, axis2=-1).real


def _wrap(angle: np.ndarray) -> np.ndarray:
    """Reduce to (-π, π]."""
    return np.pi - np.mod(np.pi - angle, 2.0 * np.pi)


def _sample_label(flags: np.ndarray) -> str:
    """' at time sample m' for the first flagged sample of a series, '' for one sample."""
    if flags.ndim == 0:
        return ""
    m = np.unravel_index(int(np.argmax(flags)), flags.shape)
    return f" at time sample {m[0] if len(m) == 1 else tuple(int(i) for i in m)}"


def phases_from_coherences(coherences: np.ndarray, amplitudes) -> np.ndarray:
    """Unwrap the phases of the qubit coherences against the vacuum.

    coherences[t] (T, 3) holds <q_k|ρ(t)|q_0> for k = 1, 2, 3; another
    shape raises ValueError. The phase of the four input amplitudes is
    removed, then each time step is moved to the nearest 2π branch.
    Non-finite coherences and steps of magnitude π or more raise ValueError;
    vanishing coherences raise UndefinedPhaseError, all naming the sample.
    """
    return _phases_after(None, coherences, amplitudes)


def _phases_after(previous, coherences: np.ndarray, amplitudes) -> np.ndarray:
    """phases_from_coherences of the samples that follow a series whose
    phases end in previous (3,): its first step is taken from previous,
    so the phases of a series read in chunks are those of the whole
    series bit for bit. None starts a series. Messages number the samples
    from the first of coherences."""
    coh = np.asarray(coherences, dtype=complex)
    if coh.ndim != 2 or coh.shape[1] != 3:
        raise ValueError(f"expected a (T, 3) coherence series, got shape {coh.shape}")
    c = np.asarray(amplitudes, dtype=complex).reshape(4)
    nrm = np.linalg.norm(c)
    if nrm == 0 or abs(c[0]) < 1e-12 * nrm:
        raise UndefinedPhaseError("vacuum amplitude below 1e-12 of the norm; phases undefined")
    nonfinite = ~np.isfinite(coh).all(axis=-1)
    if nonfinite.any():
        raise ValueError(f"non-finite qubit coherence{_sample_label(nonfinite)}")
    vanishing = np.abs(coh) < 1e-12
    if np.any(vanishing):
        where = _sample_label(np.any(vanishing, axis=-1))
        raise UndefinedPhaseError(f"qubit coherence below threshold{where}; phase undefined")
    raw = np.angle(coh) - np.angle(c[1:4] * np.conj(c[0]))[None, :]
    phases = np.empty_like(raw)
    for m in range(raw.shape[0]):
        if previous is None:
            phases[m] = _wrap(raw[m])
        else:
            step = _wrap(raw[m] - previous)
            largest = float(np.max(np.abs(step)))
            if largest >= np.pi * (1.0 - 1e-9):
                raise ValueError(
                    f"phase step of π or more between samples {m - 1} and {m} "
                    f"({largest / np.pi:.6f}π); refine the grid"
                )
            phases[m] = previous + step
        previous = phases[m]
    return phases


def extract_phases(field_rhos: np.ndarray, amplitudes) -> np.ndarray:
    """Accumulated phases of |01>, |10>, |11> along a (T, 6, 6) field trajectory."""
    return phases_from_coherences(check_states(field_rhos, FIELD_DIM)[..., 1:4, 0], amplitudes)


def conditional_phase_shift(phases: np.ndarray) -> np.ndarray:
    """Nonlinear part φ11 - φ10 - φ01 of the accumulated phases."""
    phases = np.asarray(phases)
    return phases[..., 2] - phases[..., 1] - phases[..., 0]


def ideal_phase_unitary(phases) -> np.ndarray:
    """diag(1, e^{iφ01}, e^{iφ10}, e^{iφ11}) on the qubit block.

    Phases of shape (...,3) give unitaries of shape (...,4,4).
    """
    p = np.asarray(phases, dtype=float)
    if p.shape[-1:] != (3,):
        raise ValueError("expected the three phases φ01, φ10, φ11")
    diag = np.exp(1j * np.concatenate([np.zeros(p.shape[:-1] + (1,)), p], axis=-1))
    U = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
    U[..., range(4), range(4)] = diag
    return U


def _check_blocks(lam: np.ndarray) -> tuple[int, ...]:
    """Leading (time) shape of (...,16,4,4) qubit-block images; raises
    ValueError naming the first time sample with a non-finite one."""
    if lam.shape[-3:] != (16, 4, 4):
        raise ValueError("expected 16 qubit-block images")
    nonfinite = ~np.isfinite(lam).reshape(lam.shape[:-3] + (-1,)).all(axis=-1)
    if np.any(nonfinite):
        raise ValueError(f"non-finite qubit-block image{_sample_label(nonfinite)}")
    return lam.shape[:-3]


def _check_traces(full_traces, lead: tuple[int, ...]) -> np.ndarray:
    """full_traces as (...,16) traces of blocks of leading shape lead, else
    ValueError: for another shape, or naming the first non-finite sample."""
    tr_full = np.asarray(full_traces)
    if tr_full.shape != lead + (16,):
        raise ValueError(f"full_traces has shape {tr_full.shape}; the blocks need {lead + (16,)}")
    nonfinite = ~np.isfinite(tr_full).all(axis=-1)
    if nonfinite.any():
        raise ValueError(f"non-finite no-jump trace{_sample_label(nonfinite)}")
    return tr_full


def _rotated_blocks(lam: np.ndarray, target_unitary, lead: tuple[int, ...]) -> np.ndarray:
    """U†Λ_k U for every block, as (...,4,4,4,4) indexed [i,j,a,b]."""
    U = np.broadcast_to(np.asarray(target_unitary, dtype=complex), lead + (4, 4))
    U = U[..., None, :, :]
    return (U.conj().swapaxes(-1, -2) @ lam @ U).reshape(lead + (4, 4, 4, 4))


_ROUNDING = 1e-12  # how far above 1 a fidelity reads 1.0; the Haar rule resolves ~1e-15


def _at_most_one(fid: np.ndarray, name: str) -> np.ndarray:
    """fid at most 1, or ValueError naming name and the first time sample
    above 1 by more than _ROUNDING."""
    excess = fid > 1.0 + _ROUNDING
    if excess.any():
        raise ValueError(
            f"{name} {float(fid[excess][0])!r} exceeds 1{_sample_label(excess)}; "
            "the map is not physical"
        )
    return np.minimum(fid, 1.0)


def average_fidelity_from_blocks(
    lam: np.ndarray, target_unitary: np.ndarray
) -> float | np.ndarray:
    """Haar-average fidelity from the qubit-block images of matrix units.

    lam[..., 4*i+j, :, :] is the 4x4 qubit-block image of |q_i><q_j|. The
    average of <ψ|U† Λ(|ψ><ψ|) U|ψ> over pure qubit inputs has the
    closed form (d² F_e + Tr Λ(I)) / (d(d+1)) with the entanglement
    fidelity F_e; the reported figure of merit is its square root, read
    as 1.0 up to _ROUNDING above 1 and refused further above 1.

    Blocks (16,4,4) with one (4,4) target give a float. A leading time
    axis, blocks (...,16,4,4) with targets (...,4,4), gives an array
    (...) of the same per-sample values.
    """
    lam = np.asarray(lam)
    lead = _check_blocks(lam)
    rotated = _rotated_blocks(lam, target_unitary, lead)
    F_e = np.einsum("...ijij->...", rotated) / 16.0
    nonreal = np.abs(F_e.imag) > 1e-9
    if np.any(nonreal):
        raise ValueError(
            f"entanglement fidelity has a non-real value{_sample_label(nonreal)}"
        )
    trace_of_identity_image = np.einsum("...iiaa->...", lam.reshape(lead + (4, 4, 4, 4))).real
    overlap = (16.0 * F_e.real + trace_of_identity_image) / 20.0
    negative = overlap < -1e-12
    if np.any(negative):
        raise ValueError(
            f"negative average overlap{_sample_label(negative)}; the map is not physical"
        )
    fid = _at_most_one(np.sqrt(np.maximum(overlap, 0.0)), "average fidelity")
    return float(fid) if not lead else fid


@dataclass(frozen=True)
class ConditionalFidelityResult:
    """Monte Carlo conditional fidelity and success probability of one time sample."""

    fidelity: float
    p_success: float
    samples_used: int  # draws kept, those with a success probability of 1e-12 or more


def check_sampling(mc_samples: int, seed: int) -> None:
    """Reject fewer than one Monte Carlo sample or a negative seed."""
    for key, value, low in (("mc_samples", mc_samples, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"{key} must be at least {low}, got {value}")


# Haar samples per weight tile; bounds the (tile, 16) weights whatever mc_samples is.
_MC_TILE = 250


def conditional_fidelity_from_blocks(
    lam: np.ndarray,
    full_traces: np.ndarray,
    target_unitary: np.ndarray,
    *,
    mc_samples: int = 2000,
    seed: int = 42,
) -> ConditionalFidelityResult:
    """Haar-average fidelity of the renormalized no-jump state, by Monte Carlo.

    One time sample: lam (16,4,4), where lam[4*i+j] is the qubit-block
    image of |q_i><q_j| under the conditional (trace-decreasing) map,
    full_traces (16,) their traces on the complete space and target_unitary
    (4,4). Blocks with a leading (time) axis raise ValueError. Each pure
    input ψ, drawn from (seed, mc_samples), gives the unnormalized output
    by linearity; its full trace is the no-jump probability and the overlap
    with U|ψ> is taken after renormalizing. With the target folded into the
    blocks as R = U†ΛU, a (16,16) matrix, the overlaps of a tile of draws
    with weights W = ψ_i conj(ψ_j) are ((W @ R) * conj(W)).sum(axis=1), so
    only the drawn set itself grows with mc_samples. Samples with trace
    below 1e-12 are skipped; more than 1% of them aborts the estimate.
    """
    check_sampling(mc_samples, seed)
    lam = np.asarray(lam)
    if lam.ndim > 3:
        raise ValueError(f"expected one time sample of (16, 4, 4) blocks, got shape {lam.shape}")
    _check_blocks(lam)
    tr = _check_traces(full_traces, ())
    R = _rotated_blocks(lam, target_unitary, ()).reshape(16, 16)

    # The real, then the imaginary parts of the draws.
    Z = np.random.default_rng(seed).standard_normal((2, mc_samples, 4))
    ratio_sum, p_sum, kept = 0.0, 0.0, 0
    for s in range(0, mc_samples, _MC_TILE):
        psi = Z[0, s : s + _MC_TILE] + 1j * Z[1, s : s + _MC_TILE]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        W = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(-1, 16)  # c_i c_j*
        num = ((W @ R) * W.conj()).sum(axis=1).real
        p = (W @ tr).real
        keep = p >= 1e-12
        kept += int(np.count_nonzero(keep))
        ratio_sum += np.divide(num, p, out=np.zeros_like(num), where=keep).sum()
        p_sum += p.sum()

    skipped = mc_samples - kept
    if skipped > 0.01 * mc_samples:
        raise RuntimeError(f"{skipped} of {mc_samples} samples had negligible success probability")
    return ConditionalFidelityResult(
        fidelity=math.sqrt(max(ratio_sum / kept, 0.0)),
        p_success=float(p_sum / mc_samples),
        samples_used=kept,
    )


# Trapezoid rule of the Haar-average integral in u = ln t: the step and
# the half-width of the node grid, which is symmetric about t = 1.
_HAAR_STEP = 0.4
_HAAR_SPAN = 40.0


def haar_conditional_fidelity(
    lam: np.ndarray, full_traces: np.ndarray, target_unitary: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Exact Haar average of what conditional_fidelity_from_blocks samples.

    Blocks lam (...,16,4,4), lam[..., 4*i+j] the qubit-block image of
    |q_i><q_j| under the conditional map, full traces (...,16) and targets
    (...,4,4), for any leading (time) shape.

    The no-jump maps of the gate conserve the photon numbers, so only the
    basis inputs carry trace: p(ψ) = Σ p_i x_i with x_i = |ψ_i|² and
    p_i = full_traces[..., 5i]. Averaging the overlap over the phases of ψ
    leaves xᵀMx with M_ia = Re R[i,i,a,a] + [i≠a] Re R[i,a,i,a]
    for R = U†ΛU, and the Haar moduli x are uniform on the 3-simplex, so
    F_c² = E[xᵀMx / p·x] and p_success = Σ p_i / 4.

    Writing x = g/Σg with g_i independent unit exponentials, and
    1/(p·g) = ∫ exp(-t p·g) dt, turns the average into one integral,

        F_c² = ¼ ∫₀^∞ Σ_ia K_ia / (λ_i λ_a Π_j λ_j) dt,   λ_j = 1 + t p_j,

    with K_ia = M_ia (1 + δ_ia) = Re R[i,i,a,a] + Re R[i,a,i,a], and p
    scaled to max p_j = 1. In u = ln t its poles sit at -ln p_j ± iπ, π
    from the real axis however far the p_j spread, so the trapezoid rule
    in u converges at a rate set by _HAAR_STEP alone: 0.4 gives a few 1e-16.
    A completely positive map has |K_ia| ≤ p_i + √(p_i p_a), which bounds
    the integrand by 32 and by 20/t², so the tails beyond |u| = _HAAR_SPAN
    hold < 1e-15 of it.
    Returns (F_c, p_success): floats for one sample, arrays of the leading
    (time) shape otherwise.

    Raises ValueError naming the first offending time sample for non-finite
    blocks or traces, an off-diagonal trace above 1e-12, a no-jump
    probability p_i ≤ 0 (p·x then vanishes on a face of the simplex), or
    an F_c above 1 by more than _ROUNDING; one within _ROUNDING of 1 is 1.0.
    """
    lam = np.asarray(lam)
    lead = _check_blocks(lam)
    T = math.prod(lead)
    tr = _check_traces(full_traces, lead).reshape(T, 4, 4)
    off = np.abs(tr[:, ~np.eye(4, dtype=bool)]).max(axis=1) > 1e-12
    if off.any():
        raise ValueError(
            "off-diagonal matrix unit has a no-jump trace above 1e-12"
            f"{_sample_label(off.reshape(lead))}; the map does not conserve the photon numbers"
        )
    p = np.diagonal(tr, axis1=-2, axis2=-1).real
    lost = ~(p.min(axis=1) > 0.0)
    if lost.any():
        m = int(np.argmax(lost))
        raise ValueError(
            f"no-jump probability {float(p[m].min())!r} is not positive"
            f"{_sample_label(lost.reshape(lead))}; the conditional fidelity is undefined"
        )
    R = _rotated_blocks(lam, target_unitary, lead).reshape(T, 4, 4, 4, 4)
    K = (np.einsum("tiiaa->tia", R) + np.einsum("tiaia->tia", R)).real
    del R  # before the (T, 4, N) table of 1/λ_j is formed
    p_max = p.max(axis=1)
    t = np.exp(np.linspace(-_HAAR_SPAN, _HAAR_SPAN, round(2.0 * _HAAR_SPAN / _HAAR_STEP) + 1))
    D = (p / p_max[:, None])[:, :, None] * t
    D += 1.0
    np.reciprocal(D, out=D)  # 1/λ_j, (T,4,N)
    quad = np.einsum("tia,tin,tan->tn", K, D, D) * D.prod(axis=1)
    # Row by row, so a sample's F_c does not depend on the samples scored with it.
    squared = _HAAR_STEP * np.einsum("tn,n->t", quad, t) / (4.0 * p_max)
    fid = _at_most_one(np.sqrt(np.maximum(squared, 0.0)).reshape(lead), "conditional fidelity")
    fid = np.where(fid >= 1.0 - _ROUNDING, 1.0, fid)
    p_success = (p.sum(axis=1) / 4.0).reshape(lead)
    if not lead:
        return float(fid), float(p_success)
    return fid, p_success
