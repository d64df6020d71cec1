"""Readout of gate quantities from propagated states.

Covers the partial trace onto the two field modes, the phases picked up
by the photonic basis states, the average gate fidelity against the
ideal phase unitary from the images of the qubit matrix units, and the
Monte Carlo estimate of the conditional (no-decay) fidelity.
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


# (324,36) 0/1 readout: entry ((i,j),(f,g)) is Σ_l B[l,f,i] B[l,g,j], so a
# row-flattened state times _R is its row-flattened field reduction.
_R = np.einsum("lfi,lgj->ijfg", _B, _B).reshape(M_DIM * M_DIM, FIELD_DIM * FIELD_DIM)


def reduce_to_fields(rho: np.ndarray) -> np.ndarray:
    """Trace out the atomic label: (...,18,18) -> (...,6,6).

    The reduction Σ_l B_l ρ B_lᵀ is linear in the entries of ρ, so a
    whole batch of states goes through one matrix product with the
    fixed readout matrix.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (M_DIM, M_DIM):
        raise ValueError("expected states on the 18-dimensional space")
    # One 2-d product: a stacked or mixed-type matmul does not reach BLAS.
    R = _R.astype(np.result_type(rho, _R), copy=False)
    out = rho.reshape(-1, M_DIM * M_DIM) @ R
    return out.reshape(rho.shape[:-2] + (FIELD_DIM, FIELD_DIM))


def qubit_block(field_rho: np.ndarray) -> np.ndarray:
    """Restrict field-basis states to the 4-dimensional qubit block."""
    return np.asarray(field_rho)[..., :4, :4]


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


def phases_from_coherences(coherences: np.ndarray, amplitudes=None) -> np.ndarray:
    """Unwrap the phases of the qubit coherences against the vacuum.

    coherences[t] holds <q_k|ρ(t)|q_0> for k = 1, 2, 3. The phase
    already present in the input amplitudes is removed, then each time
    step is moved to the nearest 2π branch. Non-finite coherences and
    steps of magnitude π or more raise ValueError; vanishing coherences
    raise UndefinedPhaseError. All three name the time sample that tripped.
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
    nrm = np.linalg.norm(c)
    if nrm == 0 or abs(c[0]) < 1e-12 * nrm:
        raise UndefinedPhaseError("vacuum amplitude below 1e-12 of the norm; phases undefined")
    if not np.isfinite(coh).all():
        where = "" if single else _sample_label(~np.isfinite(coh).all(axis=-1))
        raise ValueError(f"non-finite qubit coherence{where}")
    vanishing = np.abs(coh) < 1e-12
    if np.any(vanishing):
        where = "" if single else _sample_label(np.any(vanishing, axis=-1))
        raise UndefinedPhaseError(f"qubit coherence below threshold{where}; phase undefined")
    raw = np.angle(coh) - np.angle(c[1:4] * np.conj(c[0]))[None, :]
    phases = np.empty_like(raw)
    phases[0] = _wrap(raw[0])
    for m in range(1, raw.shape[0]):
        step = _wrap(raw[m] - phases[m - 1])
        largest = float(np.max(np.abs(step)))
        if largest >= np.pi * (1.0 - 1e-9):
            raise ValueError(
                f"phase step of π or more between samples {m - 1} and {m} "
                f"({largest / np.pi:.6f}π); refine the grid"
            )
        phases[m] = phases[m - 1] + step
    return phases[0] if single else phases


def extract_phases(field_rhos: np.ndarray, amplitudes=None) -> np.ndarray:
    """Accumulated phases of |01>, |10>, |11> along a field trajectory."""
    field_rhos = np.asarray(field_rhos)
    if field_rhos.shape[-2:] != (FIELD_DIM, FIELD_DIM):
        raise ValueError("expected reduced field states")
    return phases_from_coherences(field_rhos[..., 1:4, 0], amplitudes)


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


def _rotated_blocks(lam: np.ndarray, target_unitary, lead: tuple[int, ...]) -> np.ndarray:
    """U†Λ_k U for every block, as (...,4,4,4,4) indexed [i,j,a,b]."""
    U = np.broadcast_to(np.asarray(target_unitary, dtype=complex), lead + (4, 4))
    U = U[..., None, :, :]
    return (U.conj().swapaxes(-1, -2) @ lam @ U).reshape(lead + (4, 4, 4, 4))


def average_fidelity_from_blocks(
    lam: np.ndarray, target_unitary: np.ndarray
) -> float | np.ndarray:
    """Haar-average fidelity from the qubit-block images of matrix units.

    lam[..., 4*i+j, :, :] is the 4x4 qubit-block image of |q_i><q_j|. The
    average of <ψ|U† Λ(|ψ><ψ|) U|ψ> over pure qubit inputs has the
    closed form (d² F_e + Tr Λ(I)) / (d(d+1)) with the entanglement
    fidelity F_e; the reported figure of merit is its square root.

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
    fid = np.sqrt(np.maximum(overlap, 0.0))
    return float(fid) if not lead else fid


@dataclass(frozen=True)
class ConditionalFidelityResult:
    """Monte Carlo conditional fidelity and success probabilities.

    For a series the first three fields carry its leading (time) shape.
    """

    fidelity: float | np.ndarray
    p_success: float | np.ndarray
    basis_success: np.ndarray  # no-jump probability per qubit basis input, (...,4)
    samples_used: int  # fewest samples kept at any time sample


def check_sampling(mc_samples: int, seed: int) -> None:
    """Reject fewer than one Monte Carlo sample or a negative seed."""
    for key, value, low in (("mc_samples", mc_samples, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"{key} must be at least {low}, got {value}")


# Time samples per Monte Carlo product; bounds the (chunk, tile) temporaries.
_MC_CHUNK = 32
# Haar samples per weight tile; bounds the (256, tile) weights whatever mc_samples is.
_MC_TILE = 250


def conditional_fidelity_from_blocks(
    lam: np.ndarray,
    full_traces: np.ndarray,
    target_unitary: np.ndarray,
    *,
    mc_samples: int = 2000,
    seed: int = 42,
) -> ConditionalFidelityResult:
    """Haar-average fidelity of the renormalized no-jump state.

    lam[..., 4*i+j, :, :] is the qubit-block image of |q_i><q_j| under
    the conditional (trace-decreasing) map and full_traces[..., 4*i+j]
    its trace on the complete space. Each sampled pure input ψ gives the
    unnormalized output by linearity; its full trace is the no-jump
    probability and the overlap with U|ψ> is taken after renormalizing.

    A leading time axis is allowed: blocks (...,16,4,4), traces (...,16)
    and targets (...,4,4). One Haar set, drawn from (seed, mc_samples),
    serves every time sample, so each sample gets the estimate a call on
    it alone would give. With the target folded into the blocks as
    U†Λ_ij U, all overlaps come from products with the per-draw weights
    conj(ψ_c)ψ_i conj(ψ_j)ψ_d, formed one tile of draws at a time and
    taken a few time samples at a time, so only the drawn set itself
    grows with mc_samples. Samples with trace below 1e-12 are skipped; more than
    1% of them at any time sample aborts the estimate. Traces of another
    shape, or non-finite ones, raise ValueError naming the time sample.
    """
    check_sampling(mc_samples, seed)
    lam = np.asarray(lam)
    lead = _check_blocks(lam)
    T = math.prod(lead)
    tr_full = np.asarray(full_traces)
    if tr_full.shape != lead + (16,):
        raise ValueError(f"full_traces has shape {tr_full.shape}; the blocks need {lead + (16,)}")
    nonfinite = ~np.isfinite(tr_full).all(axis=-1)
    if nonfinite.any():
        raise ValueError(f"non-finite no-jump trace{_sample_label(nonfinite)}")
    tr_full = tr_full.reshape(T, 16)
    rotated = _rotated_blocks(lam, target_unitary, lead).reshape(T, 256)

    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((2, mc_samples, 4))  # the real, then the imaginary parts

    ratio_sum = np.zeros(T)
    p_sum = np.zeros(T)
    kept = np.zeros(T, dtype=int)
    for s in range(0, mc_samples, _MC_TILE):
        psi = Z[0, s : s + _MC_TILE] + 1j * Z[1, s : s + _MC_TILE]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        W = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(-1, 16)  # c_i c_j*
        Q = (W[:, :, None] * W.conj()[:, None, :]).reshape(-1, 256).T
        for a in range(0, T, _MC_CHUNK):
            b = min(a + _MC_CHUNK, T)
            num = (rotated[a:b] @ Q).real
            p = (tr_full[a:b] @ W.T).real
            keep = p >= 1e-12
            kept[a:b] += np.count_nonzero(keep, axis=1)
            ratio_sum[a:b] += np.divide(num, p, out=np.zeros_like(num), where=keep).sum(axis=1)
            p_sum[a:b] += p.sum(axis=1)
        del W, Q  # free this tile's weights before the next tile forms its own

    skipped = mc_samples - kept
    too_many = skipped > 0.01 * mc_samples
    if np.any(too_many):
        raise RuntimeError(
            f"{skipped[np.argmax(too_many)]} of {mc_samples} samples had "
            f"negligible success probability{_sample_label(too_many.reshape(lead))}"
        )
    mean_f = ratio_sum / kept
    p_success = p_sum / mc_samples

    fid = np.sqrt(np.maximum(mean_f, 0.0)).reshape(lead)
    p_success = p_success.reshape(lead)
    basis = np.diagonal(tr_full.reshape(lead + (4, 4)), axis1=-2, axis2=-1).real.copy()
    return ConditionalFidelityResult(
        fidelity=float(fid) if not lead else fid,
        p_success=float(p_success) if not lead else p_success,
        basis_success=basis,
        samples_used=int(kept.min()),
    )
