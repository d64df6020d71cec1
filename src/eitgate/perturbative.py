"""Analytic estimates of the cross-phase accumulated by the photon pair.

Two independent routes to the same quantity: a fourth-order closed form
valid deep in the transparency regime, and the exact dark eigenvalues of
the reduced single- and two-photon Hamiltonians. Their difference
measures how far the parameters sit from the perturbative window.
"""

from __future__ import annotations

import numpy as np

from .mscheme import SECTORS, MSchemeParams, reduced_hamiltonians

# Position of the purely photonic component, all atoms in G, within each
# reduced block: probe, trigger and probe+trigger sector.
_BARE_INDICES = tuple([label for label, _, _ in states].index("G") for states in SECTORS)


def closed_form_phase(params: MSchemeParams, t: float) -> float:
    """Fourth-order cross-phase picked up over a time t (units 1/γ).

    Valid when the collective couplings are small against the dressed
    single-photon denominators ε δ - Ω²; both denominators must be
    nonzero.
    """
    gp2 = params.g_p**2 * params.N_a
    gt2 = params.g_t**2 * params.N_a
    d_p = params.eps12 * params.delta2 - params.Omega1**2
    d_t = params.eps34 * params.delta3 - params.Omega4**2
    if d_p == 0.0 or d_t == 0.0:
        raise ValueError("dressed denominator vanishes; closed form undefined")
    bracket = (
        params.eps34 * (params.eps12**2 + params.Omega1**2) / d_p
        + params.eps12 * (params.eps34**2 + params.Omega4**2) / d_t
    )
    return gp2 * gt2 * t / (d_p * d_t) * bracket


def dark_eigenvalue(H: np.ndarray, bare_index: int) -> float:
    """Eigenvalue whose eigenvector lies closest to a bare basis state.

    Selection is by largest overlap magnitude with the given basis
    vector; a tie within 1e-12 means the dressed state cannot be
    identified and raises.
    """
    H = np.asarray(H)
    if not np.allclose(H, H.conj().T, atol=1e-12):
        raise ValueError("expected a Hermitian matrix")
    w, V = np.linalg.eigh(H)
    overlaps = np.abs(V[bare_index, :])
    order = np.argsort(overlaps)[::-1]
    if overlaps[order[0]] - overlaps[order[1]] < 1e-12:
        raise ValueError("ambiguous dressed-state identification")
    return float(w[order[0]])


def phase_rates(params: MSchemeParams) -> tuple[float, float, float]:
    """Dark eigenvalues (λ_p, λ_t, λ_pt) of the reduced sectors."""
    return tuple(
        dark_eigenvalue(H, i) for H, i in zip(reduced_hamiltonians(params), _BARE_INDICES)
    )


def eigenvalue_phase(params: MSchemeParams, t: float) -> float:
    """Cross-phase (λ_pt - λ_p - λ_t)·t from the exact dark eigenvalues."""
    lam_p, lam_t, lam_pt = phase_rates(params)
    return (lam_pt - lam_p - lam_t) * t
