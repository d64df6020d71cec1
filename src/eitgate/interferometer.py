"""Interferometric readout of the gate phases.

Closed-form coincidence fringes of the Michelson-type setup with
Fock-encoded qubits, where the nonlinear phase appears as the offset
between two coincidence patterns, and the phase table of the
polarization-encoded variant (Ottaviani et al., PRA 73, 010301(R)
(2006)), whose four diagonal-basis phases combine to the conditional
phase. A least-squares fringe fit recovers offset, visibility amplitude
and phase from sampled patterns, and the expected Bell-inequality
violation follows directly from the conditional phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MalformedFringeError(ValueError):
    """Raised when sampled data is not a single sinusoidal fringe."""


def fock_coincidences(Phi, cps, phi10=0.0, phi00=0.0, phi_plus0=0.0):
    """Coincidence probabilities vs interferometer phase, Fock encoding.

    The pattern P1 (reflected probe with transmitted-trigger port 1)
    carries the conditional phase cps on top of the common shift from
    the single-photon phases; P2 carries the common shift only. Both
    have the 1/8 coincidence normalization of the proposed setup.
    """
    Phi = np.asarray(Phi, dtype=float)
    shifted = Phi + (phi10 - 2.0 * phi00 + phi_plus0)
    p1 = (1.0 + np.cos(shifted + cps)) / 8.0
    p2 = (1.0 + np.cos(shifted)) / 8.0
    return p1, p2


@dataclass(frozen=True)
class PolarizationPhases:
    """Single- and two-photon phases by circular polarization.

    Index order is (probe, trigger); "0" means the photon is absent,
    "m" is the polarization that addresses the medium (the logical one
    state), "p" the orthogonal one that passes unaffected.
    """

    phi_00: float = 0.0
    phi_0p: float = 0.0
    phi_0m: float = 0.0
    phi_p0: float = 0.0
    phi_pp: float = 0.0
    phi_pm: float = 0.0
    phi_m0: float = 0.0
    phi_mp: float = 0.0
    phi_mm: float = 0.0


def ideal_eit_phases(phi_probe: float, phi_trigger: float, cps: float) -> PolarizationPhases:
    """Phase table of an ideal medium.

    The passing polarization and the vacuum pick up nothing, each
    addressed single photon picks up its linear phase, and the doubly
    addressed pair adds the conditional phase on top of both.
    """
    return PolarizationPhases(
        phi_0m=phi_trigger,
        phi_m0=phi_probe,
        phi_mp=phi_probe,
        phi_pm=phi_trigger,
        phi_mm=phi_probe + phi_trigger + cps,
    )


def diagonal_phases(table: PolarizationPhases) -> dict[str, float]:
    """Fringe phases φ̄_ij = φ_ij - φ_i0 - φ_0j + φ_00 for i,j in {p,m}.

    Their alternating sum over the four entries equals the conditional
    phase of the gate regardless of the single-photon phases.
    """
    out = {}
    for i in ("p", "m"):
        for j in ("p", "m"):
            out[i + j] = (
                getattr(table, f"phi_{i}{j}")
                - getattr(table, f"phi_{i}0")
                - getattr(table, f"phi_0{j}")
                + table.phi_00
            )
    return out


@dataclass(frozen=True)
class FringeFit:
    """Sinusoid a + b cos(Φ + θ) recovered from samples."""

    offset: float
    amplitude: float
    phase: float
    residual: float


def fit_fringe(Phi, samples) -> FringeFit:
    """Least-squares fit of a sampled pattern to a + b cos(Φ + θ).

    Needs at least eight samples spanning at least 2π. The fit is
    linear in (a, b cosθ, -b sinθ); a relative residual above 1e-6 of
    the amplitude means the data is not a pure fringe and raises
    MalformedFringeError.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(samples, dtype=float)
    if Phi.ndim != 1 or Phi.shape != y.shape:
        raise ValueError("phase grid and samples must be matching 1-d arrays")
    if Phi.size < 8:
        raise ValueError("need at least eight fringe samples")
    if np.ptp(Phi) < 2.0 * math.pi * (1.0 - 1e-9):
        raise ValueError("fringe samples must span at least a full period")
    A = np.column_stack([np.ones_like(Phi), np.cos(Phi), np.sin(Phi)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    a, c1, c2 = coef
    b = math.hypot(c1, c2)
    theta = math.atan2(-c2, c1)
    residual = float(np.linalg.norm(y - A @ coef))
    if residual > 1e-6 * max(b, 1e-300):
        raise MalformedFringeError(
            f"fringe residual {residual:.3e} too large for amplitude {b:.3e}"
        )
    return FringeFit(offset=float(a), amplitude=b, phase=theta, residual=residual)


def gate_phase_from_fits(with_cps: FringeFit, reference: FringeFit) -> float:
    """Conditional phase as the offset between the two fitted fringes."""
    return math.remainder(with_cps.phase - reference.phase, 2.0 * math.pi)


def chsh_parameter(cps: float) -> float:
    """Largest CHSH combination reachable with the gate phase cps."""
    return 2.0 * math.sqrt(1.0 + math.sin(cps) ** 2)
