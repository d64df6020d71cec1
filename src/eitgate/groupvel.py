"""Probe susceptibility, group velocity, and medium geometry.

A single five-level atom driven by four classical fields stands in for
the medium: the quantized probe and trigger are replaced by weak
classical fields whose Rabi frequencies carry the collective
enhancement, so the linear response per photon is unchanged. The
susceptibility follows from the steady or transient optical coherence on
the probe transition, the group velocity from its dispersion against a
probe frequency offset, and the cell geometry from the coupling-volume
relation together with the slow-light compression of the pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import trapezoid

from .basis import m_index
from .dynamics import evolve_superoperator, steady_state
from .mscheme import JumpChannel, MSchemeParams, build_jump_channels, build_liouvillian

# Atomic levels 1..5 at indices 0..4; the ground level is 3. They are the
# photon-free collective states, at these positions of the 18-state basis.
_LEVEL_INDICES = tuple(m_index(label, 0, 0) for label in ("E1", "E2", "G", "E4", "E5"))
_N_LEVELS = len(_LEVEL_INDICES)
_GROUND = 2


@dataclass(frozen=True)
class OpticalConstants:
    """SI constants and transition data entering the dimensional output."""

    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    epsilon0: float = 8.8541878128e-12
    omega_p: float = 2.0 * math.pi * 377.228e12  # rad/s
    omega_t: float = 2.0 * math.pi * 384.225e12  # rad/s
    mu_p: float = 2.5e-29  # C m
    mu_t: float = 2.5e-29  # C m


def _probe_rabi(params: MSchemeParams, probe_rabi_classical: float) -> float:
    omega = probe_rabi_classical * params.g_p * math.sqrt(params.N_a)
    if omega == 0.0:
        raise ValueError("probe coupling is zero; susceptibility undefined")
    return omega


def semiclassical_hamiltonian(
    params: MSchemeParams, probe_rabi_classical: float = 1e-3, offset: float = 0.0
) -> np.ndarray:
    """5x5 single-atom Hamiltonian in γ units.

    offset shifts the probe carrier frequency (γ units): the probe
    detuning drops by offset while the probe two-photon mismatch grows
    by it; the trigger fields are untouched.
    """
    omega_p = _probe_rabi(params, probe_rabi_classical)
    omega_t = probe_rabi_classical * params.g_t * math.sqrt(params.N_a)
    H = np.zeros((_N_LEVELS, _N_LEVELS), dtype=complex)
    H[0, 0] = params.eps12 + offset
    H[1, 1] = params.delta2 - offset
    H[3, 3] = params.delta3
    H[4, 4] = params.eps34
    H[1, 0] = H[0, 1] = params.Omega1
    H[1, 2] = H[2, 1] = omega_p
    H[3, 2] = H[2, 3] = omega_t
    H[3, 4] = H[4, 3] = params.Omega4
    return H


def semiclassical_channels(params: MSchemeParams) -> list[JumpChannel]:
    """Single-atom decay and dephasing channels on the five levels: the
    collective channels restricted to the photon-free states."""
    idx = np.ix_(_LEVEL_INDICES, _LEVEL_INDICES)
    return [replace(ch, op=ch.op[idx]) for ch in build_jump_channels(params)]


def semiclassical_liouvillian(
    params: MSchemeParams, probe_rabi_classical: float = 1e-3, offset: float = 0.0
) -> np.ndarray:
    """25x25 generator of the single-atom master equation."""
    return build_liouvillian(
        semiclassical_hamiltonian(params, probe_rabi_classical, offset),
        semiclassical_channels(params),
    )


def susceptibility_from_state(
    rho: np.ndarray,
    params: MSchemeParams,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> complex:
    """Dimensionless probe susceptibility read off a 5x5 atomic state."""
    omega_p = _probe_rabi(params, probe_rabi_classical)
    gN2 = params.g_p**2 * params.N_a
    return complex(
        2.0 * gN2 * params.gamma_SI * rho[1, _GROUND] / (constants.omega_p * omega_p)
    )


def steady_susceptibility(
    params: MSchemeParams,
    offset: float = 0.0,
    *,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> complex:
    """Probe susceptibility of the stationary driven atom."""
    L = semiclassical_liouvillian(params, probe_rabi_classical, offset)
    rho = steady_state(L)
    return susceptibility_from_state(rho, params, probe_rabi_classical, constants)


def _velocity_from_chi(
    chi0: np.ndarray, chi_plus: np.ndarray, chi_minus: np.ndarray,
    fd_step: float, params: MSchemeParams, constants: OpticalConstants,
) -> np.ndarray:
    slope = (np.real(chi_plus) - np.real(chi_minus)) / (2.0 * fd_step)
    n_g = 1.0 + np.real(chi0) / 2.0 + constants.omega_p / (2.0 * params.gamma_SI) * slope
    return constants.c / n_g


def group_velocity_steady(
    params: MSchemeParams,
    offset: float = 0.0,
    *,
    fd_step: float = 1e-3,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> float:
    """Probe group velocity (m/s) from the stationary dispersion.

    The frequency derivative of Re χ is taken by central differences
    over the probe offset, fd_step in γ units.
    """
    chis = [
        steady_susceptibility(
            params, offset + d, probe_rabi_classical=probe_rabi_classical,
            constants=constants,
        )
        for d in (0.0, fd_step, -fd_step)
    ]
    return float(_velocity_from_chi(chis[0], chis[1], chis[2], fd_step, params, constants))


def group_velocity_transient(
    params: MSchemeParams,
    t_int: float,
    *,
    offset: float = 0.0,
    avg_grid: int = 200,
    fd_step: float = 1e-3,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
    method: str = "exponential",
    **kw,
) -> float:
    """Interaction-time average of the group velocity (m/s).

    The atom starts in the ground level when the fields switch on; the
    instantaneous velocity is evaluated on a uniform grid over
    [0, t_int] (γ units) and averaged with the trapezoid rule.
    """
    if avg_grid < 2:
        raise ValueError("avg_grid must be at least 2")
    if t_int <= 0:
        raise ValueError("t_int must be positive")
    times = np.linspace(0.0, t_int, avg_grid)
    rho0 = np.zeros((_N_LEVELS, _N_LEVELS), dtype=complex)
    rho0[_GROUND, _GROUND] = 1.0
    chi = []
    for d in (0.0, fd_step, -fd_step):
        L = semiclassical_liouvillian(params, probe_rabi_classical, offset + d)
        traj = evolve_superoperator(L, rho0, times, method=method, **kw)
        chi.append(
            np.array(
                [
                    susceptibility_from_state(r, params, probe_rabi_classical, constants)
                    for r in traj
                ]
            )
        )
    v = _velocity_from_chi(chi[0], chi[1], chi[2], fd_step, params, constants)
    return float(trapezoid(v, times) / (times[-1] - times[0]))


@dataclass(frozen=True)
class CellGeometry:
    """Derived medium dimensions, SI units."""

    volume: float  # m³
    length: float  # m
    diameter: float  # m
    density: float  # atoms per m³


def cell_geometry(
    params: MSchemeParams,
    v_g: float,
    t_int: float,
    constants: OpticalConstants = OpticalConstants(),
) -> CellGeometry:
    """Cell dimensions consistent with the coupling and the slow pulse.

    The mode volume follows from the probe vacuum coupling, the length
    from the distance the slowed pulse covers during the interaction
    time t_int (γ units), and the diameter from treating the cell as a
    cylinder of that volume and length.
    """
    g_si = params.g_p * params.gamma_SI
    if g_si == 0.0:
        raise ValueError("probe coupling is zero; the mode volume is undefined")
    volume = constants.mu_p**2 * constants.omega_p / (
        2.0 * constants.hbar * constants.epsilon0 * g_si**2
    )
    length = v_g * t_int / params.gamma_SI
    if length <= 0:
        raise ValueError("interaction length must be positive")
    diameter = 2.0 * math.sqrt(volume / (math.pi * length))
    return CellGeometry(
        volume=volume,
        length=length,
        diameter=diameter,
        density=params.N_a / volume,
    )
