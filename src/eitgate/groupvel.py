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
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_superoperator, steady_state
from .mscheme import (
    BlockIndex, MSchemeParams, Superoperator, build_hamiltonian, build_jump_channels,
    build_liouvillian, transition_operator,
)

# Atomic levels 1..5 at indices 0..4; the ground level is 3. They are the
# photon-free collective states, on which the single atom is built.
_LEVELS = tuple((label, 0, 0) for label in ("E1", "E2", "G", "E4", "E5"))
_N_LEVELS = len(_LEVELS)
_GROUND = _LEVELS.index(("G", 0, 0))
_PROBE_UPPER = _LEVELS.index(("E2", 0, 0))
_E1 = _LEVELS.index(("E1", 0, 0))


@dataclass(frozen=True)
class OpticalConstants:
    """SI constants and transition data entering the dimensional output."""

    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    epsilon0: float = 8.8541878128e-12
    omega_p: float = 2.0 * math.pi * 377.228e12  # rad/s
    mu_p: float = 2.5e-29  # C m

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"optical constant {name!r} must be positive and finite")


def _probe_rabi(params: MSchemeParams, probe_rabi_classical: float) -> float:
    omega = probe_rabi_classical * params.g_p * math.sqrt(params.N_a)
    if omega == 0.0:
        raise ValueError("probe coupling is zero; susceptibility undefined")
    return omega


def semiclassical_hamiltonian(
    params: MSchemeParams, probe_rabi_classical: float = 1e-3, offset: float | np.ndarray = 0.0
) -> np.ndarray:
    """5x5 collective Hamiltonian on the photon-free states (γ units),
    with weak classical probe and trigger couplings in place of photons.

    offset shifts the probe carrier frequency (γ units): the probe
    detuning drops by offset while the probe two-photon mismatch grows
    by it; the trigger fields are untouched. An array of offsets gives a
    stack of its shape.
    """
    offset = np.asarray(offset, dtype=float)
    H = build_hamiltonian(params, states=_LEVELS)
    H = np.broadcast_to(H, offset.shape + H.shape).copy()
    H[..., _E1, _E1] += offset
    H[..., _PROBE_UPPER, _PROBE_UPPER] -= offset
    omega_p = _probe_rabi(params, probe_rabi_classical)
    omega_t = probe_rabi_classical * params.g_t * math.sqrt(params.N_a)
    for strength, level in ((omega_p, "E2"), (omega_t, "E4")):
        T = transition_operator(_LEVELS, "G", level)
        H += strength * (T + T.conj().T)
    return H


def semiclassical_liouvillian(
    params: MSchemeParams, probe_rabi_classical: float = 1e-3, offset: float | np.ndarray = 0.0
) -> Superoperator:
    """25x25 generator of the single-atom master equation. An array of
    offsets gives the stack of their generators on one pattern, matrix k
    of a 1-D stack being L._replace(data=L.data[k]) (see
    build_liouvillian)."""
    return build_liouvillian(
        semiclassical_hamiltonian(params, probe_rabi_classical, offset),
        build_jump_channels(params, states=_LEVELS),
    )


def susceptibility_from_state(
    rho: np.ndarray,
    params: MSchemeParams,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> complex | np.ndarray:
    """Dimensionless probe susceptibility read off (..., 5, 5) atomic states."""
    omega_p = _probe_rabi(params, probe_rabi_classical)
    gN2 = params.g_p**2 * params.N_a
    coherence = rho[..., _PROBE_UPPER, _GROUND]
    return 2.0 * gN2 * params.gamma_SI * coherence / (constants.omega_p * omega_p)


def steady_susceptibility(
    params: MSchemeParams,
    offset: float | np.ndarray = 0.0,
    *,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> complex | np.ndarray:
    """Probe susceptibility of the stationary driven atom at each probe
    offset; an array of offsets gives an array of its shape.

    One semiclassical_liouvillian call assembles the generators of every
    offset as a stack, and each offset's steady state is solved on its
    own matrix of it, gathered dense through one BlockIndex of the shared
    pattern; a failure names the offset.
    """
    offset = np.asarray(offset, dtype=float)
    flat = offset.ravel()
    if not np.isfinite(flat).all():
        raise ValueError(f"probe offset {float(flat[~np.isfinite(flat)][0])} is not finite")
    L = semiclassical_liouvillian(params, probe_rabi_classical, flat)
    dense = BlockIndex.of(L, np.arange(L.shape[0]))  # as L.toarray() gathers each matrix
    rho = np.empty((flat.size, _N_LEVELS, _N_LEVELS), dtype=complex)
    for k, d in enumerate(flat):
        try:
            rho[k] = steady_state(dense.gather(L.data[k]))
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"{exc} at probe offset {float(d)}") from exc
    rho = rho.reshape(*offset.shape, _N_LEVELS, _N_LEVELS)
    return susceptibility_from_state(rho, params, probe_rabi_classical, constants)


def _fd_offsets(fd_step: float) -> np.ndarray:
    """Probe offsets 0, +fd_step and -fd_step."""
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"fd_step must be positive and finite, got {fd_step}")
    return np.array([0.0, fd_step, -fd_step])


def _velocity_from_chi(
    chi: np.ndarray, fd_step: float, params: MSchemeParams, constants: OpticalConstants
) -> np.ndarray:
    """Group velocity from χ at the three _fd_offsets, along axis 0."""
    scale = constants.omega_p / (2.0 * params.gamma_SI)
    if not math.isfinite(scale):
        raise ValueError("the dispersion factor omega_p / (2 gamma_SI) is not finite")
    slope = (np.real(chi[1]) - np.real(chi[2])) / (2.0 * fd_step)
    n_g = 1.0 + np.real(chi[0]) / 2.0 + scale * slope
    return constants.c / n_g


def group_velocity_steady(
    params: MSchemeParams,
    *,
    fd_step: float = 1e-3,
    probe_rabi_classical: float = 1e-3,
    constants: OpticalConstants = OpticalConstants(),
) -> float:
    """Probe group velocity (m/s) from the stationary dispersion.

    The frequency derivative of Re χ is taken by central differences
    over the probe offset, fd_step in γ units.
    """
    chi = steady_susceptibility(
        params, _fd_offsets(fd_step), probe_rabi_classical=probe_rabi_classical,
        constants=constants,
    )
    return float(_velocity_from_chi(chi, fd_step, params, constants))


def group_velocity_transient(
    params: MSchemeParams,
    t_int: float,
    *,
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
    [0, t_int] (γ units) and averaged with the trapezoid rule. A t_int or
    fd_step that is not positive and finite is refused by name before any
    build.
    """
    if avg_grid < 2:
        raise ValueError("avg_grid must be at least 2")
    if not (math.isfinite(t_int) and t_int > 0):
        raise ValueError(f"t_int must be positive and finite, got {t_int}")
    L = semiclassical_liouvillian(params, probe_rabi_classical, _fd_offsets(fd_step))
    times = np.linspace(0.0, t_int, avg_grid)
    rho0 = np.zeros((_N_LEVELS, _N_LEVELS), dtype=complex)
    rho0[_GROUND, _GROUND] = 1.0
    # Pinned to scipy.linalg.expm's bits, computed without scipy: the
    # trapezoid average of c/n_g(t) crosses a pole of n_g, so an
    # exponential that differs in rounding moves the result by up to 1e-6
    # relative. Goes away once the average is well-posed (ROADMAP item 4).
    from ._expm2009 import expm

    traj = np.array([
        evolve_superoperator(L._replace(data=d), rho0, times, method=method, exponential=expm, **kw)
        for d in L.data
    ])
    chi = susceptibility_from_state(traj, params, probe_rabi_classical, constants)
    v = _velocity_from_chi(chi, fd_step, params, constants)
    return float(np.trapezoid(v, times) / (times[-1] - times[0]))


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
    cylinder of that volume and length. A quantity that comes out not
    finite and positive is refused by name.
    """
    g_si = params.g_p * params.gamma_SI
    if g_si == 0.0:
        raise ValueError("probe coupling is zero; the mode volume is undefined")
    length = v_g * t_int / params.gamma_SI
    if length <= 0:
        raise ValueError("interaction length must be positive")
    # float64 scalars overflow to inf and divide by zero to inf where Python
    # floats raise; their power is the same pow as Python's.
    with np.errstate(all="ignore"):
        volume = np.float64(constants.mu_p) ** 2 * constants.omega_p / (
            2.0 * constants.hbar * constants.epsilon0 * np.float64(g_si) ** 2
        )
        diameter = 2.0 * np.sqrt(volume / (math.pi * length))
        density = params.N_a / volume
    geometry = CellGeometry(*map(float, (volume, length, diameter, density)))
    for name, value in vars(geometry).items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"cell {name} {value} is not finite and positive")
    return geometry
