"""Three-level ladder comparison model with quantized probe and trigger.

The collective single-excitation treatment of a ladder medium: every
atom sits in the intermediate level, the probe transition connects it to
the bottom level and the trigger transition to the top one. The
restricted basis is (atomic label) x (probe photons) x (trigger
photons) with the photon numbers truncated at n_max, and a leakage
check guards the truncation. The qubit block, phases and fidelities are
read out exactly as for the five-level model so the two schemes can be
compared time point by time point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GateTrajectories, conditional_generator, evolve_superoperator
from .dynamics import matrix_units, normalized_amplitudes
from .mscheme import JumpChannel, build_liouvillian

# Atomic labels: all atoms in the intermediate level, one atom moved to
# the bottom level, one atom moved to the top level.
LADDER_ATOM_LABELS = ("G2", "E1", "E3")

CONVENTIONS = ("as-printed", "absorptive")


@dataclass(frozen=True)
class LadderParams:
    """Ladder-model parameters in units of γ."""

    N_a: float = 1.0
    g_p: float = 0.0
    g_t: float = 0.0
    delta_p: float = 0.0
    delta_t: float = 0.0
    gamma21: float = 1.0
    gamma32: float = 1.0
    n_max: int = 3
    convention: str = "as-printed"

    def __post_init__(self):
        if self.N_a < 1:
            raise ValueError("N_a must be >= 1")
        if self.gamma21 < 0 or self.gamma32 < 0:
            raise ValueError("decay rates must be >= 0")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown coupling convention {self.convention!r}")


def ladder_dim(n_max: int) -> int:
    return 3 * (n_max + 1) ** 2


def ladder_index(atom: str, n_p: int, n_t: int, n_max: int) -> int:
    """Position of a product state; trigger photons vary fastest."""
    if atom not in LADDER_ATOM_LABELS:
        raise ValueError(f"unknown atomic label {atom!r}")
    if not (0 <= n_p <= n_max and 0 <= n_t <= n_max):
        raise ValueError("photon number outside the truncated range")
    P = n_max + 1
    return LADDER_ATOM_LABELS.index(atom) * P * P + n_p * P + n_t


def build_ladder_hamiltonian(params: LadderParams) -> np.ndarray:
    """Hamiltonian on the truncated collective space, units of γ.

    After dropping the constant energy of the filled intermediate level
    the diagonal is 0 / -δ_p / -δ_t on the three atomic labels. Moving
    an atom to the bottom level emits a probe photon; the trigger
    coupling follows the chosen convention ("as-printed" also emits,
    "absorptive" consumes a trigger photon when populating the top
    level). Collective enhancement enters once as g√N_a.
    """
    n_max = params.n_max
    dim = ladder_dim(n_max)
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)
    H = np.zeros((dim, dim), dtype=complex)
    for n_p in range(n_max + 1):
        for n_t in range(n_max + 1):
            i1 = ladder_index("E1", n_p, n_t, n_max)
            i3 = ladder_index("E3", n_p, n_t, n_max)
            H[i1, i1] = -params.delta_p
            H[i3, i3] = -params.delta_t
            g2 = ladder_index("G2", n_p, n_t, n_max)
            if n_p < n_max:
                j = ladder_index("E1", n_p + 1, n_t, n_max)
                H[g2, j] = H[j, g2] = gp * math.sqrt(n_p + 1)
            if params.convention == "as-printed":
                if n_t < n_max:
                    j = ladder_index("E3", n_p, n_t + 1, n_max)
                    H[g2, j] = H[j, g2] = gt * math.sqrt(n_t + 1)
            else:
                if n_t >= 1:
                    j = ladder_index("E3", n_p, n_t - 1, n_max)
                    H[g2, j] = H[j, g2] = gt * math.sqrt(n_t)
    return H


def build_ladder_channels(params: LadderParams) -> list[JumpChannel]:
    """Spontaneous emission out of the intermediate and top levels.

    Decay of the filled intermediate level drops one atom to the bottom
    level (G2 -> E1); decay of the top level refills the intermediate
    one (E3 -> G2). Both carry unit amplitude and conserve photon
    numbers; dephasing is not part of this model.
    """
    n_max = params.n_max
    dim = ladder_dim(n_max)
    channels = []
    for rate, src, dst in ((params.gamma21, "G2", "E1"), (params.gamma32, "E3", "G2")):
        if rate == 0.0:
            continue
        op = np.zeros((dim, dim), dtype=complex)
        for n_p in range(n_max + 1):
            for n_t in range(n_max + 1):
                op[
                    ladder_index(dst, n_p, n_t, n_max),
                    ladder_index(src, n_p, n_t, n_max),
                ] = 1.0
        channels.append(JumpChannel(rate=rate, op=op, kind="decay"))
    return channels


def build_ladder_liouvillian(params: LadderParams) -> np.ndarray:
    return build_liouvillian(build_ladder_hamiltonian(params), build_ladder_channels(params))


def _qubit_positions(n_max: int) -> list[int]:
    """Ladder indices of the four photonic qubit states on G2."""
    return [
        ladder_index("G2", n_p, n_t, n_max) for n_p, n_t in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


def ladder_choi_inputs(n_max: int) -> np.ndarray:
    """Matrix units of the photonic qubit block, atoms unexcited."""
    return matrix_units(_qubit_positions(n_max), ladder_dim(n_max))


def evolve_ladder_gate(
    params: LadderParams,
    times: np.ndarray,
    amplitudes=None,
    *,
    conditional: bool = False,
    **kw,
) -> GateTrajectories:
    """Propagate the sixteen qubit matrix units of the ladder gate."""
    c = normalized_amplitudes(amplitudes)
    if conditional:
        L = conditional_generator(
            build_ladder_hamiltonian(params), build_ladder_channels(params)
        )
    else:
        L = build_ladder_liouvillian(params)
    traj = evolve_superoperator(L, ladder_choi_inputs(params.n_max), times, **kw)
    return GateTrajectories(
        times=np.asarray(times, dtype=float), unit_inputs=traj, amplitudes=c
    )


def reduce_to_photons(rho: np.ndarray, n_max: int) -> np.ndarray:
    """Trace out the atomic label: (...,3P²,3P²) -> (...,P²,P²)."""
    rho = np.asarray(rho)
    P = n_max + 1
    dim = 3 * P * P
    if rho.shape[-2:] != (dim, dim):
        raise ValueError("state dimension does not match n_max")
    r = rho.reshape(rho.shape[:-2] + (3, P * P, 3, P * P))
    return np.einsum("...afag->...fg", r)


def photon_qubit_block(field_rho: np.ndarray, n_max: int) -> np.ndarray:
    """4x4 qubit block of a photon-basis state, order 00,01,10,11."""
    P = n_max + 1
    idx = [0, 1, P, P + 1]
    return np.asarray(field_rho)[..., idx, :][..., :, idx]


def boundary_population(rho: np.ndarray, n_max: int) -> np.ndarray:
    """Population at the truncation edge n_p = n_max or n_t = n_max."""
    rho = np.asarray(rho)
    P = n_max + 1
    pops = np.einsum("...ii->...i", rho).real
    r = pops.reshape(pops.shape[:-1] + (3, P, P))
    interior = r[..., :, : P - 1, : P - 1].sum(axis=(-3, -2, -1))
    return r.sum(axis=(-3, -2, -1)) - interior


def check_truncation(traj: np.ndarray, n_max: int, threshold: float = 1e-3) -> None:
    """Raise if any state puts more than threshold at the photon edge."""
    worst = float(np.max(boundary_population(traj, n_max)))
    if worst > threshold:
        raise RuntimeError(
            f"truncation leakage {worst:.3e} exceeds {threshold:.1e}; raise n_max"
        )
