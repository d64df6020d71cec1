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

from . import basis, dynamics
from .dynamics import conditional_generator, matrix_units
from .mscheme import (
    JumpChannel, Superoperator, assemble_channels, assemble_hamiltonian, build_liouvillian,
)
from .observables import check_states

# Atomic labels: all atoms in the intermediate level, one atom moved to
# the bottom level, one atom moved to the top level.
LADDER_ATOM_LABELS = ("G2", "E1", "E3")

CONVENTIONS = ("as-printed", "absorptive")

# Largest edge population the truncation guard accepts.
LEAKAGE_LIMIT = 1e-3

# Largest n_max whose generator pattern fits build_liouvillian's int64
# keys row·n² + col, n = ladder_dim(n_max): n⁴ < 2⁶³.
_N_MAX_LIMIT = 134


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
        for name, g in (("g_p", self.g_p), ("g_t", self.g_t)):
            if not math.isfinite(g * math.sqrt(self.N_a)):
                raise ValueError(f"collective coupling {name}·√N_a must be finite")
        if self.gamma21 < 0 or self.gamma32 < 0:
            raise ValueError("decay rates must be >= 0")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.n_max > _N_MAX_LIMIT:
            raise ValueError(
                f"n_max must be at most {_N_MAX_LIMIT} (where the generator's keys fit int64)"
            )
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


def ladder_states(n_max: int) -> tuple[tuple[str, int, int], ...]:
    """The basis as (label, n_p, n_t) tuples, in ladder_index order."""
    P = range(n_max + 1)
    return tuple((atom, n_p, n_t) for atom in LADDER_ATOM_LABELS for n_p in P for n_t in P)


def build_ladder_hamiltonian(params: LadderParams) -> np.ndarray:
    """Hamiltonian on the truncated collective space, units of γ.

    After dropping the constant energy of the filled intermediate level
    the diagonal is 0 / -δ_p / -δ_t on the three atomic labels. Moving
    an atom to the bottom level emits a probe photon; the trigger
    coupling follows the chosen convention ("as-printed" also emits,
    "absorptive" consumes a trigger photon when populating the top
    level). Collective enhancement enters once as g√N_a.
    """
    energy = {"G2": 0.0, "E1": -params.delta_p, "E3": -params.delta_t}
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)
    # A trigger photon is created on entering E3 ("as-printed") or on leaving it.
    trigger = ("G2", "E3") if params.convention == "as-printed" else ("E3", "G2")
    couplings = (
        (gp, "G2", "E1", (1, 0), lambda n_p, n_t: math.sqrt(n_p + 1)),
        (gt, *trigger, (0, 1), lambda n_p, n_t: math.sqrt(n_t + 1)),
    )
    return assemble_hamiltonian(ladder_states(params.n_max), energy, couplings)


def build_ladder_channels(params: LadderParams) -> list[JumpChannel]:
    """Spontaneous emission out of the intermediate and top levels.

    Decay of the filled intermediate level drops one atom to the bottom
    level (G2 -> E1); decay of the top level refills the intermediate
    one (E3 -> G2). Both carry unit amplitude and conserve photon
    numbers; dephasing is not part of this model.
    """
    rows = ((params.gamma21, "G2", "E1"), (params.gamma32, "E3", "G2"))
    return assemble_channels(ladder_states(params.n_max), rows)


def build_ladder_liouvillian(params: LadderParams) -> Superoperator:
    return build_liouvillian(build_ladder_hamiltonian(params), build_ladder_channels(params))


def qubit_positions(n_max: int) -> list[int]:
    """Ladder indices of the four photonic qubit states on G2."""
    return list(basis.qubit_positions(ladder_states(n_max), "G2"))


def ladder_choi_inputs(n_max: int) -> np.ndarray:
    """Matrix units of the photonic qubit block, atoms unexcited."""
    return matrix_units(qubit_positions(n_max), ladder_dim(n_max))


def evolve_ladder_gate(
    params: LadderParams,
    times: np.ndarray,
    amplitudes=None,
    *,
    conditional: bool = False,
    chunk: int | None = None,
    **kw,
):
    """Propagate the sixteen qubit matrix units of the ladder gate: their
    GateTrajectories, or with chunk an iterator over those of its time
    chunks (see dynamics.qubit_unit_stack).

    perfbench/tracer.py measures the ladder build's memory at this
    module's bindings build_ladder_liouvillian and conditional_generator
    (its RSS_BINDINGS), so the generators are built here under them.
    dynamics.qubit_unit_stack is looked up at call time, as for the
    five-level model, so a wrapper set on it sees both media.
    """
    if conditional:
        L = conditional_generator(
            build_ladder_hamiltonian(params), build_ladder_channels(params)
        )
    else:
        L = build_ladder_liouvillian(params)
    evolve = dynamics.qubit_unit_stack(L, qubit_positions(params.n_max), times, amplitudes, **kw)
    return evolve(0, chunk)


def reduce_to_photons(rho: np.ndarray, n_max: int) -> np.ndarray:
    """Trace out the atomic label: (...,3P²,3P²) -> (...,P²,P²)."""
    P = n_max + 1
    rho = check_states(rho, 3 * P * P, n_max)
    r = rho.reshape(rho.shape[:-2] + (3, P * P, 3, P * P))
    return np.einsum("...afag->...fg", r)


def photon_qubit_block(field_rho: np.ndarray, n_max: int) -> np.ndarray:
    """4x4 qubit block of a photon-basis state, order 00,01,10,11; the
    photon pair (n_p, n_t) sits at n_p*P + n_t, as reduce_to_photons leaves it."""
    P = n_max + 1
    idx = [n_p * P + n_t for n_p, n_t in basis.FIELD_BASIS[:4]]
    return check_states(field_rho, P * P, n_max)[..., idx, :][..., :, idx]


def boundary_population(rho: np.ndarray, n_max: int) -> np.ndarray:
    """Population at the truncation edge n_p = n_max or n_t = n_max."""
    P = n_max + 1
    pops = np.einsum("...ii->...i", check_states(rho, 3 * P * P, n_max)).real
    r = pops.reshape(pops.shape[:-1] + (3, P, P))
    interior = r[..., :, : P - 1, : P - 1].sum(axis=(-3, -2, -1))
    return r.sum(axis=(-3, -2, -1)) - interior


def check_truncation(traj: np.ndarray, n_max: int) -> None:
    """check_leakage on the edge population of one trajectory (T,n,n) or a batch (T,k,n,n)."""
    check_leakage(boundary_population(traj, n_max))


def check_leakage(leak: np.ndarray, *, labels=None) -> None:
    """Raise if any edge population (T,) or (T,k) exceeds LEAKAGE_LIMIT
    or is non-finite.

    The message names the time sample and, for a batch, the input of
    the worst state: the first non-finite one if there is any.
    """
    bad = ~np.isfinite(leak)
    at = np.unravel_index(int(np.argmax(bad if bad.any() else leak)), leak.shape)
    worst = float(leak[at])
    if bad[at] or worst > LEAKAGE_LIMIT:
        where = f" at time sample {int(at[0])}" if at else ""
        if len(at) == 2:
            where += f" of input {int(at[1]) if labels is None else labels[at[1]]}"
        if bad[at]:
            raise RuntimeError(f"truncation leakage is non-finite ({worst}){where}")
        raise RuntimeError(
            f"truncation leakage {worst:.3e}{where} exceeds {LEAKAGE_LIMIT:.1e}; raise n_max"
        )
