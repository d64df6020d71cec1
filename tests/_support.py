"""Shared test helpers.

The brute-force builder assembles the microscopic model of N five-level
atoms plus two photon modes (0..2 quanta each) in the full product
space and the isometry onto the symmetric zero/one-excitation
collective states. It shares no code with the package builders, so
projected agreement is an independent check of every matrix element.
"""
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import eitgate
from eitgate import basis, mscheme

REPO = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """Environment for a child Python process that imports the same copy
    of the package as this one: its directory leads PYTHONPATH."""
    path = [str(Path(eitgate.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

LEVELS = ("G", "E1", "E2", "E4", "E5")

# Generic parameter set with every rate distinct; couplings, detunings
# and decays all order one so each term is exercised.
RICH_PARAMS = mscheme.MSchemeParams(
    N_a=100.0,
    g_p=0.3,
    g_t=0.25,
    Omega1=2.0,
    Omega4=1.8,
    delta2=3.0,
    delta3=2.5,
    eps12=0.2,
    eps34=-0.15,
    gamma21=0.3,
    gamma23=0.45,
    gamma25=0.15,
    gamma41=0.2,
    gamma43=0.5,
    gamma45=0.1,
    gamma_deph_1=0.02,
    gamma_deph_2=0.01,
    gamma_deph_4=0.03,
    gamma_deph_5=0.015,
)

CLOSED_PARAMS = replace(
    RICH_PARAMS,
    gamma21=0.0,
    gamma23=0.0,
    gamma25=0.0,
    gamma41=0.0,
    gamma43=0.0,
    gamma45=0.0,
    gamma_deph_1=0.0,
    gamma_deph_2=0.0,
    gamma_deph_4=0.0,
    gamma_deph_5=0.0,
)


def fast_gate_config() -> dict:
    """Config overrides for quick CLI runs with a |cps|=pi crossing < 0.5."""
    return {
        "n_atoms": 1e8,
        "g_p": 0.0022,
        "g_t": 0.0022,
        "omega1": 4.0,
        "omega4": 4.0,
        "delta2": 15.0,
        "delta3": 15.0,
        "eps12": 0.01,
        "eps34": 0.01,
        "t_max": 0.5,
        "n_samples": 26,
        "mc_samples": 400,
        "seed": 11,
    }


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def haar_states(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    X = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _single_atom(pairs: dict) -> np.ndarray:
    op = np.zeros((5, 5), dtype=complex)
    for (upper, lower), amp in pairs.items():
        op[LEVELS.index(upper), LEVELS.index(lower)] = amp
    return op


def _collective(op1: np.ndarray, n_atoms: int) -> np.ndarray:
    """Sum of a one-atom operator over every atom slot."""
    total = np.zeros((5**n_atoms, 5**n_atoms), dtype=complex)
    for i in range(n_atoms):
        factors = [np.eye(5)] * n_atoms
        factors[i] = op1
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total


def _photon_lowering() -> np.ndarray:
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    a[1, 2] = np.sqrt(2.0)
    return a


def full_space_operators(params: mscheme.MSchemeParams, n_atoms: int) -> dict:
    """Microscopic Hamiltonian and the collective jump candidates.

    Index order: atomic product index (base 5, first atom most
    significant) times 9 photon states, trigger quanta fastest.
    """
    a1 = _photon_lowering()
    a_p = np.kron(a1, np.eye(3))
    a_t = np.kron(np.eye(3), a1)
    eye_ph = np.eye(9)

    def coll(upper, lower):
        return _collective(_single_atom({(upper, lower): 1.0}), n_atoms)

    diag = np.zeros((5, 5), dtype=complex)
    for label, value in (
        ("E1", params.eps12),
        ("E2", params.delta2),
        ("E4", params.delta3),
        ("E5", params.eps34),
    ):
        diag[LEVELS.index(label), LEVELS.index(label)] = value

    H = np.kron(_collective(diag, n_atoms), eye_ph)
    sw1 = coll("E1", "E2")
    H += params.Omega1 * np.kron(sw1 + sw1.conj().T, eye_ph)
    sw4 = coll("E5", "E4")
    H += params.Omega4 * np.kron(sw4 + sw4.conj().T, eye_ph)
    up_p = coll("E2", "G")
    H += params.g_p * (np.kron(up_p, a_p) + np.kron(up_p.conj().T, a_p.conj().T))
    up_t = coll("E4", "G")
    H += params.g_t * (np.kron(up_t, a_t) + np.kron(up_t.conj().T, a_t.conj().T))

    lowering = {
        (u, l): np.kron(coll(l, u), eye_ph)
        for u, l, _ in (
            ("E2", "E1", None),
            ("E2", "G", None),
            ("E2", "E5", None),
            ("E4", "E1", None),
            ("E4", "G", None),
            ("E4", "E5", None),
        )
    }
    projectors = {
        label: np.kron(_collective(_single_atom({(label, label): 1.0}), n_atoms), eye_ph)
        for label in ("E1", "E2", "E4", "E5")
    }
    return {"H": H, "lowering": lowering, "projectors": projectors}


def symmetric_isometry(n_atoms: int) -> np.ndarray:
    """Columns embed the 18 collective states into the product space."""
    W = np.zeros((5**n_atoms * 9, basis.M_DIM), dtype=complex)
    for idx, (atom, n_p, n_t) in enumerate(basis.M_STATES):
        ph = 3 * n_p + n_t
        if atom == "G":
            W[ph, idx] = 1.0
        else:
            k = LEVELS.index(atom)
            for i in range(n_atoms):
                atomic = k * 5 ** (n_atoms - 1 - i)
                W[atomic * 9 + ph, idx] = 1.0 / np.sqrt(n_atoms)
    return W
