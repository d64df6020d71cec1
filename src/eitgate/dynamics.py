"""Time evolution engines and stationary states for the master equation.

Two engines integrate vec(ρ̇) = L vec(ρ): "exponential" builds the matrix
exponential of one uniform step and iterates it (exactly reproducible),
"adaptive-rk" delegates to an adaptive Runge-Kutta integrator. Both act
on batches of initial states at once so the sixteen qubit-block matrix
units evolve in a single pass; arbitrary superposition inputs follow by
linearity. Conditional (null-measurement) evolution replaces the decay
dissipators by the non-Hermitian drift term, which makes the trace decay
with the accumulated jump probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .basis import M_DIM, QUBIT_M_INDICES
from .mscheme import (
    MSchemeParams,
    Superoperator,
    build_hamiltonian,
    build_jump_channels,
    build_liouvillian,
    unvec,
    vec,
)

_UNIFORM_RTOL = 1e-9


def _uniform_step(times: np.ndarray) -> float:
    dt = np.diff(times)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.allclose(dt, dt[0], rtol=_UNIFORM_RTOL, atol=0.0):
        raise ValueError("the exponential engine requires a uniform time grid")
    return float(dt[0])


def _stack(rhos: np.ndarray) -> np.ndarray:
    """(k,n,n) batch -> (n²,k) matrix whose columns are vec(ρ_i)."""
    k, n = rhos.shape[0], rhos.shape[1]
    return rhos.transpose(0, 2, 1).reshape(k, n * n).T


def _unstack(V: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _stack."""
    k = V.shape[1]
    return V.T.reshape(k, n, n).transpose(0, 2, 1)


def evolve_superoperator(
    L: Superoperator,
    rho0: np.ndarray,
    times: np.ndarray,
    *,
    method: str = "exponential",
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    max_step: float | None = None,
) -> np.ndarray:
    """Propagate one state (n,n) or a batch (k,n,n) along a time grid.

    Returns (T,n,n) or (T,k,n,n) matching the input rank; rho0 is the
    state at times[0].
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    rho0 = np.asarray(rho0, dtype=complex)
    single = rho0.ndim == 2
    if single:
        rho0 = rho0[None]
    if rho0.ndim != 3 or rho0.shape[1] != rho0.shape[2]:
        raise ValueError("rho0 must be square or a batch of square matrices")
    k, n = rho0.shape[0], rho0.shape[1]
    if L.shape != (n * n, n * n):
        raise ValueError("superoperator does not match the state dimension")

    out = np.empty((times.size, k, n, n), dtype=complex)
    out[0] = rho0
    if times.size > 1:
        if method == "exponential":
            dt = _uniform_step(times)
            P = expm(L * dt)
            V = _stack(rho0)
            for m in range(1, times.size):
                V = P @ V
                out[m] = _unstack(V, n)
        elif method == "adaptive-rk":
            def rhs(_t, y):
                V = y.reshape(n * n, k, order="F")
                return (L @ V).reshape(-1, order="F")

            kwargs = {}
            if max_step is not None:
                kwargs["max_step"] = max_step
            sol = solve_ivp(
                rhs,
                (times[0], times[-1]),
                _stack(rho0).reshape(-1, order="F"),
                t_eval=times,
                method="RK45",
                rtol=rel_tol,
                atol=abs_tol,
                **kwargs,
            )
            if not sol.success:
                raise RuntimeError(f"adaptive integration failed: {sol.message}")
            for m in range(1, times.size):
                out[m] = _unstack(sol.y[:, m].reshape(n * n, k, order="F"), n)
        else:
            raise ValueError(f"unknown evolution method {method!r}")
    return out[:, 0] if single else out


def build_liouvillian_for(params: MSchemeParams) -> Superoperator:
    """Full 324x324 Liouvillian of the collective model."""
    return build_liouvillian(build_hamiltonian(params), build_jump_channels(params))


def evolve(params: MSchemeParams, rho0: np.ndarray, times: np.ndarray, **kw) -> np.ndarray:
    """Unconditional master-equation evolution of rho0."""
    return evolve_superoperator(build_liouvillian_for(params), rho0, times, **kw)


def conditional_generator(
    H: np.ndarray, channels, dephasing_mode: str = "lindblad"
) -> Superoperator:
    """Generator of the trace-decreasing conditional evolution.

    Decay channels enter only through the anticommutator drift
    K = H - (i/2) Σ γ S†S, so the trace of the propagated state is the
    probability that no photon has been spontaneously emitted.
    dephasing_mode selects how the (jump-free in practice) dephasing
    channels are treated: "lindblad" keeps their full dissipator,
    "excluded" moves them into the drift as well.
    """
    if dephasing_mode not in ("lindblad", "excluded"):
        raise ValueError(f"unknown dephasing_mode {dephasing_mode!r}")
    K = np.asarray(H, dtype=complex).copy()
    kept = []
    for ch in channels:
        if ch.kind == "decay" or dephasing_mode == "excluded":
            K -= 0.5j * ch.rate * (ch.op.conj().T @ ch.op)
        else:
            kept.append(ch)
    return build_liouvillian(K, kept)


def no_jump_generator(params: MSchemeParams, dephasing_mode: str = "lindblad") -> Superoperator:
    """Conditional generator of the collective model."""
    return conditional_generator(
        build_hamiltonian(params), build_jump_channels(params), dephasing_mode
    )


def evolve_conditional(
    params: MSchemeParams,
    rho0: np.ndarray,
    times: np.ndarray,
    *,
    dephasing_mode: str = "lindblad",
    **kw,
) -> np.ndarray:
    """Null-measurement evolution; Tr ρ(t) is the no-jump probability."""
    return evolve_superoperator(no_jump_generator(params, dephasing_mode), rho0, times, **kw)


def matrix_units(positions, dim: int) -> np.ndarray:
    """The 16 matrix units |q_i><q_j| of the qubit states at the four
    given positions of a dim-dimensional space, ordered with the row
    qubit index fastest last (entry k = 4*i + j)."""
    E = np.zeros((16, dim, dim), dtype=complex)
    for i, a in enumerate(positions):
        for j, b in enumerate(positions):
            E[4 * i + j, a, b] = 1.0
    return E


def choi_inputs() -> np.ndarray:
    """The qubit-block matrix units embedded in the 18-state space."""
    return matrix_units(QUBIT_M_INDICES, M_DIM)


def normalized_amplitudes(amplitudes) -> np.ndarray:
    """The four qubit amplitudes scaled to unit norm; None means equal."""
    c = np.full(4, 0.5, dtype=complex) if amplitudes is None else np.asarray(
        amplitudes, dtype=complex
    ).reshape(4)
    nrm = np.linalg.norm(c)
    if nrm == 0:
        raise ValueError("superposition amplitudes are all zero")
    return c / nrm


def superposition_input(amplitudes) -> np.ndarray:
    """Pure input ψψ† with ψ = Σ c_ij |q_ij>, normalized."""
    psi = np.zeros(M_DIM, dtype=complex)
    psi[list(QUBIT_M_INDICES)] = normalized_amplitudes(amplitudes)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class GateTrajectories:
    """Evolution of the sixteen qubit-block matrix units.

    unit_inputs[t, 4*i+j] is the propagated image of |q_i><q_j|; any
    superposition input follows by linearity without re-integrating.
    """

    times: np.ndarray
    unit_inputs: np.ndarray  # (T, 16, 18, 18)
    amplitudes: np.ndarray  # (4,) normalized

    @property
    def superposition(self) -> np.ndarray:
        """Trajectory (T,18,18) of the pure superposition input."""
        w = np.outer(self.amplitudes, self.amplitudes.conj()).reshape(16)
        return np.einsum("k,tkab->tab", w, self.unit_inputs)

    def unit(self, i: int, j: int) -> np.ndarray:
        """Trajectory of the (i,j) matrix unit, qubit indices 0..3."""
        return self.unit_inputs[:, 4 * i + j]


def evolve_gate_inputs(
    params: MSchemeParams,
    times: np.ndarray,
    amplitudes=None,
    *,
    conditional: bool = False,
    dephasing_mode: str = "lindblad",
    **kw,
) -> GateTrajectories:
    """Propagate all sixteen matrix-unit inputs in one batch."""
    c = normalized_amplitudes(amplitudes)
    if conditional:
        L = no_jump_generator(params, dephasing_mode)
    else:
        L = build_liouvillian_for(params)
    traj = evolve_superoperator(L, choi_inputs(), times, **kw)
    return GateTrajectories(
        times=np.asarray(times, dtype=float), unit_inputs=traj, amplitudes=c
    )


def steady_state(
    L: Superoperator, *, kernel_tol: float = 1e-10, residual_tol: float = 1e-10
) -> np.ndarray:
    """Unique trace-one stationary state of L, from the SVD null space.

    Raises if the kernel at the relative tolerance is empty or has
    dimension above one, or if the residual ||L vec(ρ)|| exceeds the
    absolute bound.
    """
    n = math.isqrt(L.shape[0])
    if L.shape != (n * n, n * n):
        raise ValueError("L must act on vectorized square matrices")
    _, s, Vh = np.linalg.svd(L)
    null_dim = int(np.count_nonzero(s <= kernel_tol * s[0]))
    if null_dim != 1:
        raise ValueError(f"stationary subspace has dimension {null_dim}, expected 1")
    rho = unvec(Vh[-1].conj(), n)
    rho = (rho + rho.conj().T) / 2.0
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise ValueError("stationary kernel vector is traceless")
    rho /= tr
    residual = float(np.linalg.norm(L @ vec(rho)))
    if residual > residual_tol:
        raise RuntimeError(f"stationary-state residual {residual:.3e} above tolerance")
    return rho
