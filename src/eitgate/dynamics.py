"""Time evolution engines and stationary states for the master equation.

Two engines integrate vec(ρ̇) = L vec(ρ): "exponential" builds the matrix
exponential of one uniform step and iterates it (exactly reproducible),
"adaptive-rk" delegates to scipy's adaptive Runge-Kutta integrator. The
exponential is a numpy Padé scaling and squaring (expm), so the default
engine loads no scipy.linalg and no second BLAS with it. Both act
on batches of initial states (the exponential one per connected block of
L), so the sixteen qubit units evolve in one call; arbitrary superposition
inputs follow by linearity. Conditional (null-measurement) evolution
replaces the decay dissipators by the non-Hermitian drift term, which
makes the trace decay with the accumulated jump probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FIELD_BASIS, M_DIM, QUBIT_M_INDICES
from .mscheme import (
    MSchemeParams,
    Superoperator,
    build_hamiltonian,
    build_jump_channels,
    build_liouvillian,
    dense_block,
    unvec,
    vec,
)

_UNIFORM_RTOL = 1e-9
_KERNEL_RTOL = 1e-10


# Higham (2005), Table 2.3: the [m/m] Padé orders with the largest 1-norm
# θ_m at which each meets double precision, and their coefficients b_0..b_m.
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                            56.0, 1.0)),
    (2.097847961257068, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                         30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA13 = 5.371920351148152
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Padé scaling and squaring, in numpy alone.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the lowest order
    m in 3, 5, 7, 9 with ||A||_1 <= θ_m, else order 13 on A / 2^s with
    s = ceil(log2(||A||_1 / θ_13)), squared s times. The approximant
    (V - U)^-1 (V + U) is formed as I + 2 (V - U)^-1 U, which rounds less.
    A diagonal A (every 1x1 block) gives exp of its diagonal exactly. An A
    with a NaN or inf entry, or whose 1-norm overflows, gives an all-NaN
    result, which propagate_reached reports as a non-finite time sample.
    """
    A = np.asarray(A)
    with np.errstate(over="ignore"):
        norm = np.abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        return np.full_like(A, np.nan)
    d = np.diagonal(A)
    if not np.count_nonzero(A - np.diag(d)):
        return np.diag(np.exp(d))
    ident = np.eye(A.shape[0], dtype=A.dtype)
    if norm <= _PADE[-1][0]:
        b = next(b for theta, b in _PADE if norm <= theta)
        powers = [ident, A @ A]  # A^0, A^2, A^4, ...
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ powers[1])
        U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
        return ident + 2.0 * np.linalg.solve(V - U, U)
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    A, b = A * 2.0**-s, _B13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
         + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(V - U, U)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in inf/NaN, reported
        for _ in range(s):
            r = r @ r
    return r


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


def _edges(L: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of the edges i -> j of the CSR matrix L, one per
    stored L[j, i] != 0; an explicitly stored zero is no edge."""
    rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
    nonzero = L.data != 0
    return L.indices[nonzero], rows[nonzero]


def _closure(source: np.ndarray, target: np.ndarray, n: int, seeds) -> np.ndarray:
    """Sorted nodes of range(n) reachable from seeds along the edges."""
    hit = np.zeros(n, dtype=bool)
    hit[seeds] = True
    frontier = hit.copy()
    while frontier.any():
        step = np.zeros(n, dtype=bool)
        step[target[frontier[source]]] = True
        frontier = step & ~hit
        hit |= frontier
    return np.flatnonzero(hit)


def reachable(L: Superoperator, seeds) -> np.ndarray:
    """Sorted vec-space indices reachable from seeds in the sparsity
    graph of L, where index i feeds index j when L[j, i] != 0.

    The set is closed under L, so a state supported on it stays there
    and evolves under the block L[R, R] alone.
    """
    return _closure(*_edges(L), L.shape[0], seeds)


def _components(L: Superoperator, R: np.ndarray) -> list[np.ndarray]:
    """The sorted index sets of the undirected connected components of
    L[R, R], in the order of their smallest index."""
    source, target = _edges(L)
    inside = np.isin(source, R)  # R is closed under L: the targets are in R too
    a, b = np.searchsorted(R, source[inside]), np.searchsorted(R, target[inside])
    a, b = np.concatenate([a, b]), np.concatenate([b, a])
    free, parts = np.ones(R.size, dtype=bool), []
    while free.any():
        pos = _closure(a, b, R.size, np.argmax(free))
        free[pos] = False
        parts.append(R[pos])
    return parts


def propagate_reached(
    L: Superoperator, V: np.ndarray, times: np.ndarray, *, method: str = "exponential",
    rel_tol: float = 1e-8, abs_tol: float = 1e-12, exponential=None,
) -> tuple:
    """Propagate the k columns of V (n²,k) along times under the sparse L.

    Returns the blocks (units, entries, Y) that hold the vec indices R
    reachable from the nonzero rows of V: the columns of V touching the
    block, its sorted vec indices and its own array Y (T,units,entries),
    Y[m, i] = vec(ρ_i(t_m)) there; all else stays 0. The exponential
    engine runs each connected component of L[R, R] as a block;
    adaptive-rk runs R as one, as its step control couples the blocks
    through one error norm. Raises ValueError naming rel_tol or abs_tol
    if it is not positive, whatever the method, and RuntimeError naming
    the first time sample whose columns are non-finite.

    exponential replaces expm for the step propagator. It is temporary:
    only groupvel's transient passes one (scipy.linalg.expm), until that
    average no longer amplifies rounding. None means the module's expm,
    looked up at call time.
    """
    if method not in ("exponential", "adaptive-rk"):
        raise ValueError(f"unknown evolution method {method!r}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not tol > 0:
            raise ValueError(f"{name} must be positive, got {tol!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    T = times.size
    R = reachable(L, np.flatnonzero(V.any(axis=1)))
    parts = _components(L, R) if method == "exponential" else [R]
    blocks, bad = [], np.zeros(T, dtype=bool)
    for e in parts:
        u = np.flatnonzero(V[e].any(axis=0))
        A, Vb, Y = dense_block(L, e), V[np.ix_(e, u)], np.empty((T, u.size, e.size), complex)
        Y[0] = Vb.T
        if T > 1 and method == "exponential":
            P = (exponential or expm)(A * _uniform_step(times))
            for m in range(1, T):
                Vb = P @ Vb
                Y[m] = Vb.T
        elif T > 1:
            # Imported here: scipy.integrate adds ~0.3 s to every start-up.
            from scipy.integrate import solve_ivp

            def rhs(_t, y):
                return (A @ y.reshape(Vb.shape, order="F")).reshape(-1, order="F")

            sol = solve_ivp(rhs, times[[0, -1]], Vb.reshape(-1, order="F"), method="RK45",
                            t_eval=times, rtol=rel_tol, atol=abs_tol)
            if not sol.success:
                raise RuntimeError(f"adaptive integration failed: {sol.message}")
            Y[1:] = sol.y[:, 1:].reshape(*Vb.shape, -1, order="F").transpose(2, 1, 0)
        bad |= ~np.isfinite(Y.reshape(T, -1)).all(axis=1)
        blocks.append((u, e, Y))
    if bad.any():
        raise RuntimeError(f"propagated columns are non-finite at time sample {np.argmax(bad)}")
    return tuple(blocks)


def _scatter(blocks, T: int, k: int, n: int) -> np.ndarray:
    """Blocks (units, entries, Y) of k columns -> zero-filled states (T,k,n,n);
    the vec(ρ) entry ρ[a, b], at a + n*b, sits at row-major a*n + b."""
    out = np.zeros((T, k, n, n), dtype=complex)
    flat = out.reshape(T, k, n * n)
    for units, e, Y in blocks:
        flat[:, units[:, None], (e % n) * n + e // n] = Y
    return out


def evolve_superoperator(
    L: Superoperator, rho0: np.ndarray, times: np.ndarray, *, method: str = "exponential",
    rel_tol: float = 1e-8, abs_tol: float = 1e-12, exponential=None,
) -> np.ndarray:
    """Propagate one state (n,n) or a batch (k,n,n) along a time grid.

    Returns (T,n,n) or (T,k,n,n) matching the input rank; rho0 is the
    state at times[0]. Entries outside the reached set are exactly 0.
    exponential is passed to propagate_reached.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    single = rho0.ndim == 2
    if single:
        rho0 = rho0[None]
    if rho0.ndim != 3 or rho0.shape[1] != rho0.shape[2]:
        raise ValueError("rho0 must be square or a batch of square matrices")
    n = rho0.shape[1]
    if L.shape != (n * n, n * n):
        raise ValueError("superoperator does not match the state dimension")
    kw = {"method": method, "rel_tol": rel_tol, "abs_tol": abs_tol, "exponential": exponential}
    blocks = propagate_reached(L, _stack(rho0), times, **kw)
    out = _scatter(blocks, np.asarray(times).size, len(rho0), n)
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


def matrix_units(positions, dim: int) -> np.ndarray:
    """The 16 matrix units |q_i><q_j| of the qubit states at the four
    given positions of a dim-dimensional space, ordered with the row
    qubit index fastest last (entry k = 4*i + j)."""
    E = np.zeros((16, dim, dim), dtype=complex)
    for i, a in enumerate(positions):
        for j, b in enumerate(positions):
            E[4 * i + j, a, b] = 1.0
    return E


# The four basis inputs |q_i><q_i| among the matrix units, entries 4*i + i,
# and their labels |n_p n_t>.
BASIS_UNITS = tuple(4 * i + i for i in range(4))
BASIS_LABELS = tuple(f"|{n_p}{n_t}>" for n_p, n_t in FIELD_BASIS[:4])


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


# Matrix units per readout call in GateTrajectories.image; bounds its (chunk,n,n) temporaries.
_IMAGE_CHUNK = 64


@dataclass(frozen=True)
class GateTrajectories:
    """Evolution of the sixteen qubit-block matrix units.

    blocks, as propagate_reached returns them, hold the units' images on
    their entries, the vec indices a + dim*b of ρ[a, b]; all else is
    exactly 0. Any superposition input follows by linearity.
    """

    times: np.ndarray
    blocks: tuple  # (units, entries, (T,units,entries) array)
    dim: int
    amplitudes: np.ndarray  # (4,) normalized

    @property
    def weights(self) -> np.ndarray:
        """(16,) coefficients c_i c_j* of the superposition over the units."""
        return np.outer(self.amplitudes, self.amplitudes.conj()).reshape(16)

    @property
    def unit_inputs(self) -> np.ndarray:
        """Zero-filled states (T,16,n,n) of the sixteen units."""
        return _scatter(self.blocks, self.times.size, 16, self.dim)

    @property
    def superposition(self) -> np.ndarray:
        """Trajectory (T,n,n) of the pure superposition input."""
        w, one = self.weights, np.zeros(1, dtype=int)
        parts = [(one, e, np.einsum("k,tkr->tr", w[u], Y)[:, None]) for u, e, Y in self.blocks]
        return _scatter(parts, self.times.size, 1, self.dim)[:, 0]

    def image(self, f) -> np.ndarray:
        """Linear readout f of (...,n,n) states applied to every unit,
        (T,16,...), from f on the blocks' matrix units |a><b| and one
        product per block. Take .real of a readout's image if it takes
        .real itself (populations, edge leakage)."""
        n, entries = self.dim, np.concatenate([e for _, e, _ in self.blocks])
        parts = []
        for s in range(0, entries.size, _IMAGE_CHUNK):
            idx = entries[s : s + _IMAGE_CHUNK]
            E = np.zeros((idx.size, n, n), dtype=complex)
            E[np.arange(idx.size), idx % n, idx // n] = 1.0
            # Keep a copy, not a view, and free E before the next chunk.
            parts.append(np.array(f(E), dtype=complex))
            del E
        F, at = np.concatenate(parts), 0
        out = np.zeros((self.times.size, 16) + F.shape[1:], dtype=complex)
        for units, e, Y in self.blocks:
            img = Y.reshape(-1, e.size) @ F[at : at + e.size].reshape(e.size, -1)
            out[:, units] += img.reshape(Y.shape[:2] + F.shape[1:])
            at += e.size
        return out


def evolve_qubit_units(
    L: Superoperator, positions, times: np.ndarray, amplitudes=None, **kw
) -> GateTrajectories:
    """Propagate the sixteen matrix units of the qubit states at the four
    given positions under the generator L, in one batch."""
    c = normalized_amplitudes(amplitudes)
    n = math.isqrt(L.shape[0])
    blocks = propagate_reached(L, _stack(matrix_units(positions, n)), times, **kw)
    return GateTrajectories(np.asarray(times, dtype=float), blocks, n, c)


def evolve_gate_inputs(
    params: MSchemeParams,
    times: np.ndarray,
    amplitudes=None,
    *,
    conditional: bool = False,
    dephasing_mode: str = "lindblad",
    **kw,
) -> GateTrajectories:
    """Propagate the qubit matrix units of the collective model."""
    if conditional:
        L = conditional_generator(
            build_hamiltonian(params), build_jump_channels(params), dephasing_mode
        )
    else:
        L = build_liouvillian_for(params)
    return evolve_qubit_units(L, QUBIT_M_INDICES, times, amplitudes, **kw)


def steady_state(L: Superoperator, *, residual_tol: float = 1e-10) -> np.ndarray:
    """Unique trace-one stationary state of L, from the SVD null space.

    Raises if the kernel at the relative tolerance is empty or has
    dimension above one, or if the residual ||L vec(ρ)|| exceeds the
    absolute bound.
    """
    n = math.isqrt(L.shape[0])
    if L.shape != (n * n, n * n):
        raise ValueError("L must act on vectorized square matrices")
    L = L.toarray()
    _, s, Vh = np.linalg.svd(L)
    null_dim = int(np.count_nonzero(s <= _KERNEL_RTOL * s[0]))
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
