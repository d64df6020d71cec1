"""Time evolution engines and stationary states for the master equation.

Two engines integrate vec(ρ̇) = L vec(ρ): "exponential" builds the matrix
exponential of one uniform step and iterates it (exactly reproducible),
"adaptive-rk" delegates to scipy's adaptive Runge-Kutta integrator. The
exponential is a numpy Padé scaling and squaring (expm), so the default
engine loads no scipy.linalg and no second BLAS with it. Both act
on batches of initial states (the exponential one per connected block of
L, the blocks of one shape stacked through one expm and one product per
step), so the sixteen qubit units evolve in one call; arbitrary
superposition inputs follow by linearity. A stack of generators on one
pattern, such as a scan's points, is planned once per nonzero mask and
run one matrix at a time (propagate_stack). Conditional (null-measurement)
evolution replaces the decay dissipators by the non-Hermitian drift term,
which makes the trace decay with the accumulated jump probability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import FIELD_BASIS, M_DIM, QUBIT_M_INDICES
from .mscheme import (
    BlockIndex,
    MSchemeParams,
    Superoperator,
    build_hamiltonian,
    build_jump_channels,
    build_liouvillian,
    channel_rates,
    unvec,
    vec,
)

# The engines of propagate_stack and the dephasing modes of conditional_generator.
METHODS = ("exponential", "adaptive-rk")
DEPHASING_MODES = ("lindblad", "excluded")

_UNIFORM_RTOL = 1e-9
_KERNEL_RTOL = 1e-10
_RESIDUAL_TOL = 1e-10
_MIN_RK_RTOL = float(100 * np.finfo(float).eps)  # scipy's RK45 raises a smaller rtol to it


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
    result, which propagate_stack reports as a non-finite time sample.

    A may be a stack (..., n, n). Each slice takes its own order and
    scaling, as a 2-D call would; the slices that share both run through
    one stacked product and solve, which give each slice the bits of its
    own call. A 2-D A is a stack of one.
    """
    A = np.asarray(A)
    n = A.shape[-1]
    out = np.empty(A.shape, dtype=np.result_type(A.dtype, float))
    slices, results = A.reshape(-1, n, n), out.reshape(-1, n, n)
    with np.errstate(over="ignore"):
        norms = np.abs(slices).sum(axis=-2).max(axis=-1)
    diagonal = ~slices[:, ~np.eye(n, dtype=bool)].any(axis=-1)
    runs = {}
    for i, norm in enumerate(norms):
        if not np.isfinite(norm):
            results[i] = np.nan
        elif diagonal[i]:
            results[i] = np.diag(np.exp(np.diagonal(slices[i])))
        else:
            runs.setdefault(_pade_order(norm), []).append(i)
    for (m, s), idx in runs.items():
        results[idx] = _pade(slices[idx], m, s)
    return out


def _pade_order(norm: float) -> tuple[int, int]:
    """(index into _PADE, or len(_PADE) for order 13; scaling power s)."""
    for m, (theta, _) in enumerate(_PADE):
        if norm <= theta:
            return m, 0
    return len(_PADE), max(0, math.ceil(math.log2(norm / _THETA13)))


def _pade(A: np.ndarray, m: int, s: int) -> np.ndarray:
    """exp of the finite stack A (k,n,n) at the order and scaling of
    _pade_order."""
    ident = np.eye(A.shape[-1], dtype=A.dtype)
    if m < len(_PADE):
        b = _PADE[m][1]
        powers = [ident, A @ A]  # A^0, A^2, A^4, ...
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ powers[1])
        U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
        return ident + 2.0 * np.linalg.solve(V - U, U)
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


def _checked_times(times, uniform: bool) -> np.ndarray:
    """times as a 1-d float array, finite and strictly increasing, and
    with one step throughout if uniform."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    dt = np.diff(times)
    if uniform and not np.allclose(dt, dt[:1], rtol=_UNIFORM_RTOL, atol=0.0):
        raise ValueError("the exponential engine requires a uniform time grid")
    return times


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


def propagate_stack(
    L: Superoperator, V: np.ndarray, times: np.ndarray, *, method: str = "exponential",
    rel_tol: float = 1e-8, abs_tol: float = 1e-12, exponential=None,
):
    """run(k, chunk=None): propagate the columns of V (n²,c) along times
    under matrix k of the stack L, whose data (P, nnz) holds P matrices on
    one pattern (1-D data, or a scipy CSR matrix, is a stack of one).

    run(k) returns the blocks (units, entries, Y) that hold the vec indices
    R reachable from the nonzero rows of V: the columns of V touching the
    block, its sorted vec indices and its own array Y (T,units,entries),
    Y[m, i] = vec(ρ_i(t_m)) there; all else stays 0. run(k, chunk) returns
    an iterator over the blocks of consecutive chunks of chunk time samples,
    the last one shorter, each Y its own (size,units,entries) array, and
    steps a chunk only when the previous one has been taken, so
    a caller that reads and drops each chunk holds one; run(k) is its one
    chunk of T. The exponential engine runs each connected component of
    L[R, R] as a block, and the blocks of one shape (entries, units)
    together: one gather, one expm call and one stacked product per time
    sample, which give each block the bits of its own run. adaptive-rk
    runs R as one block, as its step control couples the blocks through
    one error norm; its solver returns the whole grid at once, which it
    holds while the chunks are taken.

    Raises ValueError, here and once, naming rel_tol or abs_tol if it is
    not positive, rel_tol if adaptive-rk is given one below _MIN_RK_RTOL,
    or if times is not finite and strictly increasing; a run raises
    RuntimeError naming the first time sample whose columns are
    non-finite, as it steps the chunk of it. The plan (reached set,
    components, shape groups, gather indices) depends on the nonzero mask
    of a matrix alone, so it is made on the first run of each distinct
    mask and reused: a matrix whose explicitly stored zeros differ, as at
    a zero coupling, gets its own plan and the blocks of its own build.

    exponential replaces expm for the step propagator, called on each
    block's generator. It is temporary: only groupvel's transient passes
    one (_expm2009.expm, which gives scipy.linalg.expm's bits without
    loading scipy), until that average no longer amplifies rounding. None
    means the module's expm, looked up at call time.
    """
    if method not in METHODS:
        raise ValueError(f"unknown evolution method {method!r}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not tol > 0:
            raise ValueError(f"{name} must be positive, got {tol!r}")
    if method == "adaptive-rk" and rel_tol < _MIN_RK_RTOL:
        raise ValueError(f"rel_tol must be at least {_MIN_RK_RTOL} for adaptive-rk, got {rel_tol}")
    times = _checked_times(times, uniform=method == "exponential")
    data = np.asarray(L.data)
    data = data.reshape(math.prod(data.shape[:-1]), data.shape[-1])
    plans = {}

    def run(k: int, chunk: int | None = None):
        Lk = Superoperator(data[k], L.indices, L.indptr)
        mask = (Lk.data != 0).tobytes()
        if mask not in plans:
            plans[mask] = _plan(Lk, V, method)
        chunks = _run(plans[mask], Lk.data, V, times, chunk or times.size, method, rel_tol,
                      abs_tol, exponential)
        return chunks if chunk is not None else next(chunks)

    return run


def _plan(L: Superoperator, V: np.ndarray, method: str) -> tuple:
    """The blocks (units, entries) of the columns V under L, and their
    shape groups (block positions, entries (g,n), units (g,u), BlockIndex
    of the (g,n,n) generator blocks)."""
    R = reachable(L, np.flatnonzero(V.any(axis=1)))
    parts = _components(L, R) if method == "exponential" else [R]
    blocks = [(np.flatnonzero(V[e].any(axis=0)), e) for e in parts]
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (u, e) in enumerate(blocks):
        shapes.setdefault((e.size, u.size), []).append(i)
    groups = []
    for group in shapes.values():
        E, U = np.stack([blocks[i][1] for i in group]), np.stack([blocks[i][0] for i in group])
        groups.append((group, E, U, BlockIndex.of(L, E)))
    return blocks, groups


def _run(plan, data, V, times, chunk, method, rel_tol, abs_tol, exponential):
    """Propagate V under the matrix with stored values data along a plan
    of its nonzero mask: a generator of the blocks of each chunk, which
    keeps no reference to a chunk it has handed out."""
    blocks, groups = plan
    # Each group's columns (g, entries, units) at one time sample after another.
    states = [_states(V[E[:, :, None], U[:, None, :]], index, data, times, method, rel_tol,
                      abs_tol, exponential) for _, E, U, index in groups]
    del V, data  # the generator is held by the states alone, until gathered
    for start in range(0, times.size, chunk):
        size = min(chunk, times.size - start)
        yield _chunk(blocks, groups, states, start, size, start + size == times.size)


def _chunk(blocks, groups, states, start: int, size: int, last: bool) -> tuple:
    """The blocks of the next size time samples from start, each group's
    taken from its states; the last chunk closes them, so each group's
    step propagator is freed before the next group's is made."""
    Ys, bad = [None] * len(blocks), np.zeros(size, dtype=bool)
    for (group, E, U, _), group_states in zip(groups, states):
        # One array per block, filled at each step: one group array copied
        # out per block raised the ladder benchmark's peak RSS by 0.9 MB.
        Ys_g = [np.empty((size, U.shape[1], E.shape[1]), complex) for _ in group]
        for m, Vb in enumerate(itertools.islice(group_states, size)):
            for Y, v in zip(Ys_g, Vb):
                Y[m] = v.T
        if last:
            group_states.close()
        for i, Y in zip(group, Ys_g):
            Ys[i] = Y
            bad |= ~np.isfinite(Y.reshape(size, -1)).all(axis=1)
    if bad.any():
        raise RuntimeError(
            f"propagated columns are non-finite at time sample {start + np.argmax(bad)}"
        )
    return tuple((u, e, Y) for (u, e), Y in zip(blocks, Ys))


def _states(Vb, index, data, times, method, rel_tol, abs_tol, exponential):
    """The columns Vb (g,entries,units) at each of times, from Vb at
    times[0], under the generator blocks index.gather(data), gathered when
    the second sample is asked for."""
    yield Vb
    if times.size == 1:
        return
    if method == "exponential":
        A = index.gather(data) * (times[1] - times[0])
        del index, data
        P = expm(A) if exponential is None else np.stack([exponential(a) for a in A])
        del A
        for _ in range(1, times.size):
            Vb = P @ Vb
            yield Vb
        return
    # Imported here: scipy.integrate adds ~0.3 s to every start-up.
    from scipy.integrate import solve_ivp

    A, shape = index.gather(data)[0], Vb.shape[1:]
    del index, data

    def rhs(_t, y):
        return (A @ y.reshape(shape, order="F")).reshape(-1, order="F")

    sol = solve_ivp(rhs, times[[0, -1]], Vb[0].reshape(-1, order="F"), method="RK45",
                    t_eval=times, rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise RuntimeError(f"adaptive integration failed: {sol.message}")
    for y in sol.y.T[1:]:
        yield y.reshape(shape, order="F")[None]


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
    exponential is passed to propagate_stack.
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
    if np.ndim(L.data) != 1:
        raise ValueError(
            f"expected one matrix, got data of shape {np.shape(L.data)}; "
            "propagate_stack runs a stack"
        )
    kw = {"method": method, "rel_tol": rel_tol, "abs_tol": abs_tol, "exponential": exponential}
    V = rho0.transpose(0, 2, 1).reshape(len(rho0), n * n).T  # column i is vec(ρ_i)
    blocks = propagate_stack(L, V, times, **kw)(0)
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
    if dephasing_mode not in DEPHASING_MODES:
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


@dataclass(frozen=True)
class GateTrajectories:
    """Evolution of the sixteen qubit-block matrix units, along a run's
    time grid or one chunk of it.

    blocks, as a propagate_stack run returns them, hold the units' images on
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

    def _superposed(self):
        """The blocks of the superposition input, one unit each: every
        block's units summed with their weights, (T,1,entries), each made
        as it is read."""
        w, one = self.weights, np.zeros(1, dtype=int)
        return ((one, e, np.einsum("k,tkr->tr", w[u], Y)[:, None]) for u, e, Y in self.blocks)

    @property
    def superposition(self) -> np.ndarray:
        """Trajectory (T,n,n) of the pure superposition input."""
        return _scatter(self._superposed(), self.times.size, 1, self.dim)[:, 0]

    def image(self, cells: np.ndarray, *, superposed: bool = False) -> np.ndarray:
        """Readout (T,16,size) of every unit through the index map cells
        (basis.qubit_cells and the like), size = cells.max() + 1: vec entry
        a + dim*b adds to cell cells[a + dim*b], -1 drops it, in block and
        entry order whatever samples are read together. superposed reads
        the superposition input alone, (T,size), its units summed before
        the map; where each cell takes one entry, as for population_cells,
        that equals the weighted sum of the units' images bit for bit."""
        size = int(cells.max()) + 1
        blocks = self._superposed() if superposed else self.blocks
        out = np.zeros((self.times.size, 1 if superposed else 16, size), dtype=complex)
        for units, e, Y in blocks:
            for j in np.flatnonzero(cells[e] >= 0):
                out[:, units, cells[e[j]]] += Y[:, :, j]
        return out[:, 0] if superposed else out


def qubit_unit_stack(L: Superoperator, positions, times: np.ndarray, amplitudes=None, **kw):
    """evolve(k, chunk=None): GateTrajectories of the sixteen matrix units
    of the qubit states at the four given positions under matrix k of the
    generator stack L, in one batch (see propagate_stack); with chunk, an
    iterator over those of its consecutive chunks of chunk time samples.
    Column 4i + j, the vec of |q_i><q_j|, gets its one at a + n*b for the
    positions a, b of q_i, q_j."""
    c = normalized_amplitudes(amplitudes)
    n = math.isqrt(L.shape[0])
    V = np.zeros((n * n, 16), dtype=complex)
    V[[a + n * b for a in positions for b in positions], np.arange(16)] = 1.0
    run = propagate_stack(L, V, times, **kw)
    times = np.asarray(times, dtype=float)

    def evolve(k: int, chunk: int | None = None):
        if chunk is None:
            return GateTrajectories(times, run(k), n, c)
        # map keeps no reference to a chunk it has handed out, where a
        # generator, enumerate or zip would hold it until the next is stepped.
        return map(
            lambda start, blocks: GateTrajectories(times[start:start + chunk], blocks, n, c),
            range(0, times.size, chunk), run(k, chunk),
        )

    return evolve


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
    evolve = gate_input_stack([params], times, amplitudes, dephasing_mode=dephasing_mode, **kw)
    return evolve(0, conditional=conditional)


def gate_input_stack(
    params, times: np.ndarray, amplitudes=None, *, dephasing_mode: str = "lindblad", **kw
):
    """evolve(k, conditional=False, chunk=None): evolve_gate_inputs of
    params[k], for parameter sets that share their channel rates and so
    differ in their Hamiltonian alone; with chunk, an iterator over its
    time chunks.

    Each generator, unconditional or conditional, is built on its first
    call by one build on the (P, 18, 18) Hamiltonian stack, each matrix
    with the bits of its own build, and planned once per nonzero mask
    (see propagate_stack). A call for the last point drops that
    generator's stack, so points run in order hold one stack per
    generator and a stack of one frees it as a single build would.
    """
    params = tuple(params)
    if len({channel_rates(p) for p in params}) != 1:
        raise ValueError("a generator stack needs parameter sets with equal channel rates")
    H = np.stack([build_hamiltonian(p) for p in params])
    channels = build_jump_channels(params[0])
    stacks = {}

    def evolve(k: int, conditional: bool = False, chunk: int | None = None):
        if conditional not in stacks:
            if conditional:
                L = conditional_generator(H, channels, dephasing_mode)
            else:
                L = build_liouvillian(H, channels)
            stacks[conditional] = qubit_unit_stack(L, QUBIT_M_INDICES, times, amplitudes, **kw)
        run = stacks.pop(conditional) if k == len(params) - 1 else stacks[conditional]
        return run(k, chunk)

    return evolve


def steady_state(L: Superoperator | np.ndarray) -> np.ndarray:
    """Unique trace-one stationary state of L, from the SVD null space.

    L is a single generator in CSR form, or its dense array, as a caller
    that solves a stack on one pattern gathers it through one BlockIndex.
    Raises if the kernel at the relative tolerance is empty or has
    dimension above one, or if the residual ||L vec(ρ)|| exceeds the
    absolute bound _RESIDUAL_TOL.
    """
    n = math.isqrt(L.shape[0])
    if L.shape != (n * n, n * n):
        raise ValueError("L must act on vectorized square matrices")
    if not isinstance(L, np.ndarray):
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
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(f"stationary-state residual {residual:.3e} above tolerance")
    return rho
