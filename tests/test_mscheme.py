"""Hamiltonian, jump channels and Liouvillian of the collective model."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitgate import basis, dynamics, groupvel, ladder, mscheme

from _support import RICH_PARAMS, full_space_operators, random_density, symmetric_isometry

REF = mscheme.MSchemeParams(
    N_a=4.0,
    g_p=0.3,
    g_t=0.2,
    Omega1=1.1,
    Omega4=0.9,
    delta2=2.0,
    delta3=1.5,
    eps12=0.25,
    eps34=-0.35,
)


def test_derived_detunings():
    assert REF.delta1 == pytest.approx(2.25)
    assert REF.delta4 == pytest.approx(1.85)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"N_a": 0.5},
        {"gamma23": -0.1},
        {"gamma_deph_2": -1e-9},
        {"gamma_SI": 0.0},
        {"eps12": float("inf")},
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        replace(REF, **kwargs)


@pytest.mark.parametrize("name", ["g_p", "g_t"])
@pytest.mark.parametrize("make", [mscheme.MSchemeParams, ladder.LadderParams])
def test_an_infinite_collective_coupling_is_refused(make, name):
    # 1e308·√1e8 overflows to inf; 0.0022·√1e300 = 2.2e147 is finite.
    with pytest.raises(ValueError, match=f"^collective coupling {name}·√N_a must be finite$"):
        make(N_a=1e8, **{name: 1e308})
    make(N_a=1e300, **{name: 0.0022})


def test_hamiltonian_frozen_elements():
    H = mscheme.build_hamiltonian(REF)
    gp = 0.3 * 2.0  # g_p sqrt(N_a)
    gt = 0.2 * 2.0
    idx = basis.M_STATES.index
    # Diagonal carries the rotating-frame detunings, independent of photons.
    assert H[idx(("G", 0, 0)), idx(("G", 0, 0))] == 0.0
    assert H[idx(("E1", 0, 0)), idx(("E1", 0, 0))] == pytest.approx(0.25)
    assert H[idx(("E2", 0, 1)), idx(("E2", 0, 1))] == pytest.approx(2.0)
    assert H[idx(("E4", 1, 0)), idx(("E4", 1, 0))] == pytest.approx(1.5)
    assert H[idx(("E5", 0, 0)), idx(("E5", 0, 0))] == pytest.approx(-0.35)
    # Classical fields swap excited labels at fixed photon numbers.
    assert H[idx(("E1", 0, 0)), idx(("E2", 0, 0))] == pytest.approx(1.1)
    assert H[idx(("E1", 0, 1)), idx(("E2", 0, 1))] == pytest.approx(1.1)
    assert H[idx(("E5", 0, 1)), idx(("E4", 0, 1))] == pytest.approx(0.9)
    # Photon conversion carries sqrt(N_a) and the bosonic sqrt(n).
    assert H[idx(("G", 1, 0)), idx(("E2", 0, 0))] == pytest.approx(gp)
    assert H[idx(("G", 1, 1)), idx(("E2", 0, 1))] == pytest.approx(gp)
    assert H[idx(("G", 2, 0)), idx(("E2", 1, 0))] == pytest.approx(gp * math.sqrt(2.0))
    assert H[idx(("G", 0, 1)), idx(("E4", 0, 0))] == pytest.approx(gt)
    assert H[idx(("G", 1, 1)), idx(("E4", 1, 0))] == pytest.approx(gt)
    assert H[idx(("G", 0, 2)), idx(("E4", 0, 1))] == pytest.approx(gt * math.sqrt(2.0))
    # The photonless ground state is fully decoupled.
    assert np.all(H[idx(("G", 0, 0))] == 0.0)


def test_hamiltonian_is_hermitian():
    H = mscheme.build_hamiltonian(RICH_PARAMS)
    assert np.allclose(H, H.conj().T, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(
    g_p=st.floats(0.0, 2.0),
    omega1=st.floats(0.0, 5.0),
    eps12=st.floats(-2.0, 2.0),
    n_a=st.floats(1.0, 1e6),
)
def test_hamiltonian_hermitian_for_random_parameters(g_p, omega1, eps12, n_a):
    p = replace(REF, g_p=g_p, Omega1=omega1, eps12=eps12, N_a=n_a)
    H = mscheme.build_hamiltonian(p)
    assert np.array_equal(H, H.conj().T)


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_hamiltonian_matches_projected_microscopic_model(n_atoms):
    params = replace(RICH_PARAMS, N_a=float(n_atoms))
    W = symmetric_isometry(n_atoms)
    assert np.allclose(W.conj().T @ W, np.eye(basis.M_DIM), atol=1e-13)
    full = full_space_operators(params, n_atoms)
    projected = W.conj().T @ full["H"] @ W
    assert np.allclose(projected, mscheme.build_hamiltonian(params), atol=1e-12)


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_jump_operators_match_projected_collective_sums(n_atoms):
    """Projected collective lowering sums reproduce the channel operators.

    Cross channels between excited labels keep unit amplitude after
    projection; channels into the ground level pick up sqrt(N) from the
    symmetric state, which the single-effective-atom normalization of
    the model absorbs into unit amplitude as well.
    """
    params = replace(RICH_PARAMS, N_a=float(n_atoms))
    W = symmetric_isometry(n_atoms)
    full = full_space_operators(params, n_atoms)
    by_kind = {}
    for ch in mscheme.build_jump_channels(params):
        if ch.kind == "decay":
            by_kind[len(by_kind)] = ch
    ordering = [("E2", "E1"), ("E2", "G"), ("E2", "E5"), ("E4", "E1"), ("E4", "G"), ("E4", "E5")]
    for pos, (upper, lower) in enumerate(ordering):
        model_op = by_kind[pos].op
        micro = W.conj().T @ full["lowering"][(upper, lower)] @ W
        scale = math.sqrt(n_atoms) if lower == "G" else 1.0
        assert np.allclose(micro, scale * model_op, atol=1e-12), (upper, lower)


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_dephasing_projectors_match_projected_label_counters(n_atoms):
    params = replace(RICH_PARAMS, N_a=float(n_atoms))
    W = symmetric_isometry(n_atoms)
    full = full_space_operators(params, n_atoms)
    deph = [ch for ch in mscheme.build_jump_channels(params) if ch.kind == "dephasing"]
    for ch, label in zip(deph, ("E1", "E2", "E4", "E5")):
        micro = W.conj().T @ full["projectors"][label] @ W
        assert np.allclose(micro, ch.op, atol=1e-13), label


def test_transition_operator_places_weights_and_drops_exits():
    states = (("g", 0, 0), ("g", 1, 0), ("e", 0, 0), ("e", 1, 0))
    up = mscheme.transition_operator(
        states, "e", "g", shift=(1, 0), weight=lambda n_p, n_t: math.sqrt(n_p + 1)
    )
    expected = np.zeros((4, 4), dtype=complex)
    # |g,1><e,0| carries √1; |e,1> would go to |g,2>, which is not in the basis.
    expected[1, 2] = 1.0
    assert np.array_equal(up, expected)
    weighted = mscheme.transition_operator(states, "e", "g", weight=lambda n_p, n_t: 2.0 + n_p)
    assert weighted[0, 2] == 2.0 and weighted[1, 3] == 3.0
    assert np.count_nonzero(weighted) == 2
    projector = mscheme.transition_operator(states, "e", "e")
    assert np.array_equal(projector, np.diag([0, 0, 1, 1]).astype(complex))


def test_channel_bookkeeping():
    channels = mscheme.build_jump_channels(RICH_PARAMS)
    assert len(channels) == 10
    assert [ch.kind for ch in channels] == ["decay"] * 6 + ["dephasing"] * 4
    rates = [ch.rate for ch in channels]
    assert rates == [0.3, 0.45, 0.15, 0.2, 0.5, 0.1, 0.02, 0.01, 0.03, 0.015]
    # Zero-rate channels are dropped entirely.
    lean = replace(RICH_PARAMS, gamma25=0.0, gamma_deph_5=0.0)
    assert len(mscheme.build_jump_channels(lean)) == 8


def test_decay_operators_preserve_photon_numbers():
    for ch in mscheme.build_jump_channels(RICH_PARAMS):
        if ch.kind != "decay":
            continue
        rows, cols = np.nonzero(ch.op)
        for r, c in zip(rows, cols):
            assert basis.M_STATES[r][1:] == basis.M_STATES[c][1:]
            assert ch.op[r, c] == 1.0


def test_vec_unvec_column_major_round_trip():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mscheme.vec(m), np.array([1.0, 3.0, 2.0, 4.0]))
    rng = np.random.default_rng(5)
    rho = random_density(18, rng)
    assert np.array_equal(mscheme.unvec(mscheme.vec(rho), 18), rho)


def test_liouvillian_matches_direct_master_equation_action():
    H = mscheme.build_hamiltonian(RICH_PARAMS)
    channels = mscheme.build_jump_channels(RICH_PARAMS)
    L = mscheme.build_liouvillian(H, channels)
    rng = np.random.default_rng(7)
    rho = random_density(18, rng)
    rhs = -1j * (H @ rho - rho @ H)
    for ch in channels:
        S = ch.op
        SdS = S.conj().T @ S
        rhs += (ch.rate / 2.0) * (2.0 * S @ rho @ S.conj().T - SdS @ rho - rho @ SdS)
    assert np.allclose(mscheme.unvec(L.toarray() @ mscheme.vec(rho), 18), rhs, atol=1e-12)


def test_liouvillian_generator_is_traceless():
    L = mscheme.build_liouvillian(
        mscheme.build_hamiltonian(RICH_PARAMS), mscheme.build_jump_channels(RICH_PARAMS)
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        rho = random_density(18, rng)
        assert abs(np.trace(mscheme.unvec(L.toarray() @ mscheme.vec(rho), 18))) < 1e-12


def _dense_liouvillian(H, channels):
    # The dense assembly the sparse builder must reproduce bit for bit.
    n = H.shape[0]
    eye = np.eye(n)
    L = -1j * (np.kron(eye, H) - np.kron(H.conj(), eye))
    for ch in channels:
        S = ch.op
        SdS = S.conj().T @ S
        L += (ch.rate / 2.0) * (
            2.0 * np.kron(S.conj(), S) - np.kron(eye, SdS) - np.kron(SdS.T, eye)
        )
    return L


def _conditional_parts(H, channels):
    # No-jump drift of the decays; dephasing keeps its full dissipator.
    K = H.copy()
    for ch in channels:
        if ch.kind == "decay":
            K -= 0.5j * ch.rate * (ch.op.conj().T @ ch.op)
    return K, [ch for ch in channels if ch.kind != "decay"]


def _ladder_case(n_max, convention):
    p = ladder.LadderParams(
        N_a=50.0, g_p=0.3, g_t=0.2, delta_p=1.5, delta_t=-0.5,
        gamma21=0.7, gamma32=0.4, n_max=n_max, convention=convention,
    )
    name = f"ladder {convention} n_max={n_max}"
    return name, ladder.build_ladder_hamiltonian(p), ladder.build_ladder_channels(p)


_H_RICH = mscheme.build_hamiltonian(RICH_PARAMS)
_CHANNELS_RICH = mscheme.build_jump_channels(RICH_PARAMS)
_GENERATOR_CASES = [
    ("five-level", _H_RICH, _CHANNELS_RICH),
    ("five-level conditional", *_conditional_parts(_H_RICH, _CHANNELS_RICH)),
    (
        "semiclassical",
        groupvel.semiclassical_hamiltonian(RICH_PARAMS, 1e-3, 0.3),
        mscheme.build_jump_channels(RICH_PARAMS, states=groupvel._LEVELS),
    ),
] + [_ladder_case(n_max, c) for n_max in (1, 2, 3) for c in ladder.CONVENTIONS]


@pytest.mark.parametrize(
    "name, H, channels", _GENERATOR_CASES, ids=[c[0] for c in _GENERATOR_CASES]
)
def test_sparse_liouvillian_is_bitwise_the_dense_assembly(name, H, channels):
    L = mscheme.build_liouvillian(H, channels)
    assert isinstance(L, mscheme.Superoperator)
    assert L.toarray().tobytes() == _dense_liouvillian(H, channels).tobytes()


def _hamiltonian_stack(H, rng):
    # H, H with shifted and with zeroed diagonal energies, H with its
    # couplings dropped, and a random Hermitian matrix: the union of their
    # nonzeros covers entries that some of the matrices lack.
    n = H.shape[0]
    shifted = H + np.diag(rng.normal(size=n))
    zeroed = H.copy()
    np.fill_diagonal(zeroed, 0.0)
    diagonal = np.diag(np.diag(H))
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.array([H, shifted, zeroed, diagonal, X + X.conj().T])


# The cases up to n_max 2: a dense n_max 3 generator takes 85 MB.
_SMALL_CASES = [c for c in _GENERATOR_CASES if c[1].shape[0] < 48]


@pytest.mark.parametrize("name, H, channels", _SMALL_CASES, ids=[c[0] for c in _SMALL_CASES])
def test_stacked_liouvillian_is_bitwise_the_per_matrix_builds(name, H, channels):
    stack = _hamiltonian_stack(H, np.random.default_rng(7))
    L = mscheme.build_liouvillian(stack, channels)
    assert L.data.shape == (len(stack), L.nnz) and L.nnz == L.indices.size
    for k, Hk in enumerate(stack):
        single = mscheme.build_liouvillian(Hk, channels)
        assert single.nnz <= L.nnz
        assert L._replace(data=L.data[k]).toarray().tobytes() == single.toarray().tobytes()
    # Any leading axes: a (2, 2) stack holds the same four matrices.
    square = mscheme.build_liouvillian(stack[:4].reshape(2, 2, *H.shape), channels)
    assert square.data.shape == (2, 2, square.nnz)
    for k in range(4):
        row = square._replace(data=square.data[divmod(k, 2)])
        assert row.toarray().tobytes() == L._replace(data=L.data[k]).toarray().tobytes()


def test_empty_stack_keeps_the_channel_pattern():
    L = mscheme.build_liouvillian(np.zeros((0, 18, 18)), _CHANNELS_RICH)
    channels_only = mscheme.build_liouvillian(np.zeros((18, 18)), _CHANNELS_RICH)
    assert L.data.shape == (0, channels_only.nnz)
    assert np.array_equal(L.indices, channels_only.indices)
    assert np.array_equal(L.indptr, channels_only.indptr)


@pytest.mark.parametrize("keys", [
    [np.random.default_rng(5).integers(0, 1000, size=m) for m in (300, 0, 41, 1)],
    [np.full(7, 12), np.full(3, 12)],
    [np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)],
], ids=["random", "duplicates-only", "empty"])
def test_union_is_numpys_unique(keys):
    union = mscheme._union(keys)
    assert union.dtype == np.int64
    assert np.array_equal(union, np.unique(np.concatenate(keys)))


@pytest.mark.parametrize("n", [1, 4, 18])
def test_zero_generator_without_channels_builds_empty(n):
    # Its key set is empty: the union pattern has no entries and every row
    # is empty.
    L = mscheme.build_liouvillian(np.zeros((n, n)), [])
    assert L.nnz == 0 and L.data.shape == (0,)
    assert np.array_equal(L.indptr, np.zeros(n * n + 1))
    assert not L.toarray().any() and L.toarray().shape == (n * n, n * n)


def test_conditional_generator_matches_the_dense_assembly():
    L = dynamics.conditional_generator(_H_RICH, _CHANNELS_RICH)
    reference = _dense_liouvillian(*_conditional_parts(_H_RICH, _CHANNELS_RICH))
    assert L.toarray().tobytes() == reference.tobytes()


def test_liouvillian_dimension_checks():
    with pytest.raises(ValueError):
        mscheme.build_liouvillian(np.zeros((3, 4)), [])
    with pytest.raises(ValueError):
        mscheme.build_liouvillian(np.zeros((2, 3, 4)), [])
    bad = mscheme.JumpChannel(rate=1.0, op=np.zeros((4, 4)), kind="decay")
    with pytest.raises(ValueError):
        mscheme.build_liouvillian(np.zeros((3, 3)), [bad])


def _criterion_6_generators(n_max, convention):
    # The ladder set of acceptance criterion 6 at one truncation and
    # convention: its unconditional and conditional generators.
    p = ladder.LadderParams(
        N_a=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, delta_t=0.0,
        gamma21=1.0, gamma32=1.0, n_max=n_max, convention=convention,
    )
    H, channels = ladder.build_ladder_hamiltonian(p), ladder.build_ladder_channels(p)
    return ladder.build_ladder_liouvillian(p), dynamics.conditional_generator(H, channels)


@pytest.mark.parametrize("convention", ladder.CONVENTIONS)
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_scipy_reads_the_generator_as_its_csr_arrays(n_max, convention):
    import scipy.sparse as sp

    for L in _criterion_6_generators(n_max, convention):
        S = sp.csr_matrix(L)
        assert S.shape == L.shape and S.nnz == L.nnz
        assert np.array_equal(S.indptr, L.indptr) and np.array_equal(S.indices, L.indices)
        assert S.data.tobytes() == L.data.tobytes()
        if n_max <= 3:  # the dense n_max 4 form takes about 0.5 GB
            assert S.toarray().tobytes() == L.toarray().tobytes()


def test_stored_negative_zero_reads_positive_zero():
    # Every conditional ladder generator stores entries 0 - 0j.
    L = _criterion_6_generators(1, "absorptive")[1]
    stored = L.data[L.data == 0]
    assert stored.size == 16 and np.signbit(stored.imag).all()
    dense = L.toarray()
    assert not np.signbit(dense[dense == 0].view(float)).any()
    # Row 0 holds -0.0 at column 0 and 2.0 at column 1; row 1 is empty.
    tiny = mscheme.Superoperator(
        np.array([complex(-0.0, -0.0), 2.0]), np.array([0, 1]), np.array([0, 2, 2])
    )
    assert tiny.shape == (2, 2) and tiny.nnz == 2
    assert tiny.toarray().tobytes() == np.array([[0.0, 2.0], [0.0, 0.0]], complex).tobytes()


def test_block_index_of_a_stack_is_each_sets_own_block():
    # A dense 7² matrix with -0.0 entries and every entry stored, so the
    # sets {5, 1, 3} and {0, 6, 2} are linked by stored entries that
    # neither block may take.
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    A[1, 5] = A[6, 6] = complex(-0.0, -0.0)
    L = mscheme.Superoperator(A.reshape(-1), np.tile(np.arange(7), 7), np.arange(0, 50, 7))
    E = np.array([[5, 1, 3], [0, 6, 2]])
    stack = mscheme.BlockIndex.of(L, E).gather(L.data)
    assert stack.shape == (2, 3, 3)
    for e, block in zip(E, stack):
        assert block.tobytes() == mscheme.BlockIndex.of(L, e).gather(L.data).tobytes()
        want = A[np.ix_(e, e)] + 0.0  # the -0.0 entries read +0.0
        assert block.tobytes() == want.tobytes()


def test_reduced_sector_hamiltonians_are_slices():
    H = mscheme.build_hamiltonian(RICH_PARAMS)
    H_p, H_t, H_pt = (mscheme.build_hamiltonian(RICH_PARAMS, s) for s in mscheme.SECTORS)
    assert H_p.shape == (3, 3) and H_t.shape == (3, 3) and H_pt.shape == (5, 5)
    idx = basis.M_STATES.index
    p_idx = [idx(("G", 1, 0)), idx(("E2", 0, 0)), idx(("E1", 0, 0))]
    assert np.array_equal(H_p, H[np.ix_(p_idx, p_idx)])
    t_idx = [idx(("G", 0, 1)), idx(("E4", 0, 0)), idx(("E5", 0, 0))]
    assert np.array_equal(H_t, H[np.ix_(t_idx, t_idx)])
    pt_idx = [
        idx(("E1", 0, 1)), idx(("E2", 0, 1)), idx(("G", 1, 1)), idx(("E4", 1, 0)), idx(("E5", 1, 0))
    ]
    assert np.array_equal(H_pt, H[np.ix_(pt_idx, pt_idx)])


_SUBSETS = {
    "levels": [("E1", 0, 0), ("E2", 0, 0), ("G", 0, 0), ("E4", 0, 0), ("E5", 0, 0)],
    "probe": [("G", 1, 0), ("E2", 0, 0), ("E1", 0, 0)],
    "trigger": [("G", 0, 1), ("E4", 0, 0), ("E5", 0, 0)],
    "pair": [("E1", 0, 1), ("E2", 0, 1), ("G", 1, 1), ("E4", 1, 0), ("E5", 1, 0)],
}


@pytest.mark.parametrize("subset", list(_SUBSETS))
def test_builders_on_a_subset_are_bitwise_slices_of_the_full_build(subset):
    states = _SUBSETS[subset]
    idx = np.ix_(*[[basis.M_STATES.index(s) for s in states]] * 2)
    rng = np.random.default_rng(23)
    names = ("g_p", "g_t", "Omega1", "Omega4", "delta2", "delta3", "eps12", "eps34")
    rates = [a for _, _, a in mscheme._DECAYS + mscheme._DEPHASINGS]
    for _ in range(50):
        values = {k: float(rng.normal() * rng.choice([0.0, 1e-3, 1.0, 10.0])) for k in names}
        values.update({k: float(rng.choice([0.0, rng.uniform(0, 1)])) for k in rates})
        params = mscheme.MSchemeParams(N_a=float(10 ** rng.uniform(0, 8)), **values)
        H = mscheme.build_hamiltonian(params, states=states)
        assert H.tobytes() == mscheme.build_hamiltonian(params)[idx].tobytes()
        sub = mscheme.build_jump_channels(params, states=states)
        full = mscheme.build_jump_channels(params)
        assert [(c.rate, c.kind) for c in sub] == [(c.rate, c.kind) for c in full]
        for c, f in zip(sub, full):
            assert c.op.tobytes() == f.op[idx].tobytes()


def _loop_hamiltonian(params, states=basis.M_STATES):
    # Reference: the per-builder coupling loop the table assembly replaced.
    energy = {
        "G": 0.0,
        "E1": params.eps12,
        "E2": params.delta2,
        "E4": params.delta3,
        "E5": params.eps34,
    }
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)
    couplings = (
        (params.Omega1, "E2", "E1", (0, 0), None),
        (params.Omega4, "E4", "E5", (0, 0), None),
        (gp, "E2", "G", (1, 0), lambda n_p, n_t: math.sqrt(n_p + 1)),
        (gt, "E4", "G", (0, 1), lambda n_p, n_t: math.sqrt(n_t + 1)),
    )
    H = np.zeros((len(states), len(states)), dtype=complex)
    for strength, src, dst, shift, weight in couplings:
        T = mscheme.transition_operator(states, src, dst, shift, weight)
        H += strength * (T + T.conj().T)
    np.fill_diagonal(H, [energy[label] for label, _, _ in states])
    return H


def _loop_channels(params, states=basis.M_STATES):
    # Reference: the per-builder zero-rate filter the table assembly replaced.
    channels = []
    for src, dst, attr in mscheme._DECAYS + mscheme._DEPHASINGS:
        rate = getattr(params, attr)
        if rate != 0.0:
            op = mscheme.transition_operator(states, src, dst)
            channels.append(mscheme.JumpChannel(rate, op, "dephasing" if src == dst else "decay"))
    return channels


def test_builders_are_bitwise_the_per_builder_loops():
    rng = np.random.default_rng(31)
    names = ("g_p", "g_t", "Omega1", "Omega4", "delta2", "delta3", "eps12", "eps34")
    rates = [a for _, _, a in mscheme._DECAYS + mscheme._DEPHASINGS]
    for _ in range(100):
        values = {k: float(rng.normal() * rng.choice([0.0, 1e-3, 1.0, 10.0])) for k in names}
        values.update({k: float(rng.choice([0.0, rng.uniform(0, 1)])) for k in rates})
        params = mscheme.MSchemeParams(N_a=float(10 ** rng.uniform(0, 8)), **values)
        H = mscheme.build_hamiltonian(params)
        assert H.tobytes() == _loop_hamiltonian(params).tobytes()
        channels = mscheme.build_jump_channels(params)
        reference = _loop_channels(params)
        assert [(c.rate, c.kind) for c in channels] == [(c.rate, c.kind) for c in reference]
        for c, r in zip(channels, reference):
            assert c.op.tobytes() == r.op.tobytes()


def test_single_photon_sector_has_dark_state_at_zero_mismatch():
    p = replace(RICH_PARAMS, eps12=0.0)
    H_p = mscheme.build_hamiltonian(p, mscheme.SECTORS[0])
    gp = p.g_p * math.sqrt(p.N_a)
    dark = np.array([p.Omega1, 0.0, -gp])
    dark /= np.linalg.norm(dark)
    assert np.allclose(H_p @ dark, 0.0, atol=1e-12)
