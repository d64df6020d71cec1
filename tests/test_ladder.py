"""Truncated ladder comparison model: structure, conservation, leakage."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from eitgate import basis, dynamics, ladder, mscheme
from eitgate.ladder import LadderParams

REF = LadderParams(N_a=9, g_p=0.4, g_t=0.5, delta_p=1.2, delta_t=0.7, n_max=2)


def _lowering(P):
    a = np.zeros((P, P))
    for n in range(P - 1):
        a[n, n + 1] = np.sqrt(n + 1.0)
    return a


def _kron_oracle(params):
    # Independent reconstruction from the product structure
    # (atom) x (probe mode) x (trigger mode), trigger fastest.
    P = params.n_max + 1
    a = _lowering(P)
    eye = np.eye(P)
    unit = {
        lab: np.zeros((3, 3)) for lab in ("g2e1", "g2e3", "e1", "e3")
    }
    unit["g2e1"][0, 1] = 1.0
    unit["g2e3"][0, 2] = 1.0
    unit["e1"][1, 1] = 1.0
    unit["e3"][2, 2] = 1.0
    gp = params.g_p * np.sqrt(params.N_a)
    gt = params.g_t * np.sqrt(params.N_a)
    H = -params.delta_p * np.kron(np.kron(unit["e1"], eye), eye)
    H = H - params.delta_t * np.kron(np.kron(unit["e3"], eye), eye)
    probe = gp * np.kron(np.kron(unit["g2e1"], a), eye)
    H = H + probe + probe.T
    if params.convention == "as-printed":
        trig = gt * np.kron(np.kron(unit["g2e3"], eye), a)
    else:
        trig = gt * np.kron(np.kron(unit["g2e3"], eye), a.T)
    return H + trig + trig.T


def test_dimension_counts():
    assert ladder.ladder_dim(1) == 12
    assert ladder.ladder_dim(2) == 27
    assert ladder.ladder_dim(3) == 48


def test_index_enumeration_and_errors():
    seen = set()
    for k, atom in enumerate(ladder.LADDER_ATOM_LABELS):
        for n_p in range(3):
            for n_t in range(3):
                idx = ladder.ladder_index(atom, n_p, n_t, 2)
                assert idx == k * 9 + n_p * 3 + n_t
                seen.add(idx)
    assert seen == set(range(27))
    with pytest.raises(ValueError, match="label"):
        ladder.ladder_index("X", 0, 0, 2)
    with pytest.raises(ValueError, match="photon"):
        ladder.ladder_index("G2", 3, 0, 2)
    with pytest.raises(ValueError, match="photon"):
        ladder.ladder_index("G2", 0, -1, 2)


@pytest.mark.parametrize(
    "kw",
    [
        dict(N_a=0.5),
        dict(gamma21=-0.1),
        dict(gamma32=-1.0),
        dict(n_max=0),
        dict(convention="sideways"),
    ],
)
def test_parameter_validation(kw):
    with pytest.raises(ValueError):
        LadderParams(**kw)


def test_n_max_stops_where_the_generator_keys_overflow_int64():
    # A generator key is row·n² + col < n⁴, n = ladder_dim(n_max).
    limit = ladder._N_MAX_LIMIT
    int64 = np.iinfo(np.int64).max
    assert ladder.ladder_dim(limit) ** 4 <= int64 < ladder.ladder_dim(limit + 1) ** 4
    assert LadderParams(n_max=limit).n_max == limit
    for n_max in (limit + 1, 10**400):
        with pytest.raises(ValueError, match=rf"^n_max must be at most {limit} "):
            LadderParams(n_max=n_max)


@pytest.mark.parametrize("convention", ladder.CONVENTIONS)
def test_hamiltonian_matches_product_structure(convention):
    params = LadderParams(
        N_a=9, g_p=0.4, g_t=0.5, delta_p=1.2, delta_t=0.7, n_max=2,
        convention=convention,
    )
    H = ladder.build_ladder_hamiltonian(params)
    assert np.allclose(H, H.conj().T)
    assert np.allclose(H, _kron_oracle(params), atol=1e-14, rtol=0)


def _loop_hamiltonian(params):
    # Reference: the per-builder coupling loop the table assembly replaced.
    states = ladder.ladder_states(params.n_max)
    energy = {"G2": 0.0, "E1": -params.delta_p, "E3": -params.delta_t}
    gp = params.g_p * math.sqrt(params.N_a)
    gt = params.g_t * math.sqrt(params.N_a)
    trigger = ("G2", "E3") if params.convention == "as-printed" else ("E3", "G2")
    couplings = (
        (gp, "G2", "E1", (1, 0), lambda n_p, n_t: math.sqrt(n_p + 1)),
        (gt, *trigger, (0, 1), lambda n_p, n_t: math.sqrt(n_t + 1)),
    )
    H = np.zeros((len(states), len(states)), dtype=complex)
    for strength, src, dst, shift, weight in couplings:
        T = mscheme.transition_operator(states, src, dst, shift, weight)
        H += strength * (T + T.conj().T)
    np.fill_diagonal(H, [energy[label] for label, _, _ in states])
    return H


def _loop_channels(params):
    # Reference: the per-builder zero-rate filter the table assembly replaced.
    states = ladder.ladder_states(params.n_max)
    return [
        mscheme.JumpChannel(
            rate=rate, op=mscheme.transition_operator(states, src, dst), kind="decay"
        )
        for rate, src, dst in ((params.gamma21, "G2", "E1"), (params.gamma32, "E3", "G2"))
        if rate != 0.0
    ]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("convention", ladder.CONVENTIONS)
def test_builders_are_bitwise_the_per_builder_loops(convention, n_max):
    rng = np.random.default_rng(17 + n_max)
    for _ in range(10):
        g_p, g_t, delta_p, delta_t = rng.normal(size=4) * rng.choice([0.0, 1e-3, 1.0, 10.0], size=4)
        gamma21, gamma32 = (float(rng.choice([0.0, rng.uniform(0, 2)])) for _ in range(2))
        params = LadderParams(
            N_a=float(10 ** rng.uniform(0, 8)), g_p=float(g_p), g_t=float(g_t),
            delta_p=float(delta_p), delta_t=float(delta_t), gamma21=gamma21, gamma32=gamma32,
            n_max=n_max, convention=convention,
        )
        H = ladder.build_ladder_hamiltonian(params)
        assert H.tobytes() == _loop_hamiltonian(params).tobytes()
        channels = ladder.build_ladder_channels(params)
        reference = _loop_channels(params)
        assert [(c.rate, c.kind) for c in channels] == [(c.rate, c.kind) for c in reference]
        for c, r in zip(channels, reference):
            assert c.op.tobytes() == r.op.tobytes()


def test_as_printed_emits_and_absorptive_consumes():
    H_emit = ladder.build_ladder_hamiltonian(REF)
    g2_00 = ladder.ladder_index("G2", 0, 0, 2)
    e3_01 = ladder.ladder_index("E3", 0, 1, 2)
    assert H_emit[g2_00, e3_01] == pytest.approx(0.5 * 3.0)
    absorb = LadderParams(
        N_a=9, g_p=0.4, g_t=0.5, delta_p=1.2, delta_t=0.7, n_max=2,
        convention="absorptive",
    )
    H_abs = ladder.build_ladder_hamiltonian(absorb)
    assert H_abs[g2_00, e3_01] == 0.0
    g2_01 = ladder.ladder_index("G2", 0, 1, 2)
    e3_00 = ladder.ladder_index("E3", 0, 0, 2)
    assert H_abs[g2_01, e3_00] == pytest.approx(0.5 * 3.0)


@pytest.mark.parametrize("convention,e3_sign", [("as-printed", -1.0), ("absorptive", 1.0)])
def test_photon_excitation_charges_commute(convention, e3_sign):
    # Emitting couplings conserve (photons - excitations); the absorptive
    # trigger conserves (photons + excitations).
    params = LadderParams(
        N_a=9, g_p=0.4, g_t=0.5, delta_p=1.2, delta_t=0.7, n_max=2,
        convention=convention,
    )
    H = ladder.build_ladder_hamiltonian(params)
    dim = ladder.ladder_dim(2)
    charge_p = np.zeros((dim, dim))
    charge_t = np.zeros((dim, dim))
    for k, atom in enumerate(ladder.LADDER_ATOM_LABELS):
        for n_p in range(3):
            for n_t in range(3):
                i = ladder.ladder_index(atom, n_p, n_t, 2)
                charge_p[i, i] = n_p - (atom == "E1")
                charge_t[i, i] = n_t + e3_sign * (atom == "E3")
    assert np.allclose(H @ charge_p - charge_p @ H, 0.0, atol=1e-13)
    assert np.allclose(H @ charge_t - charge_t @ H, 0.0, atol=1e-13)


def test_jump_operators_shift_labels_and_keep_photons():
    chans = ladder.build_ladder_channels(REF)
    assert [c.rate for c in chans] == [REF.gamma21, REF.gamma32]
    assert all(c.kind == "decay" for c in chans)
    eye9 = np.eye(9)
    drop = np.zeros((3, 3))
    drop[1, 0] = 1.0  # G2 -> E1
    refill = np.zeros((3, 3))
    refill[0, 2] = 1.0  # E3 -> G2
    assert np.array_equal(chans[0].op, np.kron(drop, eye9))
    assert np.array_equal(chans[1].op, np.kron(refill, eye9))


def test_zero_rate_channels_dropped():
    chans = ladder.build_ladder_channels(
        LadderParams(N_a=9, g_p=0.4, g_t=0.5, gamma21=0.0, n_max=2)
    )
    assert len(chans) == 1
    assert chans[0].rate == 1.0


def test_choi_inputs_sit_on_the_photonic_qubit():
    E = ladder.ladder_choi_inputs(2)
    assert E.shape == (16, 27, 27)
    pos = [0, 1, 3, 4]  # G2 with (0,0),(0,1),(1,0),(1,1)
    for i in range(4):
        for j in range(4):
            expect = np.zeros((27, 27))
            expect[pos[i], pos[j]] = 1.0
            assert np.array_equal(E[4 * i + j], expect)


def test_ladder_states_follow_ladder_index():
    states = ladder.ladder_states(2)
    assert len(states) == ladder.ladder_dim(2)
    assert [ladder.ladder_index(*s, 2) for s in states] == list(range(27))


def test_reduce_to_photons_sums_labels():
    rng = np.random.default_rng(3)
    blocks = rng.standard_normal((3, 9, 9)) + 1j * rng.standard_normal((3, 9, 9))
    rho = np.zeros((27, 27), dtype=complex)
    for k in range(3):
        rho[9 * k : 9 * (k + 1), 9 * k : 9 * (k + 1)] = blocks[k]
    reduced = ladder.reduce_to_photons(rho, 2)
    assert np.allclose(reduced, blocks.sum(axis=0))
    with pytest.raises(ValueError, match="dimension"):
        ladder.reduce_to_photons(rho, 3)


def test_photon_qubit_block_refuses_another_n_max():
    # A 16x16 photon state is n_max 3's; read as n_max 2 it gave a wrong block.
    with pytest.raises(ValueError, match=r"dimension 9 for n_max 2, got shape \(16, 16\)$"):
        ladder.photon_qubit_block(np.eye(16), 2)


def test_boundary_population_refuses_another_n_max():
    with pytest.raises(ValueError, match=r"dimension 48 for n_max 3, got shape \(2, 27, 27\)$"):
        ladder.boundary_population(np.zeros((2, 27, 27)), 3)


def test_photon_qubit_block_slices_low_corner():
    field = np.arange(81.0).reshape(9, 9)
    block = ladder.photon_qubit_block(field, 2)
    idx = [0, 1, 3, 4]
    for i in range(4):
        for j in range(4):
            assert block[i, j] == field[idx[i], idx[j]]


@pytest.mark.parametrize("n_max", range(1, 9))
def test_photon_qubit_block_takes_the_low_corner_positions(n_max):
    # The block of FIELD_BASIS[:4] is the one at positions 0, 1, P, P + 1.
    P = n_max + 1
    field = np.arange(float(P**4)).reshape(P * P, P * P)
    idx = [0, 1, P, P + 1]
    assert np.array_equal(ladder.photon_qubit_block(field, n_max), field[np.ix_(idx, idx)])


def test_boundary_population_counts_edge_states():
    rho = np.zeros((27, 27))
    rho[ladder.ladder_index("G2", 2, 0, 2)] [ladder.ladder_index("G2", 2, 0, 2)] = 0.2
    rho[ladder.ladder_index("E1", 0, 2, 2)] [ladder.ladder_index("E1", 0, 2, 2)] = 0.05
    rho[ladder.ladder_index("E3", 1, 1, 2)] [ladder.ladder_index("E3", 1, 1, 2)] = 0.75
    assert ladder.boundary_population(rho, 2) == pytest.approx(0.25)
    traj = np.stack([np.zeros((27, 27)), rho])
    assert np.allclose(ladder.boundary_population(traj, 2), [0.0, 0.25])


def test_check_truncation_threshold():
    rho = np.zeros((27, 27))
    rho[2, 2] = 2e-3  # (G2,0,2) sits on the edge
    with pytest.raises(RuntimeError, match="raise n_max"):
        ladder.check_truncation(rho, 2)
    rho[2, 2] = 5e-4
    ladder.check_truncation(rho, 2)


def test_truncation_error_names_the_worst_state():
    traj = np.zeros((5, 27, 27))
    traj[1, 2, 2] = 2e-3
    traj[3, 2, 2] = 4e-3
    with pytest.raises(RuntimeError, match="truncation leakage 4.000e-03 at time sample 3 "):
        ladder.check_truncation(traj, 2)
    batch = np.stack([np.zeros_like(traj), traj], axis=1)
    with pytest.raises(RuntimeError, match="at time sample 3 of input 1 "):
        ladder.check_truncation(batch, 2)
    with pytest.raises(RuntimeError, match=r"at time sample 3 of input \|01> "):
        ladder.check_leakage(ladder.boundary_population(batch, 2), labels=("|00>", "|01>"))


def test_non_finite_leakage_trips_the_guard():
    # nan > threshold is False: the guard must test for it on its own.
    with pytest.raises(RuntimeError, match=r"non-finite \(nan\) at time sample 0 of input 1$"):
        ladder.check_leakage(np.array([[0.0, np.nan], [0.0, 0.0]]))
    leak = np.array([[0.0, 0.0], [2e-3, 0.0], [0.0, np.inf]])
    with pytest.raises(RuntimeError, match=r"non-finite \(inf\) at time sample 2 of input \|01>$"):
        ladder.check_leakage(leak, labels=("|00>", "|01>"))
    with pytest.raises(RuntimeError, match="non-finite .* at time sample 1$"):
        ladder.check_leakage(np.array([0.0, -np.inf, 0.0]))


def test_gate_without_couplings_or_decay_is_static():
    quiet = LadderParams(N_a=1, delta_p=2.0, delta_t=-1.0, gamma21=0.0, gamma32=0.0, n_max=1)
    times = np.linspace(0.0, 3.0, 4)
    gt = ladder.evolve_ladder_gate(quiet, times)
    E = ladder.ladder_choi_inputs(1)
    for m in range(4):
        assert np.allclose(gt.unit_inputs[m], E, atol=1e-12)
    assert np.allclose(gt.amplitudes, 0.5)


def test_gate_rejects_zero_amplitudes():
    with pytest.raises(ValueError, match="zero"):
        ladder.evolve_ladder_gate(REF, np.linspace(0.0, 1.0, 3), [0, 0, 0, 0])


def test_conditional_trace_never_increases():
    times = np.linspace(0.0, 2.0, 5)
    cond = ladder.evolve_ladder_gate(REF, times, conditional=True)
    tr = np.einsum("tkaa->tk", cond.unit_inputs).real
    pops = tr[:, [0, 5, 10, 15]]
    assert np.all(np.diff(pops, axis=0) <= 1e-10)
    assert np.all(pops <= 1.0 + 1e-10)


FIG_SET = dict(N_a=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, delta_t=0.0)


def test_emitting_trigger_overflows_a_tight_truncation():
    # Resonant emission with decay refill keeps pumping trigger photons
    # upward, so a low photon cap is overrun almost immediately.
    params = LadderParams(**FIG_SET, n_max=2)
    times = np.linspace(0.0, 0.25, 6)
    gt = ladder.evolve_ladder_gate(params, times)
    assert np.max(ladder.boundary_population(gt.unit_inputs, 2)) > 0.5
    with pytest.raises(RuntimeError, match="raise n_max"):
        ladder.check_truncation(gt.unit_inputs, 2)


def test_qubit_block_is_truncation_insensitive_before_overflow():
    times = np.linspace(0.0, 0.02, 3)
    g2 = ladder.evolve_ladder_gate(LadderParams(**FIG_SET, n_max=2), times)
    g3 = ladder.evolve_ladder_gate(LadderParams(**FIG_SET, n_max=3), times)
    ladder.check_truncation(g3.unit_inputs, 3)
    b2 = ladder.photon_qubit_block(ladder.reduce_to_photons(g2.unit_inputs[-1], 2), 2)
    b3 = ladder.photon_qubit_block(ladder.reduce_to_photons(g3.unit_inputs[-1], 3), 3)
    assert np.max(np.abs(b2 - b3)) < 1e-10


@pytest.mark.parametrize("convention, n_max, cone, reached, at_edge", [
    ("as-printed", 2, 172, 253, True),
    ("as-printed", 3, 172, 382, False),
    ("as-printed", 4, 172, 511, False),
    ("as-printed", 6, 172, 769, False),
    ("as-printed", 8, 172, 1027, False),
    ("absorptive", 3, 124, 124, False),
])
def test_readout_cone_of_criterion_6(convention, n_max, cone, reached, at_edge):
    # The cone: the reached vec entries that can feed the entries the
    # qubit map reads, found along |L|ᵀ. The as-printed pump grows the
    # reached set with n_max, but the cone stays put and clears the
    # truncation edge from n_max 3 on.
    L = ladder.build_ladder_liouvillian(
        LadderParams(**FIG_SET, gamma21=1.0, gamma32=1.0, n_max=n_max, convention=convention)
    )
    states = ladder.ladder_states(n_max)
    n, pos = len(states), ladder.qubit_positions(n_max)
    R = dynamics.reachable(L, [a + n * b for a in pos for b in pos])
    LT = sp.csr_matrix((np.abs(L.data), L.indices, L.indptr), shape=L.shape).T.tocsr()
    seeds = np.flatnonzero(basis.qubit_cells(states) >= 0)
    C = np.intersect1d(dynamics.reachable(LT, seeds), R)
    edge = np.array([n_max in s[1:] for s in states])
    assert (C.size, R.size) == (cone, reached)
    assert bool(np.any(edge[C % n] | edge[C // n])) == at_edge


def test_as_printed_qubit_block_does_not_depend_on_n_max():
    # Criterion 6's couplings, propagated with no truncation guard. The
    # as-printed trigger photon piles up at the edge (the guard trips
    # below n_max 5), but that part never feeds back into the qubit block.
    times = np.linspace(0.0, 0.25, 126)
    blocks = []
    for n_max in (2, 8):
        p = LadderParams(N_a=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, delta_t=0.0,
                         gamma21=1.0, gamma32=1.0, n_max=n_max, convention="as-printed")
        gt, states = ladder.evolve_ladder_gate(p, times), ladder.ladder_states(n_max)
        if n_max == 2:
            leak = gt.image(basis.edge_cells(states)).real
            assert leak.max() > 0.5
        blocks.append(gt.image(basis.qubit_cells(states)))
    assert np.max(np.abs(blocks[1])) > 0.1
    assert np.max(np.abs(blocks[0] - blocks[1])) < 1e-13
