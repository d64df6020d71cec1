"""Field reduction, phase extraction and fidelity measures."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from eitgate import basis, dynamics, observables

from _support import RICH_PARAMS, CLOSED_PARAMS, haar_states, random_density


def _units():
    E = np.zeros((16, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            E[4 * i + j, i, j] = 1.0
    return E


def _embedded_units():
    """The same units at the qubit states of the 18-state space."""
    return dynamics.matrix_units(basis.QUBIT_M_INDICES, basis.M_DIM)


def test_field_reduction_sums_matching_atomic_labels():
    rng = np.random.default_rng(1)
    rho = random_density(18, rng)
    manual = np.zeros((6, 6), dtype=complex)
    for i, (ai, pi, ti) in enumerate(basis.M_STATES):
        for j, (aj, pj, tj) in enumerate(basis.M_STATES):
            if ai == aj:
                manual[basis.field_index(pi, ti), basis.field_index(pj, tj)] += rho[i, j]
    reduced = observables.reduce_to_fields(rho)
    assert np.allclose(reduced, manual, atol=1e-14)
    assert np.trace(reduced) == pytest.approx(np.trace(rho))


def _projector_sum(rho):
    """Σ_l B_l ρ B_lᵀ with the 0/1 selectors B_l built from the basis table."""
    B = np.zeros((len(basis.ATOM_LABELS), 6, 18))
    for i, (atom, n_p, n_t) in enumerate(basis.M_STATES):
        B[basis.ATOM_LABELS.index(atom), basis.field_index(n_p, n_t), i] = 1.0
    return sum(B[l] @ rho @ B[l].T for l in range(B.shape[0]))


@pytest.mark.parametrize("shape", [(18, 18), (5, 18, 18), (3, 4, 18, 18)])
def test_field_reduction_matches_projector_sum(shape):
    rng = np.random.default_rng(sum(shape))
    rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    reduced = observables.reduce_to_fields(rho)
    assert reduced.shape == shape[:-2] + (6, 6)
    assert np.max(np.abs(reduced - _projector_sum(rho))) <= 1e-14


def test_field_reduction_of_non_contiguous_slice():
    rng = np.random.default_rng(4)
    units = rng.standard_normal((7, 16, 18, 18)) + 1j * rng.standard_normal((7, 16, 18, 18))
    sliced = units[:, 3]
    assert not sliced.flags.c_contiguous
    assert np.max(np.abs(observables.reduce_to_fields(sliced) - _projector_sum(sliced))) <= 1e-14


def test_field_reduction_requires_full_space():
    with pytest.raises(ValueError):
        observables.reduce_to_fields(np.eye(6))
    with pytest.raises(ValueError):
        observables.reduce_to_fields(np.zeros((3, 18, 6)))


def test_qubit_block_is_leading_four_by_four():
    rng = np.random.default_rng(2)
    f = random_density(6, rng)
    assert np.array_equal(observables.qubit_block(f), f[:4, :4])


def test_qubit_block_refuses_states_off_the_field_basis():
    # An 18x18 state has a 4x4 corner too, but it is not the qubit block.
    with pytest.raises(ValueError, match=r"dimension 6, got shape \(18, 18\)$"):
        observables.qubit_block(np.eye(18))


def test_population_names_follow_canonical_order():
    names = basis.state_names(basis.M_STATES)
    assert len(names) == 18
    assert names[0] == "G_0_0"
    assert names[13] == "E2_1_0"
    rho = np.diag(np.arange(18.0))
    assert np.array_equal(observables.populations(rho), np.arange(18.0))


# The equal superposition of the four qubit states.
EQUAL = np.full(4, 0.5)


def test_phase_extraction_recovers_linear_drift():
    lam = np.array([0.7, -1.1, 0.4])
    times = np.linspace(0.0, 2.0, 201)
    coh = 0.3 * np.exp(-1j * np.outer(times, lam))
    phases = observables.phases_from_coherences(coh, EQUAL)
    assert np.allclose(phases, -np.outer(times, lam), atol=1e-10)
    cps = observables.conditional_phase_shift(phases)
    assert np.allclose(cps, -(lam[2] - lam[1] - lam[0]) * times, atol=1e-9)


def test_phase_extraction_unwraps_beyond_two_pi():
    times = np.linspace(0.0, 30.0, 301)
    coh = 0.5 * np.exp(-1j * np.outer(times, np.array([1.0, 1.0, 1.0])))
    phases = observables.phases_from_coherences(coh, EQUAL)
    assert phases[-1, 0] == pytest.approx(-30.0, abs=1e-9)


def test_phase_extraction_removes_input_argument():
    amps = np.array([0.5, 0.5j, -0.5, 0.5 - 0.5j])
    amps = amps / np.linalg.norm(amps)
    lam = np.array([0.3, 0.2, -0.5])
    times = np.linspace(0.0, 1.0, 51)
    rel = amps[1:4] * np.conj(amps[0])
    coh = rel[None, :] * np.exp(-1j * np.outer(times, lam))
    phases = observables.phases_from_coherences(coh, amps)
    assert np.allclose(phases, -np.outer(times, lam), atol=1e-10)


def test_phases_depend_only_on_amplitude_ratios():
    amps = np.array([0.6, 0.3j, -0.5, 0.2 - 0.4j])
    times = np.linspace(0.0, 1.0, 11)
    coh = np.exp(-1j * np.outer(times, [0.3, 0.2, -0.5]))
    phases = observables.phases_from_coherences(coh, amps)
    scaled = observables.phases_from_coherences(coh, 1e-13 * amps)
    assert np.allclose(scaled, phases, rtol=0.0, atol=1e-14)
    with pytest.raises(observables.UndefinedPhaseError):
        observables.phases_from_coherences(coh, np.zeros(4))


def test_phase_step_of_pi_is_rejected_as_ambiguous():
    coh = 0.5 * np.exp(1j * np.array([[0.0] * 3, [np.pi] * 3]))
    with pytest.raises(ValueError, match="refine the grid"):
        observables.phases_from_coherences(coh, EQUAL)
    # Anything measurably under pi still lands on the nearest branch.
    near = 0.5 * np.exp(1j * np.array([[0.0] * 3, [3.0] * 3]))
    phases = observables.phases_from_coherences(near, EQUAL)
    assert np.allclose(phases[1], 3.0, atol=1e-12)


def test_phase_step_error_names_the_time_sample():
    angles = np.array([0.0, 0.5, 1.0, 1.5, 1.5 + np.pi, 2.0])
    coh = 0.5 * np.exp(1j * np.repeat(angles[:, None], 3, axis=1))
    with pytest.raises(ValueError, match="phase step of π or more between samples 3 and 4"):
        observables.phases_from_coherences(coh, EQUAL)


def test_undefined_phase_error_names_the_time_sample():
    coh = np.full((5, 3), 0.5, dtype=complex)
    coh[2, 1] = 1e-13
    with pytest.raises(observables.UndefinedPhaseError, match="at time sample 2;"):
        observables.phases_from_coherences(coh, EQUAL)


def test_vanishing_coherence_raises_undefined_phase():
    coh = np.full((3, 3), 1e-13, dtype=complex)
    with pytest.raises(observables.UndefinedPhaseError):
        observables.phases_from_coherences(coh, EQUAL)
    good = np.full((3, 3), 0.5, dtype=complex)
    with pytest.raises(observables.UndefinedPhaseError):
        observables.phases_from_coherences(good, [0.0, 1.0, 1.0, 1.0])


def test_non_finite_coherences_raise_naming_the_time_sample():
    with pytest.raises(ValueError, match="non-finite qubit coherence at time sample 0$"):
        observables.phases_from_coherences(np.array([[0.5, np.nan, 0.5]]), EQUAL)
    with pytest.raises(ValueError, match="non-finite qubit coherence at time sample 0$"):
        observables.phases_from_coherences(np.full((2, 3), np.nan), EQUAL)
    coh = np.full((5, 3), 0.5, dtype=complex)
    coh[3, 1] = np.inf
    coh[4, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite qubit coherence at time sample 3$"):
        observables.phases_from_coherences(coh, EQUAL)


def test_extract_phases_single_state_and_trajectory():
    f = np.zeros((6, 6), dtype=complex)
    f[1:4, 0] = 0.25 * np.exp(1j * np.array([0.1, 0.2, 0.3]))
    f[0, 1:4] = np.conj(f[1:4, 0])
    traj = observables.extract_phases(np.stack([f, f]), EQUAL)
    assert traj.shape == (2, 3)
    assert np.allclose(traj, [0.1, 0.2, 0.3], atol=1e-12)
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        observables.extract_phases(f, EQUAL)
    with pytest.raises(ValueError):
        observables.extract_phases(np.eye(5), EQUAL)


def test_phases_are_read_from_series_only():
    # A single sample, a stack of series and a series of other than three
    # coherences are each refused, naming the shape.
    for shape in [(3,), (2, 4, 3), (4, 2)]:
        coh = np.full(shape, 0.5, dtype=complex)
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}$"):
            observables.phases_from_coherences(coh, EQUAL)
    assert observables.phases_from_coherences(np.full((1, 3), 0.5), EQUAL).shape == (1, 3)


def test_ideal_phase_unitary_layout():
    U = observables.ideal_phase_unitary([0.2, -0.4, 1.0])
    assert np.allclose(np.diag(U), np.exp(1j * np.array([0.0, 0.2, -0.4, 1.0])))
    assert np.allclose(U, np.diag(np.diag(U)))


def test_ideal_phase_unitary_of_a_series():
    phases = np.array([[0.2, -0.4, 1.0], [0.0, 0.0, 0.0], [3.0, 1.0, -2.0]])
    series = observables.ideal_phase_unitary(phases)
    assert series.shape == (3, 4, 4)
    for m in range(3):
        assert np.array_equal(series[m], observables.ideal_phase_unitary(phases[m]))
    with pytest.raises(ValueError):
        observables.ideal_phase_unitary([0.1, 0.2])


def test_choi_matrix_of_identity_channel():
    # The Choi matrix in block form: the qubit-block images of the units.
    blocks = observables.qubit_block(observables.reduce_to_fields(_embedded_units()))
    assert np.array_equal(blocks, _units())


def test_average_fidelity_of_identity_is_one():
    assert observables.average_fidelity_from_blocks(_units(), np.eye(4)) == pytest.approx(1.0)
    blocks = observables.qubit_block(observables.reduce_to_fields(_embedded_units()))
    assert observables.average_fidelity_from_blocks(blocks, np.eye(4)) == pytest.approx(1.0)


def test_average_fidelity_of_depolarizing_channel():
    # Every input mapped to the maximally mixed state: mean overlap 1/4.
    lam = np.zeros((16, 4, 4), dtype=complex)
    for i in range(4):
        lam[4 * i + i] = np.eye(4) / 4.0
    F = observables.average_fidelity_from_blocks(lam, np.eye(4))
    assert F == pytest.approx(math.sqrt(0.25), abs=1e-12)


def test_average_fidelity_of_complete_dephasing():
    # Diagonal kept, coherences destroyed: mean overlap (16/16 + 4)/20.
    lam = np.zeros((16, 4, 4), dtype=complex)
    for i in range(4):
        lam[4 * i + i, i, i] = 1.0
    F = observables.average_fidelity_from_blocks(lam, np.eye(4))
    assert F == pytest.approx(math.sqrt(0.4), abs=1e-12)


def test_average_fidelity_tracks_target_rotation():
    U0 = np.diag(np.exp(1j * np.array([0.0, 0.3, -0.7, 1.1])))
    lam = np.einsum("ab,kbc,cd->kad", U0, _units(), U0.conj().T)
    assert observables.average_fidelity_from_blocks(lam, U0) == pytest.approx(1.0)
    assert observables.average_fidelity_from_blocks(lam, np.eye(4)) < 1.0


def test_average_fidelity_matches_monte_carlo_haar_estimate():
    U0 = np.diag(np.exp(1j * np.array([0.0, 0.5, -0.2, 0.9])))
    lam = 0.2 * _units() + 0.8 * np.einsum("ab,kbc,cd->kad", U0, _units(), U0.conj().T)
    for i in range(4):
        lam[4 * i + i] += 0.05 * np.eye(4)
    lam /= 1.05
    closed = observables.average_fidelity_from_blocks(lam, U0) ** 2
    rng = np.random.default_rng(12)
    psi = haar_states(20000, 4, rng)
    tgt = psi @ U0.T
    W = np.einsum("si,sj->sij", psi, psi.conj())
    f = np.einsum("sa,sij,ijab,sb->s", tgt.conj(), W, lam.reshape(4, 4, 4, 4), tgt).real
    sigma = f.std(ddof=1) / math.sqrt(f.size)
    assert abs(f.mean() - closed) < 3.0 * sigma + 1e-12


def test_average_fidelity_rejects_malformed_blocks():
    with pytest.raises(ValueError):
        observables.average_fidelity_from_blocks(np.zeros((15, 4, 4)), np.eye(4))
    with pytest.raises(ValueError, match="negative average overlap"):
        observables.average_fidelity_from_blocks(-_units(), np.eye(4))
    skew = _units().astype(complex)
    skew[0] *= 1j
    with pytest.raises(ValueError, match="non-real"):
        observables.average_fidelity_from_blocks(skew, np.eye(4))


def test_average_fidelity_above_one_by_rounding_reads_one():
    # Overlaps 1, 1 + 1e-15 and 1 - 1e-15: the square root above 1 reads
    # 1.0, the one below 1 is kept; further above 1 the map is refused.
    series = np.repeat(_units()[None], 3, axis=0).astype(complex)
    series[1] *= 1.0 + 1e-15
    series[2] *= 1.0 - 1e-15
    F = observables.average_fidelity_from_blocks(series, np.eye(4))
    assert F[0] == F[1] == 1.0 and 1.0 - 1e-15 < F[2] < 1.0
    one = observables.average_fidelity_from_blocks(series[1], np.eye(4))
    assert type(one) is float and one == 1.0
    series[2] = (1.0 + 1e-11) * _units()
    with pytest.raises(ValueError, match=(
        r"^average fidelity 1\.0000000000\d* exceeds 1 at time sample 2; the map is not physical$"
    )):
        observables.average_fidelity_from_blocks(series, np.eye(4))


def test_non_finite_blocks_raise_naming_the_time_sample():
    # The NaN sits in an entry that neither F_e nor Tr Λ(I) reads.
    one = _units()
    one[3, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite qubit-block image$"):
        observables.average_fidelity_from_blocks(one, np.eye(4))
    series = np.repeat(_units()[None], 3, axis=0)
    series[1:] = np.nan
    with pytest.raises(ValueError, match="non-finite qubit-block image at time sample 1$"):
        observables.average_fidelity_from_blocks(series, np.eye(4))
    with pytest.raises(ValueError, match="non-finite qubit-block image$"):
        observables.conditional_fidelity_from_blocks(one, np.full(16, 0.25), np.eye(4))


def test_conditional_fidelity_checks_the_traces():
    traces = np.repeat(np.eye(4, dtype=complex).reshape(1, 16), 2, axis=0)
    traces[1, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite no-jump trace$"):
        observables.conditional_fidelity_from_blocks(_units(), traces[1], np.eye(4))
    with pytest.raises(ValueError, match=r"full_traces has shape \(2, 16\)"):
        observables.conditional_fidelity_from_blocks(_units(), traces, np.eye(4))


def test_conditional_fidelity_refuses_a_leading_axis():
    series = np.repeat(_units()[None], 3, axis=0)
    traces = np.repeat(np.eye(4, dtype=complex).reshape(1, 16), 3, axis=0)
    for T in (3, 1):
        want = rf"^expected one time sample of \(16, 4, 4\) blocks, got shape \({T}, 16, 4, 4\)$"
        with pytest.raises(ValueError, match=want):
            observables.conditional_fidelity_from_blocks(series[:T], traces[:T], np.eye(4))


def test_conditional_fidelity_of_identity_map():
    tr = np.eye(4, dtype=complex).reshape(16)
    r = observables.conditional_fidelity_from_blocks(_units(), tr, np.eye(4))
    assert r.fidelity == pytest.approx(1.0, abs=1e-12)
    assert r.p_success == pytest.approx(1.0, abs=1e-12)
    assert r.samples_used == 2000


def test_conditional_fidelity_of_uniform_loss():
    s = 0.37
    tr = s * np.eye(4, dtype=complex).reshape(16)
    r = observables.conditional_fidelity_from_blocks(s * _units(), tr, np.eye(4))
    assert r.fidelity == pytest.approx(1.0, abs=1e-12)
    assert r.p_success == pytest.approx(s, abs=1e-12)


def test_conditional_fidelity_is_seed_deterministic():
    lam = 0.9 * _units()
    lam[5, 1, 1] = 0.8
    tr = np.einsum("kaa->k", lam)
    a = observables.conditional_fidelity_from_blocks(lam, tr, np.eye(4), seed=5)
    b = observables.conditional_fidelity_from_blocks(lam, tr, np.eye(4), seed=5)
    c = observables.conditional_fidelity_from_blocks(lam, tr, np.eye(4), seed=6)
    assert a.fidelity == b.fidelity
    assert a.p_success == b.p_success
    assert a.samples_used == b.samples_used
    assert a.fidelity != c.fidelity
    assert abs(a.fidelity - c.fidelity) < 5e-3


@pytest.mark.parametrize("kwargs, key", [
    ({"mc_samples": 0}, "mc_samples"),
    ({"mc_samples": -1}, "mc_samples"),
    ({"seed": -1}, "seed"),
])
def test_conditional_fidelity_rejects_bad_sampling_settings(monkeypatch, kwargs, key):
    def never(*args, **kw):
        raise AssertionError("drew samples before validating")

    monkeypatch.setattr(observables.np.random, "default_rng", never)
    lam = _units()
    with pytest.raises(ValueError, match=key):
        observables.conditional_fidelity_from_blocks(
            lam, np.einsum("kaa->k", lam), np.eye(4), **kwargs
        )


def test_conditional_fidelity_aborts_when_success_vanishes():
    lam = np.zeros((16, 4, 4), dtype=complex)
    tr = np.zeros(16, dtype=complex)
    with pytest.raises(RuntimeError, match="negligible success"):
        observables.conditional_fidelity_from_blocks(lam, tr, np.eye(4))


def _random_unitary(rng):
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _random_lossy_blocks(rng, times):
    """Qubit blocks and full traces of random trace-decreasing maps.

    Each time sample gets its own map into a 6-dimensional space, from
    three Kraus operators scaled so that Σ K†K ≤ 0.9 I; the two extra
    dimensions hold population that leaves the qubit block.
    """
    lam = np.empty((times, 16, 4, 4), dtype=complex)
    traces = np.empty((times, 16), dtype=complex)
    for m in range(times):
        K = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
        K *= math.sqrt(0.9 / np.linalg.eigvalsh(np.einsum("kai,kaj->ij", K.conj(), K))[-1])
        for i in range(4):
            for j in range(4):
                image = np.einsum("ka,kb->ab", K[:, :, i], K[:, :, j].conj())
                lam[m, 4 * i + j] = image[:4, :4]
                traces[m, 4 * i + j] = np.trace(image)
    return lam, traces


def _direct_conditional_fidelity(lam, traces, U, mc_samples, seed):
    """The Monte Carlo estimate written out per draw, without the folded target."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((mc_samples, 4)) + 1j * rng.standard_normal((mc_samples, 4))
    psi = X / np.linalg.norm(X, axis=1, keepdims=True)
    W = psi[:, :, None] * psi.conj()[:, None, :]
    p = np.einsum("sij,ij->s", W, traces.reshape(4, 4)).real
    tgt = psi @ U.T
    num = np.einsum("sa,sij,ijab,sb->s", tgt.conj(), W, lam.reshape(4, 4, 4, 4), tgt).real
    return math.sqrt(np.mean(num / p)), np.mean(p)


def _direct_average_fidelity(lam, U):
    """Closed-form average fidelity, entry by entry."""
    rotated = np.einsum("ai,kij,jb->kab", U.conj().T, lam, U)
    F_e = np.mean([rotated[4 * i + j, i, j] for i in range(4) for j in range(4)]).real
    identity_image = sum(lam[4 * i + i].trace().real for i in range(4))
    return math.sqrt((16.0 * F_e + identity_image) / 20.0)


def test_batched_fidelities_match_per_sample_calls():
    rng = np.random.default_rng(21)
    T = 7
    lam, traces = _random_lossy_blocks(rng, T)
    U = np.stack([_random_unitary(rng) for _ in range(T)])
    assert np.all(np.abs(U[:, 0, 1]) > 1e-3)  # non-diagonal targets
    F = observables.average_fidelity_from_blocks(lam, U)
    assert F.shape == (T,)
    for m in range(T):
        one_F = observables.average_fidelity_from_blocks(lam[m], U[m])
        assert F[m] == pytest.approx(one_F, rel=1e-12)
        assert one_F == pytest.approx(_direct_average_fidelity(lam[m], U[m]), rel=1e-12)
        one = observables.conditional_fidelity_from_blocks(
            lam[m], traces[m], U[m], mc_samples=500, seed=3
        )
        direct_f, direct_p = _direct_conditional_fidelity(lam[m], traces[m], U[m], 500, 3)
        assert one.fidelity == pytest.approx(direct_f, rel=1e-12)
        assert one.p_success == pytest.approx(direct_p, rel=1e-12)


def test_single_sample_fidelities_return_scalars():
    rng = np.random.default_rng(22)
    lam, traces = _random_lossy_blocks(rng, 1)
    U = _random_unitary(rng)
    F = observables.average_fidelity_from_blocks(lam[0], U)
    r = observables.conditional_fidelity_from_blocks(lam[0], traces[0], U, mc_samples=300)
    assert type(F) is float
    assert type(r.fidelity) is float
    assert type(r.p_success) is float
    assert type(r.samples_used) is int


def _unblocked_conditional_fidelity(lam, traces, U, mc_samples, seed):
    """The estimator as one product with the whole (256, mc_samples) weight
    matrix Q: returns (fidelity, p_success, samples_used) or raises."""
    rotated = np.einsum("ai,kij,jb->kab", U.conj().T, lam, U).reshape(256)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((mc_samples, 4)) + 1j * rng.standard_normal((mc_samples, 4))
    psi = X / np.linalg.norm(X, axis=1, keepdims=True)
    W = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(mc_samples, 16)
    Q = (W[:, :, None] * W.conj()[:, None, :]).reshape(mc_samples, 256).T
    num = (rotated @ Q).real
    p = (traces @ W.T).real
    keep = p >= 1e-12
    kept = np.count_nonzero(keep)
    if mc_samples - kept > 0.01 * mc_samples:
        raise RuntimeError(
            f"{mc_samples - kept} of {mc_samples} samples had negligible success probability"
        )
    mean_f = np.divide(num, p, out=np.zeros_like(num), where=keep).sum() / kept
    return math.sqrt(max(mean_f, 0.0)), p.mean(), kept


_TILE = observables._MC_TILE


@pytest.mark.parametrize("mc_samples", [1, _TILE - 1, _TILE, _TILE + 1, 2000])
@pytest.mark.parametrize("lead", [(), (1,), (33,)])
def test_streamed_estimate_matches_the_unblocked_weight_matrix(mc_samples, lead):
    # The sample counts leave a ragged last tile. A lead-shaped batch of
    # random maps and targets is scored one time sample at a time.
    T = math.prod(lead)
    rng = np.random.default_rng(24)
    lam, traces = _random_lossy_blocks(rng, T)
    U = np.stack([_random_unitary(rng) for _ in range(T)])
    lam, traces = lam.reshape(lead + (16, 4, 4)), traces.reshape(lead + (16,))
    U = U.reshape(lead + (4, 4))
    for m in np.ndindex(lead):
        r = observables.conditional_fidelity_from_blocks(
            lam[m], traces[m], U[m], mc_samples=mc_samples, seed=9
        )
        f, p, used = _unblocked_conditional_fidelity(lam[m], traces[m], U[m], mc_samples, 9)
        assert r.fidelity == pytest.approx(f, rel=1e-13, abs=0.0)
        assert r.p_success == pytest.approx(p, rel=1e-13, abs=0.0)
        assert r.samples_used == used == mc_samples


def _blind_trace(X):
    """Full traces (16,) of |<v|ψ>|², with v orthogonal to every row of X."""
    v = np.linalg.svd(X)[2][-1].conj()
    return np.outer(v, v.conj()).reshape(16)


def test_skipped_samples_in_a_later_tile_give_the_same_error():
    # The success probability vanishes on three draws of the second tile
    # only: above 1% of 260 draws.
    mc_samples, bad = _TILE + 10, [_TILE + 1, _TILE + 4, _TILE + 9]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((mc_samples, 4)) + 1j * rng.standard_normal((mc_samples, 4))
    lam, traces = _units(), _blind_trace(X[bad])
    with pytest.raises(RuntimeError) as want:
        _unblocked_conditional_fidelity(lam, traces, np.eye(4), mc_samples, 7)
    assert str(want.value) == "3 of 260 samples had negligible success probability"
    with pytest.raises(RuntimeError) as got:
        observables.conditional_fidelity_from_blocks(
            lam, traces, np.eye(4), mc_samples=mc_samples, seed=7
        )
    assert str(got.value) == str(want.value)
    # Two vanishing draws are within 1%: the estimate skips them.
    traces = _blind_trace(X[bad[:2]])
    r = observables.conditional_fidelity_from_blocks(
        lam, traces, np.eye(4), mc_samples=mc_samples, seed=7
    )
    assert r.samples_used == mc_samples - 2


def _traced_peak(mc_samples, lam, traces):
    tracemalloc.start()
    try:
        observables.conditional_fidelity_from_blocks(lam, traces, np.eye(4), mc_samples=mc_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conditional_fidelity_memory_does_not_grow_with_the_sample_count():
    # Only the Haar set itself (64 B per draw, a few times that while it is
    # drawn) grows with mc_samples; a (256, mc_samples) complex weight matrix
    # would add 74 MB between these two calls.
    lam, traces = (x[0] for x in _random_lossy_blocks(np.random.default_rng(25), 1))
    observables.conditional_fidelity_from_blocks(lam, traces, np.eye(4), mc_samples=10)
    small = _traced_peak(2000, lam, traces)
    large = _traced_peak(20000, lam, traces)
    assert large - small < 3e6, f"traced peak {small / 1e6:.2f} -> {large / 1e6:.2f} MB"


def test_haar_set_is_the_only_memory_that_grows_with_the_draws():
    # The drawn parts take 64 B per draw and each tile forms and normalizes
    # its own states, so the call peaks near 14 MB here. Complex draws
    # a + 1j*b normalized as one set would hold 144 B per draw (28.8 MB).
    lam, traces = (x[0] for x in _random_lossy_blocks(np.random.default_rng(25), 1))
    observables.conditional_fidelity_from_blocks(lam, traces, np.eye(4), mc_samples=10)
    peak = _traced_peak(200000, lam, traces)
    assert peak < 23e6, f"traced peak {peak / 1e6:.1f} MB"


def test_conditional_fidelity_bounds_unconditional_on_real_evolution():
    times = np.linspace(0.0, 1.5, 4)
    gt = dynamics.evolve_gate_inputs(RICH_PARAMS, times)
    cond = dynamics.evolve_gate_inputs(RICH_PARAMS, times, conditional=True)
    fields = observables.reduce_to_fields(gt.superposition)
    phases = observables.extract_phases(fields, gt.amplitudes)
    ctr = np.einsum("tkaa->tk", cond.unit_inputs)
    for m in range(1, times.size):
        U = observables.ideal_phase_unitary(phases[m])
        lam = observables.qubit_block(observables.reduce_to_fields(gt.unit_inputs[m]))
        clam = observables.qubit_block(observables.reduce_to_fields(cond.unit_inputs[m]))
        F = observables.average_fidelity_from_blocks(lam, U)
        r = observables.conditional_fidelity_from_blocks(clam, ctr[m], U)
        assert r.fidelity >= F - 1e-9
        assert 0.0 < r.p_success <= 1.0 + 1e-12


def _superposition_phases(params, times, amplitudes):
    gt = dynamics.evolve_gate_inputs(params, times, amplitudes)
    fields = observables.reduce_to_fields(gt.superposition)
    return observables.extract_phases(fields, gt.amplitudes)


def test_phases_do_not_depend_on_balanced_input_phases_without_decay():
    # Invariance class: equal-modulus product inputs.  The field reduction
    # sums over atomic labels, so the vacuum coherence of each one-photon
    # sector picks up a cross term weighted by the opposite amplitude pair;
    # extraction cancels it only when the pairwise products match, which the
    # balanced family guarantees for arbitrary single-mode phases.
    times = np.linspace(0.0, 1.0, 101)
    ref = _superposition_phases(CLOSED_PARAMS, times, [0.5, 0.5, 0.5, 0.5])
    for amps in (
        [0.5, 0.5j, -0.5, -0.5j],
        [0.5 * np.exp(0.3j), 0.5 * np.exp(1.0j), 0.5 * np.exp(-0.4j), 0.5 * np.exp(0.3j)],
        [0.2, 0.2, 0.2, 0.2],
    ):
        other = _superposition_phases(CLOSED_PARAMS, times, amps)
        assert np.max(np.abs(ref - other)) < 1e-9


def test_phases_do_not_depend_on_balanced_input_phases_with_decay():
    # The cancellation is a bookkeeping identity, not a closed-system one.
    times = np.linspace(0.0, 1.0, 101)
    ref = _superposition_phases(RICH_PARAMS, times, [0.5, 0.5, 0.5, 0.5])
    other = _superposition_phases(RICH_PARAMS, times, [0.5j, -0.5, 0.5, 0.5j])
    assert np.max(np.abs(ref - other)) < 1e-9


def test_unbalanced_inputs_shift_one_photon_phases_only():
    # Redistributing the moduli changes the cross-term weight and with it the
    # extracted one-photon phases, while the two-photon coherence lives in a
    # single label sector and stays exact.  This pins down the boundary of
    # the invariance instead of pretending it is unconditional.
    times = np.linspace(0.0, 1.0, 101)
    ref = _superposition_phases(CLOSED_PARAMS, times, [0.5, 0.5, 0.5, 0.5])
    skew = _superposition_phases(CLOSED_PARAMS, times, [0.8, -0.2j, 0.4, 0.3])
    assert np.max(np.abs(ref[:, 2] - skew[:, 2])) < 1e-9
    assert np.max(np.abs(ref[:, :2] - skew[:, :2])) > 1e-3


def _random_conserving_blocks(rng, times, p_low=0.75, p=None):
    """Qubit blocks and full traces of random no-jump maps that conserve
    the photon numbers: Σ K†K = diag(p) with p_i drawn in [p_low, 1], or
    the rows of p, so only the basis inputs carry trace."""
    lam = np.empty((times, 16, 4, 4), dtype=complex)
    traces = np.empty((times, 16), dtype=complex)
    for m in range(times):
        K = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
        w, V = np.linalg.eigh(np.einsum("kai,kaj->ij", K.conj(), K))
        p_m = rng.uniform(p_low, 1.0, 4) if p is None else p[m]
        K = K @ (V / np.sqrt(w)) @ V.conj().T @ np.diag(np.sqrt(p_m))
        for i in range(4):
            for j in range(4):
                image = np.einsum("ka,kb->ab", K[:, :, i], K[:, :, j].conj())
                lam[m, 4 * i + j] = image[:4, :4]
                traces[m, 4 * i + j] = np.trace(image)
    return lam, traces


def test_exact_conditional_fidelity_of_identity_map_and_uniform_loss():
    tr = np.eye(4, dtype=complex).reshape(16)
    assert observables.haar_conditional_fidelity(_units(), tr, np.eye(4)) == (1.0, 1.0)
    for s in (0.37, 0.9, 1e-3):
        f, p = observables.haar_conditional_fidelity(s * _units(), s * tr, np.eye(4))
        assert f == 1.0
        assert p == pytest.approx(s, rel=1e-15)


def test_exact_conditional_fidelity_with_equal_success_is_the_average_one():
    # With p_i = s for every input the denominator p·x is the constant s,
    # so F_c² = F²/s with the closed-form average fidelity F.
    rng = np.random.default_rng(30)
    lam, traces = _random_conserving_blocks(rng, 5, p_low=1.0)
    U = np.stack([_random_unitary(rng) for _ in range(5)])
    s = np.array([1.0, 0.9, 0.5, 0.2, 0.05])
    lam, traces = lam * s[:, None, None, None], traces * s[:, None]
    f, p = observables.haar_conditional_fidelity(lam, traces, U)
    F = observables.average_fidelity_from_blocks(lam, U)
    assert np.allclose(f**2, F**2 / s, rtol=1e-13, atol=0.0)
    assert np.allclose(p, s, rtol=1e-15, atol=0.0)


def test_exact_conditional_fidelity_matches_the_monte_carlo_estimate():
    # Samples 2 and 3 spread the no-jump probabilities over 3 and 9 decades.
    rng = np.random.default_rng(31)
    p = np.vstack([rng.uniform(0.75, 1.0, (2, 4)), [1.0, 0.3, 0.02, 1e-3], [0.9, 1e-9, 0.5, 1.0]])
    lam, traces = _random_conserving_blocks(rng, 4, p=p)
    U = np.stack([_random_unitary(rng) for _ in range(4)])
    f, p = observables.haar_conditional_fidelity(lam, traces, U)
    for m in range(4):
        X = haar_states(20000, 4, np.random.default_rng(40 + m))
        W = np.einsum("si,sj->sij", X, X.conj())
        tgt = X @ U[m].T
        num = np.einsum("sa,sij,ijab,sb->s", tgt.conj(), W, lam[m].reshape(4, 4, 4, 4), tgt).real
        succ = np.einsum("sij,ij->s", W, traces[m].reshape(4, 4)).real
        ratio = num / succ
        assert abs(f[m] ** 2 - ratio.mean()) < 3.0 * ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(p[m] - succ.mean()) < 3.0 * succ.std(ddof=1) / math.sqrt(succ.size)


def test_exact_conditional_fidelity_is_converged_in_the_step_and_span(monkeypatch):
    # min p_i / max p_i runs from 0.9 down to 1e-300 over the samples.
    rng = np.random.default_rng(32)
    low = np.array([0.9, 0.1, 1e-2, 1e-6, 1e-30, 1e-300])
    p = np.column_stack([np.ones(6), rng.uniform(0.1, 1.0, (6, 2)), low])
    lam, traces = _random_conserving_blocks(rng, 6, p=p)
    U = np.stack([_random_unitary(rng) for _ in range(6)])
    base = observables.haar_conditional_fidelity(lam, traces, U)[0]
    for step, span in ((0.2, 40.0), (0.4, 60.0), (0.2, 60.0)):
        monkeypatch.setattr(observables, "_HAAR_STEP", step)
        monkeypatch.setattr(observables, "_HAAR_SPAN", span)
        finer = observables.haar_conditional_fidelity(lam, traces, U)[0]
        assert np.max(np.abs(finer - base)) <= 1e-15


def test_exact_conditional_fidelity_batches_and_returns_scalars():
    rng = np.random.default_rng(33)
    lam, traces = _random_conserving_blocks(rng, 6)
    U = np.stack([_random_unitary(rng) for _ in range(6)])
    f, p = observables.haar_conditional_fidelity(lam, traces, U)
    assert f.shape == p.shape == (6,)
    for m in range(6):
        one = observables.haar_conditional_fidelity(lam[m], traces[m], U[m])
        assert type(one[0]) is float and type(one[1]) is float
        assert one == pytest.approx((f[m], p[m]), rel=1e-14)
    grid = observables.haar_conditional_fidelity(
        lam.reshape(3, 2, 16, 4, 4), traces.reshape(3, 2, 16), U.reshape(3, 2, 4, 4)
    )
    assert np.allclose(grid[0].reshape(6), f, rtol=1e-14, atol=0.0)


def test_exact_conditional_fidelity_scores_each_sample_as_it_scores_it_alone():
    # 13 samples scored together, each alone and in chunks: the quadrature
    # is summed row by row, so a sample's bits do not depend on the others.
    rng = np.random.default_rng(34)
    lam, traces = _random_conserving_blocks(rng, 13)
    U = np.stack([_random_unitary(rng) for _ in range(13)])
    f, p = observables.haar_conditional_fidelity(lam, traces, U)
    for m in range(13):
        assert observables.haar_conditional_fidelity(lam[m], traces[m], U[m]) == (f[m], p[m])
    for at in (slice(0, 1), slice(1, 3), slice(3, 10), slice(10, 13)):
        f_at, p_at = observables.haar_conditional_fidelity(lam[at], traces[at], U[at])
        assert f_at.tobytes() == f[at].tobytes() and p_at.tobytes() == p[at].tobytes()


def test_exact_conditional_fidelity_guards_name_the_time_sample():
    series = np.repeat(_units()[None], 3, axis=0)
    traces = np.repeat(np.eye(4, dtype=complex).reshape(1, 16), 3, axis=0)
    haar = observables.haar_conditional_fidelity
    bad = traces.copy()
    bad[1, 7] = 1e-11
    with pytest.raises(ValueError, match="off-diagonal .* above 1e-12 at time sample 1;"):
        haar(series, bad, np.eye(4))
    bad[1, 7] = 1e-13
    assert haar(series, bad, np.eye(4))[0][1] == 1.0
    bad = traces.copy()
    bad[2, 15] = 0.0
    with pytest.raises(ValueError, match=r"probability 0\.0 is not positive at time sample 2;"):
        haar(series, bad, np.eye(4))
    bad[2, 15] = -1e-17
    with pytest.raises(ValueError, match="-1e-17 is not positive at time sample 2;"):
        haar(series, bad, np.eye(4))
    with pytest.raises(ValueError, match=r"probability 0\.0 is not positive at time sample 0;"):
        haar(0.0 * series, 0.0 * traces, np.eye(4))
    # Any positive probability is scored: the filter ψ -> diag(√q)ψ that
    # all but loses one input scores as one that loses it outright.
    q = np.array([1.0, 1.0, 1.0, 1e-12])
    lossy = series.copy()
    lossy[2] *= np.sqrt(np.outer(q, q)).reshape(16, 1, 1)
    bad[2, 15] = q[3]
    assert haar(lossy, bad, np.eye(4))[0][2] == pytest.approx(math.sqrt(0.75), abs=1e-5)
    over = series.copy()
    over[2] *= 1.0 + 1e-11
    with pytest.raises(ValueError, match="exceeds 1 at time sample 2;"):
        haar(over, traces, np.eye(4))
    over[2] = (1.0 + 1e-13) * _units()
    assert haar(over, traces, np.eye(4))[0][2] == 1.0
    nan = traces.copy()
    nan[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite no-jump trace at time sample 1$"):
        haar(series, nan, np.eye(4))
    with pytest.raises(ValueError, match=r"full_traces has shape \(2, 16\)"):
        haar(series, traces[:2], np.eye(4))
