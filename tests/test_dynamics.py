"""Propagation engines, conditional evolution and stationary states."""
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from eitgate import basis, dynamics, ladder, mscheme, observables

from _support import CLOSED_PARAMS, RICH_PARAMS, random_density, traced_peak

BARE = mscheme.MSchemeParams(N_a=1.0)


def _ket(atom, n_p, n_t):
    psi = np.zeros(basis.M_DIM, dtype=complex)
    psi[basis.M_STATES.index((atom, n_p, n_t))] = 1.0
    return psi


def test_pure_decay_matches_exponential_law():
    p = replace(BARE, gamma23=0.8)
    psi = (_ket("G", 0, 0) + _ket("E2", 0, 0)) / math.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(0.0, 3.0, 61)
    for method in ("exponential", "adaptive-rk"):
        traj = dynamics.evolve(p, rho0, times, method=method, rel_tol=1e-10, abs_tol=1e-13)
        e2 = basis.M_STATES.index(("E2", 0, 0))
        pop = traj[:, e2, e2].real
        coh = traj[:, 0, e2]
        ground = traj[:, 0, 0].real
        assert np.allclose(pop, 0.5 * np.exp(-0.8 * times), atol=1e-8)
        assert np.allclose(ground, 1.0 - 0.5 * np.exp(-0.8 * times), atol=1e-8)
        # Population decays at gamma, the coherence to the ground state at gamma/2.
        assert np.allclose(coh, 0.5 * np.exp(-0.4 * times), atol=1e-8)


def test_pure_dephasing_damps_coherence_at_half_rate():
    p = replace(BARE, gamma_deph_2=0.6)
    psi = (_ket("G", 0, 0) + _ket("E2", 0, 0)) / math.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(0.0, 4.0, 41)
    traj = dynamics.evolve(p, rho0, times)
    e2 = basis.M_STATES.index(("E2", 0, 0))
    assert np.allclose(traj[:, e2, e2].real, 0.5, atol=1e-10)
    assert np.allclose(traj[:, 0, 0].real, 0.5, atol=1e-10)
    assert np.allclose(traj[:, 0, e2], 0.5 * np.exp(-0.3 * times), atol=1e-9)


def test_classical_coupling_rabi_oscillation():
    p = replace(BARE, Omega1=1.3)
    rho0 = np.outer(_ket("E2", 0, 0), _ket("E2", 0, 0).conj())
    times = np.linspace(0.0, 2.0, 81)
    traj = dynamics.evolve(p, rho0, times)
    e1 = basis.M_STATES.index(("E1", 0, 0))
    assert np.allclose(traj[:, e1, e1].real, np.sin(1.3 * times) ** 2, atol=1e-9)


def test_photon_conversion_rabi_with_bosonic_enhancement():
    # g sqrt(N) = 1; the two-photon branch oscillates sqrt(2) faster.
    p = replace(BARE, N_a=4.0, g_p=0.5)
    times = np.linspace(0.0, 2.0, 81)
    one = np.outer(_ket("G", 1, 0), _ket("G", 1, 0).conj())
    traj = dynamics.evolve(p, one, times)
    e2 = basis.M_STATES.index(("E2", 0, 0))
    assert np.allclose(traj[:, e2, e2].real, np.sin(times) ** 2, atol=1e-9)
    two = np.outer(_ket("G", 2, 0), _ket("G", 2, 0).conj())
    traj2 = dynamics.evolve(p, two, times)
    e2b = basis.M_STATES.index(("E2", 1, 0))
    assert np.allclose(
        traj2[:, e2b, e2b].real, np.sin(math.sqrt(2.0) * times) ** 2, atol=1e-9
    )


def test_engines_agree_on_generic_open_dynamics():
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    rho0 = dynamics.superposition_input([0.5, 0.5, 0.5, 0.5])
    times = np.linspace(0.0, 1.0, 51)
    a = dynamics.evolve_superoperator(L, rho0, times, method="exponential")
    b = dynamics.evolve_superoperator(
        L, rho0, times, method="adaptive-rk", rel_tol=1e-10, abs_tol=1e-13
    )
    assert np.max(np.abs(a - b)) < 1e-6


def test_exponential_engine_is_a_semigroup():
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    rho0 = dynamics.superposition_input([1.0, 0.0, 1.0, 0.5])
    direct = dynamics.evolve_superoperator(L, rho0, np.array([0.0, 0.2, 0.4]))
    stepped = dynamics.evolve_superoperator(L, direct[1], np.array([0.2, 0.4]))
    assert np.allclose(direct[2], stepped[1], atol=1e-12)


def test_batch_propagation_matches_single_states():
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    rng = np.random.default_rng(3)
    batch = np.stack([random_density(18, rng) for _ in range(3)])
    times = np.linspace(0.0, 0.5, 11)
    together = dynamics.evolve_superoperator(L, batch, times)
    assert together.shape == (11, 3, 18, 18)
    for k in range(3):
        alone = dynamics.evolve_superoperator(L, batch[k], times)
        assert np.allclose(together[:, k], alone, atol=1e-12)


def test_trace_and_positivity_preserved_on_generic_evolution():
    times = np.linspace(0.0, 2.0, 41)
    rho0 = dynamics.superposition_input([0.5, 0.5j, -0.5, 0.5])
    traj = dynamics.evolve(RICH_PARAMS, rho0, times)
    traces = np.einsum("taa->t", traj).real
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    for rho in traj[::8]:
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        assert w.min() > -1e-9


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
def test_time_grid_validation(method):
    L = dynamics.build_liouvillian_for(BARE)
    rho0 = np.eye(18, dtype=complex) / 18.0
    with pytest.raises(ValueError):
        dynamics.evolve_superoperator(L, rho0, np.array([0.0, 0.1, 0.05]), method=method)
    with pytest.raises(ValueError):
        dynamics.evolve_superoperator(L, np.zeros((3, 4)), np.array([0.0, 0.1]), method=method)


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("times", [
    [0.0, 1.0, np.inf], [0.0, np.inf, np.inf], [0.0, np.nan, 2.0], [-np.inf, 0.0, 1.0],
    [0.0, 0.1, 0.1], [0.0, 0.1, 0.05],
])
def test_non_finite_or_unordered_times_rejected_before_propagating(monkeypatch, method, times):
    # Once, for either method, before any block is built: adaptive-rk
    # would integrate towards an infinite end time without returning.
    def never(*args, **kwargs):
        raise AssertionError("built a block on a bad time grid")

    monkeypatch.setattr(dynamics, "_plan", never)
    L = dynamics.build_liouvillian_for(BARE)
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        dynamics.evolve_superoperator(L, np.eye(18) / 18.0, np.array(times), method=method)


def test_exponential_engine_rejects_nonuniform_grid():
    L = dynamics.build_liouvillian_for(BARE)
    rho0 = np.eye(18, dtype=complex) / 18.0
    times = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        dynamics.evolve_superoperator(L, rho0, times)
    out = dynamics.evolve_superoperator(L, rho0, times, method="adaptive-rk")
    assert out.shape == (3, 18, 18)


@pytest.mark.parametrize("times", [[0.0], [0.0, 0.1]])
def test_unknown_method_rejected(times):
    L = dynamics.build_liouvillian_for(BARE)
    with pytest.raises(ValueError, match="euler"):
        dynamics.evolve_superoperator(L, np.eye(18) / 18.0, np.array(times), method="euler")


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("tols", [{"rel_tol": 0.0}, {"rel_tol": -1.0}, {"abs_tol": 0.0}])
def test_non_positive_tolerance_rejected_before_propagating(monkeypatch, method, tols):
    def never(*args, **kwargs):
        raise AssertionError("propagated with a non-positive tolerance")

    monkeypatch.setattr(dynamics, "_plan", never)
    L = dynamics.build_liouvillian_for(BARE)
    with pytest.raises(ValueError, match=f"{next(iter(tols))} must be positive"):
        dynamics.evolve_superoperator(
            L, np.eye(18) / 18.0, np.array([0.0, 0.1]), method=method, **tols
        )


def test_mismatched_superoperator_dimension_rejected():
    with pytest.raises(ValueError):
        dynamics.evolve_superoperator(np.eye(16), np.eye(18) / 18.0, np.array([0.0, 0.1]))


def test_basis_units_are_the_diagonal_matrix_units():
    E = dynamics.matrix_units(range(4), 4)
    diagonal = [k for k in range(16) if np.trace(E[k]) == 1]
    assert list(dynamics.BASIS_UNITS) == diagonal == [0, 5, 10, 15]
    assert dynamics.BASIS_LABELS == ("|00>", "|01>", "|10>", "|11>")


def _conditional(p, mode="lindblad"):
    return dynamics.conditional_generator(
        mscheme.build_hamiltonian(p), mscheme.build_jump_channels(p), mode
    )


def test_conditional_trace_is_nonincreasing_and_bounded():
    rho0 = dynamics.superposition_input([0.5, 0.5, 0.5, 0.5])
    times = np.linspace(0.0, 2.0, 41)
    traj = dynamics.evolve_superoperator(_conditional(RICH_PARAMS), rho0, times)
    traces = np.einsum("taa->t", traj).real
    assert traces[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(traces) <= 1e-12)
    assert traces[-1] > 0.0


def test_conditional_without_any_channels_is_unitary():
    rho0 = dynamics.superposition_input([1.0, 1.0, 0.0, 1.0])
    times = np.linspace(0.0, 1.0, 21)
    traj = dynamics.evolve_superoperator(_conditional(CLOSED_PARAMS), rho0, times)
    traces = np.einsum("taa->t", traj).real
    assert np.allclose(traces, 1.0, atol=1e-10)


def test_dephasing_mode_switch_changes_conditional_trace():
    # With the dissipator kept, pure dephasing does not reduce the trace;
    # moved into the drift it damps it at the full rate.
    p = replace(BARE, gamma_deph_2=0.5)
    rho0 = np.zeros((18, 18), dtype=complex)
    rho0[2, 2] = 1.0
    times = np.linspace(0.0, 2.0, 21)
    kept = dynamics.evolve_superoperator(_conditional(p, "lindblad"), rho0, times)
    moved = dynamics.evolve_superoperator(_conditional(p, "excluded"), rho0, times)
    assert np.allclose(np.einsum("taa->t", kept).real, 1.0, atol=1e-10)
    assert np.allclose(np.einsum("taa->t", moved).real, np.exp(-0.5 * times), atol=1e-9)
    with pytest.raises(ValueError):
        _conditional(p, "drop")


def test_choi_inputs_are_qubit_matrix_units():
    E = dynamics.matrix_units(basis.QUBIT_M_INDICES, basis.M_DIM)
    assert E.shape == (16, 18, 18)
    for i, a in enumerate(basis.QUBIT_M_INDICES):
        for j, b in enumerate(basis.QUBIT_M_INDICES):
            expected = np.zeros((18, 18))
            expected[a, b] = 1.0
            assert np.array_equal(E[4 * i + j], expected)


def test_superposition_input_is_normalized_pure_state():
    rho = dynamics.superposition_input([2.0, 0.0, 0.0, 2.0j])
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho @ rho, rho, atol=1e-12)
    assert rho[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        dynamics.superposition_input([0.0, 0.0, 0.0, 0.0])


def test_gate_trajectories_reconstruct_superposition_by_linearity():
    amps = np.array([0.5, -0.5j, 0.5, 0.5j])
    times = np.linspace(0.0, 0.6, 13)
    gt = dynamics.evolve_gate_inputs(RICH_PARAMS, times, amps)
    direct = dynamics.evolve(RICH_PARAMS, dynamics.superposition_input(amps), times)
    assert np.max(np.abs(gt.superposition - direct)) < 1e-10


def _field_blocks(rho):
    return observables.qubit_block(observables.reduce_to_fields(rho))


def _trace(rho):
    return np.trace(rho, axis1=-2, axis2=-1)


_LADDER_REF = ladder.LadderParams(N_a=9, g_p=0.4, g_t=0.5, delta_p=1.2, delta_t=0.7, n_max=2)


def _readouts(model):
    """States of a medium, and (map, size, dense readout) of each CLI
    readout, the dense readout giving the map's (..., size) cells."""
    if model == "five-level":
        states, qubit, edge = basis.M_STATES, _field_blocks, []
    else:
        states = ladder.ladder_states(2)

        def qubit(rho):
            return ladder.photon_qubit_block(ladder.reduce_to_photons(rho, 2), 2)

        edge = [(basis.edge_cells(states), 1,
                 lambda rho: ladder.boundary_population(rho, 2)[..., None])]
    return states, [
        (basis.qubit_cells(states), 16, lambda rho: qubit(rho).reshape(rho.shape[:-2] + (16,))),
        (basis.population_cells(states), len(states), observables.populations),
        (basis.trace_cells(states), 1, lambda rho: _trace(rho)[..., None]),
    ] + edge


@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_each_map_is_its_dense_readout_of_the_matrix_units(model):
    # The dense readout of |a><b| is the one-hot row of its map entry
    # a + n*b, so an image through the map is the one the dense readout
    # of the units gives, bit for bit.
    states, readouts = _readouts(model)
    n = len(states)
    e = np.arange(n * n)
    units = np.zeros((n * n, n, n), dtype=complex)
    units[e, e % n, e // n] = 1.0
    for cells, size, f in readouts:
        assert cells.shape == (n * n,)
        assert cells.max() + 1 == size  # the image size GateTrajectories.image takes
        assert np.array_equal(f(units), cells[:, None] == np.arange(size))


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_image_equals_readout_of_the_dense_states(model, method):
    times = np.linspace(0.0, 0.3, 7)
    amps = [0.5, -0.5j, 0.5, 0.5j]
    states, readouts = _readouts(model)
    for conditional in (False, True):
        if model == "five-level":
            gt = dynamics.evolve_gate_inputs(
                RICH_PARAMS, times, amps, method=method, conditional=conditional
            )
        else:
            gt = ladder.evolve_ladder_gate(
                _LADDER_REF, times, amps, method=method, conditional=conditional
            )
        dense = gt.unit_inputs
        assert dense.shape == (7, 16, len(states), len(states))
        for cells, size, f in readouts:
            want, got = f(dense), gt.image(cells)
            if np.isrealobj(want):  # a readout taking .real is only real-linear
                got = got.real
            assert got.shape == want.shape
            if size == len(states):  # one entry per cell: nothing to sum
                assert np.array_equal(got, want)
            # Elsewhere the dense readouts sum the entries in another order.
            assert np.max(np.abs(got - want)) < 1e-14


def _gate(model, times, amps, **kw):
    if model == "five-level":
        return basis.M_STATES, dynamics.evolve_gate_inputs(RICH_PARAMS, times, amps, **kw)
    states = ladder.ladder_states(_LADDER_REF.n_max)
    return states, ladder.evolve_ladder_gate(_LADDER_REF, times, amps, **kw)


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_superposed_populations_are_bitwise_the_weighted_unit_images(model, method):
    # The CLI reads the populations with the units summed before the map;
    # each population cell takes one entry, so the bits are those of the
    # weighted sum of the sixteen unit images.
    for conditional in (False, True):
        states, gt = _gate(model, np.linspace(0.0, 0.3, 7), [0.5, -0.5j, 0.3, 0.6j],
                           method=method, conditional=conditional)
        cells = basis.population_cells(states)
        want = np.einsum("k,tki->ti", gt.weights, gt.image(cells))
        got = gt.image(cells, superposed=True)
        assert got.shape == (7, len(states))
        assert got.tobytes() == want.tobytes()
        diagonal = np.einsum("tii->ti", gt.superposition)
        assert np.array_equal(got, diagonal)


@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_superposed_populations_never_hold_the_unit_images(model):
    # The superposed readout holds one block's weighted sum at a time,
    # never the (T, 16, n) unit-resolved image the per-unit route makes.
    # At T 201 the traced peaks are about 0.39 and 0.43 MB against images
    # of 0.93 and 1.39 MB.
    T = 201
    states, gt = _gate(model, np.linspace(0.0, 0.3, T), [0.5, -0.5j, 0.3, 0.6j])
    cells = basis.population_cells(states)
    unit_image = T * 16 * len(states) * 16

    assert traced_peak(gt.image, cells)[1] >= unit_image
    superposed = traced_peak(lambda: gt.image(cells, superposed=True))[1]
    assert superposed < unit_image, f"traced peak {superposed} B of {unit_image} B"


def test_superposed_image_matches_the_superposition_readout():
    times = np.linspace(0.0, 0.6, 13)
    gt = dynamics.evolve_gate_inputs(RICH_PARAMS, times, [0.8, -0.2j, 0.4, 0.3])
    blocks = gt.image(basis.qubit_cells(basis.M_STATES)).reshape(13, 16, 4, 4)
    via_image = np.einsum("k,tkab->tab", gt.weights, blocks)
    assert np.max(np.abs(via_image - _field_blocks(gt.superposition))) < 1e-14


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_an_image_reads_each_sample_as_it_reads_it_alone(model, method):
    # Every map, per unit and superposed, read on 13 samples, on each one
    # alone and on chunks of them: a cell sums its entries in one order
    # whatever the number of samples read with it.
    times = np.linspace(0.0, 0.3, 13)
    _, readouts = _readouts(model)
    spans = [slice(m, m + 1) for m in range(13)] + [slice(0, 2), slice(2, 9), slice(9, 13)]
    for conditional in (False, True):
        _, gt = _gate(model, times, [0.5, -0.5j, 0.3, 0.6j], method=method,
                      conditional=conditional)
        for (cells, _, _), superposed in itertools.product(readouts, (False, True)):
            whole = gt.image(cells, superposed=superposed)
            for at in spans:
                part = replace(gt, times=times[at], blocks=tuple(
                    (units, entries, Y[at]) for units, entries, Y in gt.blocks
                ))
                assert part.image(cells, superposed=superposed).tobytes() == whole[at].tobytes()


def test_non_finite_propagation_names_the_first_time_sample():
    # Three one-entry blocks growing at rates 0, 1000 and 1500 over steps
    # of 0.25: e^750 overflows, at time sample 3 in the second block and
    # at 2 in the third.
    L = sp.csr_matrix(np.diag([0.0, 1000.0, 1500.0]))
    times = np.linspace(0.0, 1.0, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite at time sample 2$"):
            dynamics.propagate_stack(L, np.eye(3, dtype=complex), times)(0)
    dynamics.propagate_stack(L, np.eye(3, dtype=complex)[:, :2], times[:3])(0)


def test_single_matrix_entry_points_refuse_a_stack():
    # evolve_superoperator propagated matrix 0 of the stack; toarray and
    # steady_state raised IndexError.
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    stack = L._replace(data=np.stack([L.data] * 3))
    shape = rf"data of shape \(3, {L.nnz}\)"
    rho0 = np.zeros((basis.M_DIM, basis.M_DIM), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ValueError, match=shape):
        dynamics.evolve_superoperator(stack, rho0, np.linspace(0.0, 0.1, 3))
    with pytest.raises(ValueError, match=shape):
        stack.toarray()
    with pytest.raises(ValueError, match=shape):
        dynamics.steady_state(stack)
    # Matrix k of the stack is still a matrix.
    assert np.array_equal(stack._replace(data=stack.data[2]).toarray(), L.toarray())


def test_steady_state_of_cascading_model_is_photon_vacuum():
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    rho = dynamics.steady_state(L)
    expected = np.zeros((18, 18))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-7)


def test_steady_state_requires_unique_kernel():
    # Without any coupling or decay every state is stationary.
    with pytest.raises(ValueError):
        dynamics.steady_state(dynamics.build_liouvillian_for(BARE))


GATE_POINT = replace(
    RICH_PARAMS, N_a=1e8, g_p=0.0022, g_t=0.0022, Omega1=4.0, Omega4=4.0,
    delta2=15.0, delta3=15.0, eps12=0.01, eps34=0.01,
)
LADDER_POINT = dict(N_a=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0)


def _qubit_unit_seeds(positions, n):
    return [a + n * b for a in positions for b in positions]


def _dense_expm_run(L, rho0, times):
    # Reference: the full dense generator exponentiated and stepped in
    # vec space, with no restriction to a reachable set.
    import scipy.linalg

    k, n = rho0.shape[0], rho0.shape[1]
    P = scipy.linalg.expm(L.toarray() * (times[1] - times[0]))
    V = rho0.transpose(0, 2, 1).reshape(k, n * n).T
    out = [V]
    for _ in times[1:]:
        V = P @ V
        out.append(V)
    return np.stack([v.T.reshape(k, n, n).transpose(0, 2, 1) for v in out])


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("model", ["five-level", "ladder"])
def test_restricted_propagation_matches_full_dense_expm(model, method):
    if model == "five-level":
        L = dynamics.build_liouvillian_for(GATE_POINT)
        positions = basis.QUBIT_M_INDICES
    else:
        L = ladder.build_ladder_liouvillian(
            ladder.LadderParams(**LADDER_POINT, n_max=2, convention="absorptive")
        )
        positions = ladder.qubit_positions(2)
    n = math.isqrt(L.shape[0])
    units = dynamics.matrix_units(positions, n)
    # A short window keeps the Runge-Kutta error below the bound.
    times = np.linspace(0.0, 0.02, 11)
    got = dynamics.evolve_superoperator(
        L, units, times, method=method, rel_tol=1e-13, abs_tol=1e-16
    )
    assert np.max(np.abs(got - _dense_expm_run(L, units, times))) < 1e-13
    outside = np.ones(n * n, dtype=bool)
    outside[dynamics.reachable(L, _qubit_unit_seeds(positions, n))] = False
    vec_traj = got.transpose(0, 1, 3, 2).reshape(times.size, 16, n * n)
    assert outside.any()
    assert np.all(vec_traj[:, :, outside] == 0)


def test_reached_sizes_of_the_qubit_units():
    L = dynamics.build_liouvillian_for(GATE_POINT)
    seeds = _qubit_unit_seeds(basis.QUBIT_M_INDICES, basis.M_DIM)
    assert dynamics.reachable(L, seeds).size == 198
    for n_max, convention, size in [(n, "absorptive", 124) for n in range(3, 9)] + [
        (8, "as-printed", 1027)
    ]:
        p = ladder.LadderParams(**LADDER_POINT, n_max=n_max, convention=convention)
        seeds = _qubit_unit_seeds(ladder.qubit_positions(n_max), ladder.ladder_dim(n_max))
        assert dynamics.reachable(ladder.build_ladder_liouvillian(p), seeds).size == size


def test_reachable_set_is_closed_under_the_generator():
    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    R = dynamics.reachable(L, [0])
    outside = np.setdiff1d(np.arange(L.shape[0]), R)
    assert R[0] == 0 and outside.size > 0
    assert sp.csr_matrix(L)[outside][:, R].count_nonzero() == 0


def test_explicit_stored_zero_is_no_edge():
    # Column 0 feeds row 1 through 1.0 and row 2 only through a stored 0.0.
    L = mscheme.Superoperator(
        np.array([-1.0, 1.0, -1.0, 0.0, 2.0], complex),
        np.array([0, 0, 1, 0, 2]),
        np.array([0, 1, 3, 5]),
    )
    assert np.array_equal(dynamics.reachable(L, [0]), [0, 1])
    blocks = dynamics.propagate_stack(L, np.eye(3, 1, dtype=complex), np.linspace(0.0, 1.0, 3))(0)
    assert [e.tolist() for _, e, _ in blocks] == [[0, 1]]


def test_non_finite_entry_is_an_edge_and_hides_no_other():
    # Row 1 holds 1.0 from column 0 and NaN from column 2: both are edges,
    # so 1 is reached from 0, and so is 1 from 2.
    L = np.zeros((3, 3), complex)
    L[1, 0], L[1, 2] = 1.0, np.nan
    assert np.array_equal(dynamics.reachable(sp.csr_matrix(L), [0]), [0, 1])
    assert np.array_equal(dynamics.reachable(sp.csr_matrix(L), [2]), [1, 2])


# The benchmark's gate-transient point (the config defaults plus the
# criterion-1 couplings) and its absorptive ladder at n_max 3.
TRANSIENT_CFG = dict(
    n_atoms=1e8, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0,
    delta2=15.0, delta3=15.0, eps12=0.01, eps34=0.01,
)
LADDER_ABSORPTIVE = ladder.LadderParams(
    **LADDER_POINT, gamma21=1.0, gamma32=1.0, n_max=3, convention="absorptive"
)


def _transient_params():
    from eitgate import cli

    return cli.params_from_config({**cli.DEFAULTS, **TRANSIENT_CFG})


def _unit_generator(model):
    """(generator, qubit positions, times) of the four pinned maps."""
    if model == "ladder":
        L = ladder.build_ladder_liouvillian(LADDER_ABSORPTIVE)
        return L, ladder.qubit_positions(3), np.linspace(0.0, 0.25, 126)
    if model == "ladder conditional":
        L = dynamics.conditional_generator(
            ladder.build_ladder_hamiltonian(LADDER_ABSORPTIVE),
            ladder.build_ladder_channels(LADDER_ABSORPTIVE),
        )
        return L, ladder.qubit_positions(3), np.linspace(0.0, 0.25, 126)
    p = _transient_params()
    if model == "conditional":
        L = dynamics.conditional_generator(
            mscheme.build_hamiltonian(p), mscheme.build_jump_channels(p)
        )
    else:
        L = dynamics.build_liouvillian_for(p)
    return L, basis.QUBIT_M_INDICES, np.linspace(0.0, 1.0, 401)


def _union_reference(L, V, times):
    # The whole reached block L[R, R] exponentiated densely and stepped:
    # Y (T,k,|R|) with every column on every reached entry; scipy slices it.
    import scipy.linalg

    R = dynamics.reachable(L, np.flatnonzero(V.any(axis=1)))
    P = scipy.linalg.expm(sp.csr_matrix(L)[R][:, R].toarray() * (times[1] - times[0]))
    Y = [V[R]]
    for _ in times[1:]:
        Y.append(P @ Y[-1])
    return R, np.stack(Y).transpose(0, 2, 1)


def _units_as_columns(positions, n):
    return np.stack([mscheme.vec(E) for E in dynamics.matrix_units(positions, n)], axis=1)


@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder"])
def test_blocks_match_the_union_propagation(model):
    L, positions, times = _unit_generator(model)
    V = _units_as_columns(positions, math.isqrt(L.shape[0]))
    R_ref, Y_ref = _union_reference(L, V, times)
    blocks = dynamics.propagate_stack(L, V, times)(0)
    assert np.array_equal(np.sort(np.concatenate([e for _, e, _ in blocks])), R_ref)
    union = np.zeros_like(Y_ref)
    for units, entries, Y in blocks:
        assert Y.flags.owndata
        union[:, units[:, None], np.searchsorted(R_ref, entries)] = Y
    assert np.max(np.abs(union - Y_ref)) < 1e-14


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder", "ladder conditional"])
def test_a_run_in_chunks_is_the_whole_run_bit_for_bit(model, method, chunk):
    # Chunks of one sample, and of seven, which divides neither 30 nor 15
    # samples. Each chunk's arrays are its own.
    L, positions, times = _unit_generator(model)
    times = times[:30] if method == "exponential" else times[:30:2]
    V = _units_as_columns(positions, math.isqrt(L.shape[0]))
    run = dynamics.propagate_stack(L, V, times, method=method)
    whole, chunks = run(0), list(run(0, chunk))
    sizes = [min(chunk, times.size - start) for start in range(0, times.size, chunk)]
    assert [blocks[0][2].shape[0] for blocks in chunks] == sizes and len(sizes) > 1
    for i, (units, entries, Y) in enumerate(whole):
        parts = [blocks[i] for blocks in chunks]
        for (u, e, Yc), size in zip(parts, sizes):
            assert np.array_equal(u, units) and np.array_equal(e, entries)
            assert Yc.flags.owndata and Yc.shape == (size,) + Y.shape[1:]
        assert np.concatenate([Yc for _, _, Yc in parts]).tobytes() == Y.tobytes()


def test_adaptive_rk_refuses_a_rel_tol_below_its_solvers_least():
    # scipy's RK45 raises a smaller rtol to 100 eps with a warning; the
    # exponential engine reads no rel_tol and takes any positive one.
    L = sp.csr_matrix(np.diag([0.0, -1.0, -1.0, -2.0]))
    rho0, times = np.diag([0.5, 0.5]).astype(complex), np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match=(
        r"^rel_tol must be at least 2\.220446049250313e-14 for adaptive-rk, got 1e-15$"
    )):
        dynamics.evolve_superoperator(L, rho0, times, method="adaptive-rk", rel_tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        least = dynamics.evolve_superoperator(
            L, rho0, times, method="adaptive-rk", rel_tol=2.220446049250313e-14
        )
        assert np.allclose(least[-1], np.diag([0.5, 0.5 * math.exp(-2.0)]), atol=1e-12)
        dynamics.evolve_superoperator(L, rho0, times, rel_tol=1e-300)


def test_a_run_in_chunks_names_the_first_non_finite_sample():
    # As test_non_finite_propagation_names_the_first_time_sample: sample 2
    # overflows, in the second chunk of two samples, which is never handed out.
    L = sp.csr_matrix(np.diag([0.0, 1000.0, 1500.0]))
    chunks = dynamics.propagate_stack(L, np.eye(3, dtype=complex), np.linspace(0.0, 1.0, 5))(0, 2)
    assert next(chunks)[0][2].shape == (2, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite at time sample 2$"):
            next(chunks)


@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder", "ladder conditional"])
def test_unit_stack_writes_the_unit_columns_in_place(model, monkeypatch):
    # The columns of the matrix_units tensor, transposed and reshaped, are
    # the reference: qubit_unit_stack writes their ones in place and its
    # blocks are a run on them bit for bit, holding one (n², 16) array.
    L, positions, times = _unit_generator(model)
    n = math.isqrt(L.shape[0])
    columns = dynamics.matrix_units(positions, n).transpose(0, 2, 1).reshape(16, n * n).T
    want = dynamics.propagate_stack(L, columns, times)(0)

    def never(*args, **kwargs):
        raise AssertionError("formed the (16, n, n) unit tensor")

    monkeypatch.setattr(dynamics, "matrix_units", never)
    evolve, peak = traced_peak(dynamics.qubit_unit_stack, L, positions, times)
    assert peak < 1.5 * columns.nbytes, f"traced peak {peak} B, columns {columns.nbytes} B"
    got = evolve(0).blocks
    assert len(got) == len(want)
    for (u, e, Y), (u_ref, e_ref, Y_ref) in zip(got, want):
        assert np.array_equal(u, u_ref) and np.array_equal(e, e_ref)
        assert Y.shape == Y_ref.shape and Y.tobytes() == Y_ref.tobytes()


def test_superposition_column_is_split_over_the_blocks_it_touches():
    L, _, times = _unit_generator("unconditional")
    rho0 = dynamics.superposition_input([0.5, -0.5j, 0.5, 0.5j])
    got = dynamics.evolve_superoperator(L, rho0, times)
    R, Y = _union_reference(L, mscheme.vec(rho0)[:, None], times)
    want = np.zeros((times.size, basis.M_DIM**2), dtype=complex)
    want[:, R] = Y[:, 0]
    want = want.reshape(times.size, basis.M_DIM, basis.M_DIM).transpose(0, 2, 1)
    assert np.max(np.abs(got - want)) < 1e-14
    blocks = dynamics.propagate_stack(L, mscheme.vec(rho0)[:, None], times[:2])(0)
    assert len(blocks) > 1 and all(np.array_equal(u, [0]) for u, _, _ in blocks)


def test_adaptive_rk_propagates_the_reached_set_as_one_block():
    L, positions, _ = _unit_generator("unconditional")
    V = _units_as_columns(positions, basis.M_DIM)
    R = dynamics.reachable(L, np.flatnonzero(V.any(axis=1)))
    [(units, entries, Y)] = dynamics.propagate_stack(
        L, V, np.linspace(0.0, 0.01, 3), method="adaptive-rk"
    )(0)
    assert np.array_equal(units, np.arange(16)) and np.array_equal(entries, R)
    assert Y.shape == (3, 16, R.size) and Y.flags.owndata


@pytest.mark.parametrize("model, blocks, entries", [
    # (|block|, units) of every connected component, largest first
    ("unconditional", [(62, 4)] + [(27, 2)] * 4 + [(9, 1)] * 2 + [(5, 1)] * 2, 492),
    ("conditional", None, 144),
    ("ladder", [(28, 4)] + [(18, 2)] * 2 + [(13, 2)] * 2 + [(9, 1)] * 2 + [(8, 1)] * 2, 270),
])
def test_component_structure_and_packed_size(model, blocks, entries):
    L, positions, times = _unit_generator(model)
    gt = dynamics.qubit_unit_stack(L, positions, times)(0)
    got = sorted(((e.size, units.size) for units, e, _ in gt.blocks), reverse=True)
    if model == "conditional":  # one component per matrix unit
        assert len(got) == 16 and {k for _, k in got} == {1}
    else:
        assert got == blocks
    # Each unit and each reached entry lies in exactly one component, and
    # only the columns of its units are kept.
    held = np.sort(np.concatenate([units for units, _, _ in gt.blocks]))
    assert np.array_equal(held, np.arange(16))
    R = dynamics.reachable(L, _qubit_unit_seeds(positions, gt.dim))
    assert np.array_equal(np.sort(np.concatenate([e for _, e, _ in gt.blocks])), R)
    assert sum(e.size * units.size for units, e, _ in gt.blocks) == entries
    assert sum(Y.size for _, _, Y in gt.blocks) == times.size * entries


def _scipy_components(L, R):
    # scipy's undirected connected components of L[R, R] along nonzero
    # entries, labelled in the order of their smallest index.
    from scipy.sparse.csgraph import connected_components

    S = sp.csr_matrix(L)[R][:, R]
    S.eliminate_zeros()  # NaN stays: it is no zero
    pattern = sp.csr_matrix((np.ones(S.nnz), S.indices, S.indptr), shape=S.shape)
    count, label = connected_components(pattern, directed=False)
    return [R[label == k] for k in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_components_are_scipys_connected_components(seed):
    # Random sparse graphs with stored zeros (no edge), NaN entries (an
    # edge), isolated nodes and a 60-node path.
    rng = np.random.default_rng(seed)
    n = 200
    M = sp.random(n, n, density=0.004, random_state=rng, format="lil") * (1 + 1j)
    path = rng.permutation(n)[:60]
    M[path[1:], path[:-1]] = 2.0
    M[rng.integers(n, size=5), rng.integers(n, size=5)] = np.nan
    M = sp.csr_matrix(M)
    M.data[rng.random(M.nnz) < 0.2] = 0.0
    R = np.sort(rng.choice(n, size=150, replace=False))
    R = dynamics.reachable(M, R)  # closed under M, as the engine's sets are
    got = dynamics._components(M, R)
    want = _scipy_components(M, R)
    assert len(got) == len(want) > 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _per_block_reference(L, V, times, exponential=None):
    # The engine as it ran each block on its own: scipy's dense slice of
    # the component, its own expm call and one product per time sample.
    exponential = exponential or dynamics.expm
    S, step = sp.csr_matrix(L), np.diff(times)[0]
    blocks = []
    for e in _scipy_components(L, dynamics.reachable(L, np.flatnonzero(V.any(axis=1)))):
        u = np.flatnonzero(V[e].any(axis=0))
        P, Vb = exponential(S[e][:, e].toarray() * step), V[np.ix_(e, u)]
        Y = np.empty((times.size, u.size, e.size), complex)
        Y[0] = Vb.T
        for m in range(1, times.size):
            Vb = P @ Vb
            Y[m] = Vb.T
        blocks.append((u, e, Y))
    return blocks


def _assert_same_blocks(got, want):
    assert len(got) == len(want)
    for (units, entries, Y), (u, e, Y_ref) in zip(got, want):
        assert np.array_equal(units, u) and np.array_equal(entries, e)
        assert Y.shape == Y_ref.shape and Y.dtype == Y_ref.dtype and Y.flags.owndata
        assert Y.tobytes() == Y_ref.tobytes()


@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder", "ladder conditional"])
def test_stacked_engine_is_the_per_block_loop_bit_for_bit(model):
    # The blocks of one shape share one expm call and one product per
    # step; every block keeps its order, its own array and its bits.
    L, positions, times = _unit_generator(model)
    V = _units_as_columns(positions, math.isqrt(L.shape[0]))
    blocks = dynamics.propagate_stack(L, V, times)(0)
    assert len({(e.size, units.size) for units, e, _ in blocks}) < len(blocks)
    _assert_same_blocks(blocks, _per_block_reference(L, V, times))


def test_group_velocity_runs_are_the_per_block_loop_bit_for_bit():
    # groupvel's 25² generators, stepped with the exponential it passes on
    # each block, against scipy's expm on each block.
    import scipy.linalg

    from eitgate import _expm2009, cli, groupvel

    from _support import fast_gate_config

    p = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config(), "t_max": 1.0})
    times = np.linspace(0.0, 1.0, 200)
    V = np.zeros((25, 1), complex)
    V[groupvel._GROUND * 6, 0] = 1.0  # the ground population, vec index a + 5 a
    for offset in (0.0, 1e-3, -1e-3):
        L = groupvel.semiclassical_liouvillian(p, 1e-3, offset)
        got = dynamics.propagate_stack(L, V, times, exponential=_expm2009.expm)(0)
        _assert_same_blocks(got, _per_block_reference(L, V, times, scipy.linalg.expm))


# dynamics.expm against scipy.linalg.expm, relative to the largest entry.
EXPM_RTOL = 2e-15


def _expm_error(A):
    import scipy.linalg

    want = scipy.linalg.expm(A)
    return np.max(np.abs(dynamics.expm(A) - want)) / np.max(np.abs(want))


def _propagated_blocks(L, V, times, monkeypatch):
    # The step generators propagate_stack hands to expm, one per block,
    # in block order. It makes one stacked call per block shape (entries,
    # units), in the order the shapes first occur; each slice is matched
    # to its block here.
    calls, expm = [], dynamics.expm

    def record(A):
        calls.append(A)
        return expm(A)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "expm", record)
        blocks = dynamics.propagate_stack(L, V, times[:2])(0)
    shapes = {}
    for i, (units, entries, _) in enumerate(blocks):
        shapes.setdefault((entries.size, units.size), []).append(i)
    assert len(calls) == len(shapes)
    seen = [None] * len(blocks)
    for A, group in zip(calls, shapes.values()):
        size = blocks[group[0]][1].size
        assert A.shape == (len(group), size, size)
        for a, i in zip(A, group):
            seen[i] = a
    return seen


@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder"])
def test_expm_matches_scipy_on_every_propagated_block(model, monkeypatch):
    L, positions, times = _unit_generator(model)
    V = _units_as_columns(positions, math.isqrt(L.shape[0]))
    blocks = _propagated_blocks(L, V, times, monkeypatch)
    assert len(blocks) == (16 if model == "conditional" else 9)
    assert max(_expm_error(A) for A in blocks) < EXPM_RTOL


@pytest.mark.parametrize("model", ["unconditional", "conditional", "ladder", "ladder conditional"])
def test_propagated_blocks_are_scipys_dense_slices(model, monkeypatch):
    # Bit for bit the step generator dt * L[e][:, e].toarray() of scipy's
    # slicing, signed zeros included: the conditional ladder stores 0 - 0j.
    L, positions, times = _unit_generator(model)
    if model == "ladder conditional":
        assert np.signbit(L.data[L.data == 0].imag).all()
    V = _units_as_columns(positions, math.isqrt(L.shape[0]))
    seen = _propagated_blocks(L, V, times, monkeypatch)
    entries = [e for _, e, _ in dynamics.propagate_stack(L, V, times[:2])(0)]
    assert len(seen) == len(entries)
    S, dt = sp.csr_matrix(L), times[1] - times[0]
    for A, e in zip(seen, entries):
        assert A.tobytes() == (S[e][:, e].toarray() * dt).tobytes()
        assert not np.signbit(A[A == 0].view(float)).any()


def test_expm_matches_scipy_on_the_group_velocity_generators():
    # The three 25² single-atom generators of the groupvel golden case,
    # at its step t_max / (avg_grid - 1).
    from eitgate import cli, groupvel

    from _support import fast_gate_config

    p = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config(), "t_max": 1.0})
    for offset in (0.0, 1e-3, -1e-3):
        A = groupvel.semiclassical_liouvillian(p, 1e-3, offset).toarray() / 199
        assert A.shape == (25, 25) and _expm_error(A) < EXPM_RTOL


def test_expm_edge_cases():
    assert np.array_equal(dynamics.expm(np.array([[-0.3 + 2j]])), np.exp([[-0.3 + 2j]]))
    assert np.array_equal(dynamics.expm(np.zeros((4, 4), complex)), np.eye(4))
    d = np.array([1.5, -40.0, 2j, 0.0])
    assert np.array_equal(dynamics.expm(np.diag(d)), np.diag(np.exp(d)))


def _with_norm(A, norm):
    return A * (norm / np.abs(A).sum(axis=0).max())


def test_stacked_expm_is_each_slices_own_call_bit_for_bit():
    # One 1-norm per Padé order (3, 5, 7, 9 and 13 unscaled), two slices
    # scaled by 2^-3 that run together, a diagonal and a zero slice, and a
    # NaN and an inf slice among finite neighbours.
    rng = np.random.default_rng(7)

    def generic():
        return rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))

    nan, inf = generic(), generic()
    nan[2, 3], inf[4, 4] = np.nan, np.inf
    S = np.stack([
        _with_norm(generic(), 22.0), _with_norm(generic(), 0.01), nan,
        _with_norm(generic(), 0.2), np.diag([1.5, -40.0, 2j, 0.0, 0.3, -1j]),
        _with_norm(generic(), 0.9), inf, _with_norm(generic(), 2.0),
        np.zeros((6, 6), complex), _with_norm(generic(), 5.0), _with_norm(generic(), 30.0),
    ])
    bad = [2, 6]
    orders = [dynamics._pade_order(np.abs(A).sum(axis=0).max()) for A in np.delete(S, bad, 0)]
    assert {(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)} < set(orders)
    assert orders[0] == orders[-1] == (4, 3)
    out = dynamics.expm(S)
    assert out.shape == S.shape and out.dtype == complex
    for A, r in zip(S, out):
        assert r.tobytes() == dynamics.expm(A).tobytes()
    assert np.isnan(out[bad]).all()
    assert np.isfinite(np.delete(out, bad, 0)).all()
    assert np.array_equal(out[4], np.diag(np.exp(np.diag(S[4]))))
    assert np.array_equal(out[8], np.eye(6))
    # Leading axes are a stack too.
    assert dynamics.expm(S[:10].reshape(2, 5, 6, 6)).tobytes() == out[:10].tobytes()


def test_stacked_expm_of_one_by_one_slices():
    z = np.array([-0.3 + 2j, 40.0, 0.0, np.nan, -1e3j])[:, None, None]
    with np.errstate(invalid="ignore"):
        out = dynamics.expm(z)
    assert np.isnan(out[3]).all()
    keep = [0, 1, 2, 4]
    assert np.array_equal(out[keep], np.exp(z[keep]))
    for a, r in zip(z, out):
        assert r.tobytes() == dynamics.expm(a).tobytes()


def test_expm_scaling_branch_matches_scipy(monkeypatch):
    # The gate's 62² block at a hundred times its step: ||A||_1 = 22 is
    # above θ_13 = 5.37, so A is scaled by 2^-3 and squared back three
    # times. Measured: 1.4e-15 of the largest entry.
    L, positions, times = _unit_generator("unconditional")
    blocks = _propagated_blocks(L, _units_as_columns(positions, basis.M_DIM), times, monkeypatch)
    A = 100 * max(blocks, key=len)
    assert A.shape == (62, 62) and np.abs(A).sum(axis=0).max() > 5.371920351148152
    assert _expm_error(A) < EXPM_RTOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_of_a_non_finite_matrix_is_non_finite(bad):
    for A in (np.array([[0.0, 1.0], [bad, 0.0]]), np.array([[bad]])):
        assert np.isnan(dynamics.expm(A)).all()
    huge = np.full((2, 2), 1e308)  # finite entries, overflowing 1-norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(dynamics.expm(huge)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_is_reported_at_the_first_step(bad):
    rng = np.random.default_rng(5)
    L = rng.standard_normal((4, 4)) + 0j
    L[1, 1] = bad
    rho0 = random_density(2, rng)
    with np.errstate(invalid="ignore"), pytest.raises(
        RuntimeError, match="non-finite at time sample 1$"
    ):
        dynamics.evolve_superoperator(sp.csr_matrix(L), rho0, np.linspace(0.0, 1.0, 4))
