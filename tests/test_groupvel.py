"""Probe dispersion, slow light, and cell geometry contracts."""

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from eitgate import basis, cli, dynamics, groupvel, mscheme
from eitgate.groupvel import OpticalConstants
from eitgate.mscheme import MSchemeParams

from _support import fast_gate_config

C_LIGHT = 299792458.0

EIT_SET = MSchemeParams(
    N_a=1e6,
    g_p=0.0022,
    g_t=0.0022,
    Omega1=4.0,
    Omega4=4.0,
    delta2=15.0,
    delta3=15.0,
    eps12=0.0,
    eps34=0.0,
    gamma21=1 / 3,
    gamma23=1 / 3,
    gamma25=1 / 3,
    gamma41=1 / 3,
    gamma43=1 / 3,
    gamma45=1 / 3,
)


def test_semiclassical_hamiltonian_structure():
    H = groupvel.semiclassical_hamiltonian(EIT_SET, 1e-3, offset=0.7)
    assert H.shape == (5, 5)
    assert np.allclose(H, H.conj().T)
    assert H[0, 0] == pytest.approx(EIT_SET.eps12 + 0.7)
    assert H[1, 1] == pytest.approx(EIT_SET.delta2 - 0.7)
    # the trigger side does not move with the probe carrier
    assert H[3, 3] == pytest.approx(EIT_SET.delta3)
    assert H[4, 4] == pytest.approx(EIT_SET.eps34)
    assert H[1, 2] == pytest.approx(1e-3 * 0.0022 * 1000.0)


def _positional_semiclassical_hamiltonian(params, probe_rabi_classical, offset):
    # Reference layout: the photon-free slice of the collective
    # Hamiltonian with the classical couplings written at the positions
    # of levels E2-G and E4-G in the order E1, E2, G, E4, E5.
    idx = [basis.M_STATES.index((label, 0, 0)) for label in ("E1", "E2", "G", "E4", "E5")]
    H = mscheme.build_hamiltonian(params)[np.ix_(idx, idx)]
    H[0, 0] += offset
    H[1, 1] -= offset
    H[1, 2] = H[2, 1] = probe_rabi_classical * params.g_p * math.sqrt(params.N_a)
    H[3, 2] = H[2, 3] = probe_rabi_classical * params.g_t * math.sqrt(params.N_a)
    return H


def test_semiclassical_hamiltonian_is_bitwise_the_positional_layout():
    rng = np.random.default_rng(11)
    names = ("g_p", "g_t", "Omega1", "Omega4", "delta2", "delta3", "eps12", "eps34")
    for i in range(200):
        values = {k: float(rng.normal() * rng.choice([1e-3, 1.0, 10.0])) for k in names}
        if i % 5 == 0:
            values["g_t"] = 0.0
        params = MSchemeParams(N_a=float(10 ** rng.uniform(0, 8)), **values)
        rabi, offset = float(10 ** rng.uniform(-4, -1)), float(rng.normal())
        H = groupvel.semiclassical_hamiltonian(params, rabi, offset)
        assert H.tobytes() == _positional_semiclassical_hamiltonian(params, rabi, offset).tobytes()


def test_semiclassical_jump_channels_drop_zero_rates():
    chans = mscheme.build_jump_channels(EIT_SET, states=groupvel._LEVELS)
    assert len(chans) == 6
    assert all(ch.kind == "decay" for ch in chans)
    with_deph = mscheme.build_jump_channels(
        replace(EIT_SET, gamma_deph_1=1e-2), states=groupvel._LEVELS
    )
    assert len(with_deph) == 7
    assert with_deph[-1].kind == "dephasing"


def test_two_photon_resonance_is_transparent():
    chi0 = groupvel.steady_susceptibility(EIT_SET)
    assert abs(chi0) < 1e-15
    chi_off = groupvel.steady_susceptibility(EIT_SET, 0.5)
    assert abs(chi_off.imag) > 1e-11


def test_ground_dephasing_spoils_transparency():
    clean = groupvel.steady_susceptibility(EIT_SET)
    spoiled = groupvel.steady_susceptibility(replace(EIT_SET, gamma_deph_1=1e-2))
    assert abs(spoiled.imag) > 1e-12
    assert abs(spoiled.imag) > 1e6 * abs(clean.imag)


def test_susceptibility_reads_probe_coherence():
    rho = np.zeros((5, 5), dtype=complex)
    rho[1, 2] = 0.3 - 0.4j
    consts = OpticalConstants()
    omega = 1e-3 * EIT_SET.g_p * math.sqrt(EIT_SET.N_a)
    expect = (
        2.0
        * EIT_SET.g_p**2
        * EIT_SET.N_a
        * EIT_SET.gamma_SI
        * (0.3 - 0.4j)
        / (consts.omega_p * omega)
    )
    chi = groupvel.susceptibility_from_state(rho, EIT_SET, 1e-3)
    assert chi == pytest.approx(expect, rel=1e-12)
    # weaker classical stand-in, same coherence: chi scales inversely
    assert groupvel.susceptibility_from_state(rho, EIT_SET, 5e-4) == pytest.approx(
        2 * chi, rel=1e-12
    )


def test_steady_susceptibility_sweeps_arrays_of_offsets():
    scalar = groupvel.steady_susceptibility(EIT_SET, 0.25)
    assert isinstance(scalar, complex)
    for offsets in (np.linspace(-1.0, 1.0, 7), np.array([[0.0, 0.3, -0.5], [1e-3, 2.0, -1e-3]])):
        chi = groupvel.steady_susceptibility(EIT_SET, offsets, probe_rabi_classical=2e-3)
        assert chi.shape == offsets.shape and chi.dtype == complex
        each = [
            groupvel.steady_susceptibility(EIT_SET, float(d), probe_rabi_classical=2e-3)
            for d in offsets.ravel()
        ]
        assert chi.tobytes() == np.array(each).reshape(offsets.shape).tobytes()


def test_susceptibility_of_a_trajectory_is_bitwise_the_per_state_reads():
    rng = np.random.default_rng(5)
    traj = rng.normal(size=(9, 5, 5)) + 1j * rng.normal(size=(9, 5, 5))
    chi = groupvel.susceptibility_from_state(traj, EIT_SET, 1e-3)
    assert chi.shape == (9,)
    # Reference: the scalar read of the probe coherence, one state at a time.
    scale = 2.0 * EIT_SET.g_p**2 * EIT_SET.N_a * EIT_SET.gamma_SI
    omega = 1e-3 * EIT_SET.g_p * math.sqrt(EIT_SET.N_a)
    each = [complex(scale * r[1, 2] / (OpticalConstants().omega_p * omega)) for r in traj]
    assert chi.tobytes() == np.array(each).tobytes()


def test_steady_velocity_subluminal_and_frozen():
    v = groupvel.group_velocity_steady(EIT_SET)
    assert 0.0 < v < C_LIGHT
    assert v == pytest.approx(2.301669592408e8, rel=1e-6)


def test_velocity_insensitive_to_numerical_knobs():
    v = groupvel.group_velocity_steady(EIT_SET)
    assert groupvel.group_velocity_steady(EIT_SET, fd_step=1e-4) == pytest.approx(
        v, rel=1e-3
    )
    assert groupvel.group_velocity_steady(
        EIT_SET, probe_rabi_classical=1e-4
    ) == pytest.approx(v, rel=1e-3)


def test_negligible_coupling_gives_vacuum_velocity():
    tiny = replace(EIT_SET, N_a=1, g_p=1e-8, g_t=1e-8)
    assert groupvel.group_velocity_steady(tiny) == pytest.approx(C_LIGHT, rel=1e-9)


def test_zero_probe_coupling_rejected():
    no_probe = replace(EIT_SET, g_p=0.0)
    with pytest.raises(ValueError, match="probe coupling"):
        groupvel.steady_susceptibility(no_probe)
    with pytest.raises(ValueError, match="probe coupling"):
        groupvel.group_velocity_steady(no_probe)


def test_transient_average_starts_at_vacuum_velocity():
    # Before the medium polarizes the pulse sees a bare cell.
    v = groupvel.group_velocity_transient(EIT_SET, 0.01, avg_grid=50)
    assert v == pytest.approx(C_LIGHT, rel=1e-3)


def test_transient_average_frozen_and_grid_converged():
    v200 = groupvel.group_velocity_transient(EIT_SET, 5.0, avg_grid=200)
    assert v200 == pytest.approx(2.378121457313e8, rel=1e-6)
    v400 = groupvel.group_velocity_transient(EIT_SET, 5.0, avg_grid=400)
    assert abs(v400 - v200) / v200 < 1e-4


def test_transient_validation():
    with pytest.raises(ValueError, match="avg_grid"):
        groupvel.group_velocity_transient(EIT_SET, 1.0, avg_grid=1)
    with pytest.raises(ValueError, match="t_int"):
        groupvel.group_velocity_transient(EIT_SET, 0.0)
    with pytest.raises(ValueError, match="t_int"):
        groupvel.group_velocity_transient(EIT_SET, -1.0)


def test_zero_fd_step_rejected_before_any_propagation(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("propagated before validating fd_step")

    monkeypatch.setattr(groupvel, "steady_state", never)
    monkeypatch.setattr(groupvel, "evolve_superoperator", never)
    for fd_step in (0.0, -1e-3):
        with pytest.raises(ValueError, match="fd_step"):
            groupvel.group_velocity_steady(EIT_SET, fd_step=fd_step)
        with pytest.raises(ValueError, match="fd_step"):
            groupvel.group_velocity_transient(EIT_SET, 1.0, fd_step=fd_step)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_transient_names_a_non_finite_t_int_before_any_build(monkeypatch, bad):
    monkeypatch.setattr(groupvel, "semiclassical_liouvillian", _never_built)
    with pytest.raises(ValueError, match=f"t_int must be positive and finite, got {bad}"):
        groupvel.group_velocity_transient(EIT_SET, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_transient_names_a_non_finite_fd_step_before_any_build(monkeypatch, bad):
    monkeypatch.setattr(groupvel, "semiclassical_liouvillian", _never_built)
    with pytest.raises(ValueError, match=f"fd_step must be positive and finite, got {bad}"):
        groupvel.group_velocity_transient(EIT_SET, 1.0, fd_step=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_steady_names_a_non_finite_fd_step_before_any_build(monkeypatch, bad):
    monkeypatch.setattr(groupvel, "semiclassical_liouvillian", _never_built)
    with pytest.raises(ValueError, match=f"fd_step must be positive and finite, got {bad}"):
        groupvel.group_velocity_steady(EIT_SET, fd_step=bad)


def _never_built(*args, **kwargs):
    raise AssertionError("built a generator before validating the inputs")


def test_cell_geometry_round_trips():
    consts = OpticalConstants()
    geo = groupvel.cell_geometry(EIT_SET, 1.5e6, 0.4)
    g_si = EIT_SET.g_p * EIT_SET.gamma_SI
    v_expect = consts.mu_p**2 * consts.omega_p / (
        2.0 * consts.hbar * consts.epsilon0 * g_si**2
    )
    assert geo.volume == pytest.approx(v_expect, rel=1e-12)
    assert geo.length == pytest.approx(1.5e6 * 0.4 / EIT_SET.gamma_SI, rel=1e-12)
    assert math.pi * geo.length * (geo.diameter / 2.0) ** 2 == pytest.approx(
        geo.volume, rel=1e-12
    )
    assert geo.density == pytest.approx(EIT_SET.N_a / geo.volume, rel=1e-12)


def test_cell_geometry_tracks_transition_data():
    big_dipole = OpticalConstants(mu_p=5e-29)
    base = groupvel.cell_geometry(EIT_SET, 1.5e6, 0.4)
    scaled = groupvel.cell_geometry(EIT_SET, 1.5e6, 0.4, constants=big_dipole)
    assert scaled.volume == pytest.approx(base.volume * 4.0, rel=1e-12)
    assert scaled.length == base.length


def test_cell_geometry_rejects_zero_coupling():
    with pytest.raises(ValueError, match="mode volume"):
        groupvel.cell_geometry(replace(EIT_SET, g_p=0.0), 1.5e6, 0.4)


def _per_offset_susceptibility(params, prc, offset):
    # Reference: one generator build and one steady solve per offset.
    L = groupvel.semiclassical_liouvillian(params, prc, offset)
    return groupvel.susceptibility_from_state(dynamics.steady_state(L), params, prc)


def test_steady_susceptibility_is_bitwise_the_per_offset_solves():
    rng = np.random.default_rng(20)
    for i in range(40):
        params = replace(
            EIT_SET,
            # eps12 = 0 puts an exact zero on the diagonal at offset 0,
            # and offset -eps12 does so otherwise: a pattern unlike the union's.
            eps12=0.0 if i % 4 == 0 else float(rng.normal() * 0.1),
            delta2=float(rng.normal() * 10.0),
            Omega1=float(abs(rng.normal()) * 4.0 + 0.1),
            gamma_deph_1=float(abs(rng.normal()) * 1e-2) if i % 3 else 0.0,
            gamma_deph_2=float(abs(rng.normal()) * 1e-2),
        )
        prc, fd_step = float(10 ** rng.uniform(-4, -2)), float(10 ** rng.uniform(-4, -2))
        offsets = np.concatenate([rng.normal(size=4), [0.0, fd_step, -fd_step, -params.eps12]])
        chi = groupvel.steady_susceptibility(params, offsets, probe_rabi_classical=prc)
        each = np.array([_per_offset_susceptibility(params, prc, float(d)) for d in offsets])
        assert chi.tobytes() == each.tobytes(), i


def test_empty_offset_array_gives_an_empty_susceptibility():
    chi = groupvel.steady_susceptibility(EIT_SET, np.array([]))
    assert chi.shape == (0,)


def test_one_generator_build_per_sweep(tmp_path, monkeypatch):
    builds = []

    def counting(H, channels):
        builds.append(H.shape)
        return mscheme.build_liouvillian(H, channels)

    monkeypatch.setattr(groupvel, "build_liouvillian", counting)
    for offsets in (0.0, np.array([]), np.linspace(-1.0, 1.0, 201), np.zeros((2, 3))):
        builds.clear()
        groupvel.steady_susceptibility(EIT_SET, offsets)
        assert builds == [(np.size(offsets), 5, 5)]
    builds.clear()
    groupvel.group_velocity_steady(EIT_SET)
    assert builds == [(3, 5, 5)]
    builds.clear()
    groupvel.group_velocity_transient(EIT_SET, 1.0)
    assert builds == [(3, 5, 5)]
    # A groupvel run with --out: the steady velocity, the χ sweep and the
    # transient, one build each.
    builds.clear()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**fast_gate_config(), "t_max": 1.0}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["groupvel", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert builds == [(3, 5, 5), (201, 5, 5), (3, 5, 5)]


def _transient_runs(monkeypatch, params, t_int, **kw):
    # (state, times, options, trajectory) of each propagation
    # group_velocity_transient makes.
    runs = []

    def recording(L, rho0, times, **options):
        traj = dynamics.evolve_superoperator(L, rho0, times, **options)
        runs.append((rho0, times, options, traj))
        return traj

    monkeypatch.setattr(groupvel, "evolve_superoperator", recording)
    groupvel.group_velocity_transient(params, t_int, **kw)
    return runs


# The groupvel golden's point, and the same with eps12 = 0: there the
# offset-0 Hamiltonian lacks an entry the ±fd_step ones have, so a
# stacked build stores an explicit zero for it that its own build omits.
_GOLDEN_CFG = {**cli.DEFAULTS, **fast_gate_config(), "t_max": 1.0}


@pytest.mark.parametrize("eps12", [_GOLDEN_CFG["eps12"], 0.0], ids=["golden", "eps12-zero"])
def test_transient_runs_are_the_per_offset_builds_bit_for_bit(monkeypatch, eps12):
    params = cli.params_from_config({**_GOLDEN_CFG, "eps12": eps12})
    prc, fd_step = _GOLDEN_CFG["probe_rabi_classical"], _GOLDEN_CFG["fd_step"]
    offsets = groupvel._fd_offsets(fd_step)
    H = groupvel.semiclassical_hamiltonian(params, prc, offsets)
    assert (np.count_nonzero(H[0]) < np.count_nonzero(H.any(axis=0))) == (eps12 == 0.0)
    own = [groupvel.semiclassical_liouvillian(params, prc, d) for d in offsets.tolist()]
    runs = _transient_runs(
        monkeypatch, params, _GOLDEN_CFG["t_max"], avg_grid=_GOLDEN_CFG["avg_grid"],
        fd_step=fd_step, probe_rabi_classical=prc,
    )
    assert len(runs) == len(own)
    for L, (rho0, times, options, traj) in zip(own, runs):
        assert dynamics.evolve_superoperator(L, rho0, times, **options).tobytes() == traj.tobytes()


def test_offsets_are_the_shifted_parameters_bit_for_bit():
    # An offset d gives the Hamiltonian of eps12 + d and delta2 - d, for a
    # stack of offsets as for one: signed zeros, negative couplings and
    # offsets cancelling eps12 or delta2 included.
    rng = np.random.default_rng(26)
    for i in range(12):
        params = replace(
            EIT_SET,
            eps12=-0.0 if i % 4 == 0 else float(rng.normal() * 0.1),
            delta2=-0.0 if i % 3 == 0 else float(rng.normal() * 10.0),
            g_p=float(rng.choice([-1.0, 1.0]) * EIT_SET.g_p),
            g_t=float(rng.choice([-1.0, 0.0, 1.0]) * EIT_SET.g_t),
        )
        prc = float(10 ** rng.uniform(-4, -2))
        offsets = np.concatenate([rng.normal(size=4), [0.0, -0.0, -params.eps12, params.delta2]])
        shifted = [
            groupvel.semiclassical_hamiltonian(
                replace(params, eps12=params.eps12 + d, delta2=params.delta2 - d), prc
            )
            for d in offsets.tolist()
        ]
        stack = groupvel.semiclassical_hamiltonian(params, prc, offsets)
        assert stack.tobytes() == np.array(shifted).tobytes(), i
        for d, H in zip(offsets.tolist(), shifted):
            assert groupvel.semiclassical_hamiltonian(params, prc, d).tobytes() == H.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_is_named_before_any_assembly(monkeypatch, bad):
    def never(*args, **kwargs):
        raise AssertionError("assembled a generator for a non-finite offset")

    monkeypatch.setattr(groupvel, "semiclassical_hamiltonian", never)
    monkeypatch.setattr(groupvel, "build_liouvillian", never)
    for offsets in (bad, [0.1, bad]):
        with pytest.raises(ValueError, match="probe offset .* is not finite"):
            groupvel.steady_susceptibility(EIT_SET, offsets)


def test_steady_failure_names_its_offset(monkeypatch):
    with pytest.raises(ValueError, match=r"stationary subspace .* at probe offset 1e\+300$"):
        groupvel.steady_susceptibility(EIT_SET, [0.0, 1e300])
    with pytest.raises(ValueError, match=r"stationary subspace .* at probe offset 1000000000\.0$"):
        groupvel.group_velocity_steady(EIT_SET, fd_step=1e9)

    def residual(L):
        raise RuntimeError("stationary-state residual 1e-3 above tolerance")

    monkeypatch.setattr(groupvel, "steady_state", residual)
    with pytest.raises(RuntimeError, match=r"residual .* at probe offset 0\.25$"):
        groupvel.steady_susceptibility(EIT_SET, 0.25)


@pytest.mark.parametrize("name", ["c", "hbar", "epsilon0", "omega_p", "mu_p"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_optical_constants_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be positive"):
        OpticalConstants(**{name: value})
