"""Oracles for acceptance criteria whose bands do not fit their own parameter sets.

Each test recomputes a criterion's target from an independent route and
pins the inconsistency, so the red criterion is documented by a green
check: the band cannot be met by any correct implementation of the
printed parameter set. Where the route checks the model itself, the
test pins the agreement. The parameter sets come from the acceptance
battery itself.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from eitgate import basis, cli, dynamics, groupvel, mscheme, observables, perturbative
from test_acceptance import LADDER_SET, LONGTIME, PULSED, SHORTTIME, TRANSIENT, WEAK


def _no_jump_probabilities(params, t):
    """||exp(-iKt)|q_i>||² of the four qubit states on the 18-state space,
    with K = H - (i/2) Σ γ S†S over every channel (Dalibard, Castin &
    Mølmer, PRL 68, 580 (1992)); no superoperator is built."""
    K = mscheme.build_hamiltonian(params).astype(complex)
    for ch in mscheme.build_jump_channels(params):
        K -= 0.5j * ch.rate * (ch.op.conj().T @ ch.op)
    psi = scipy.linalg.expm(-1j * t * K)[:, list(basis.QUBIT_M_INDICES)]
    return np.sum(np.abs(psi) ** 2, axis=0)


_TRACE = basis.trace_cells(basis.M_STATES)
_DIAGONAL = list(dynamics.BASIS_UNITS)  # the units |q_i><q_i|


def test_c1_no_jump_probability_is_the_models_and_the_band_quotes_an_amplitude():
    t = 0.4
    times = np.linspace(0.0, t, 161)  # criterion 1's step, ending at t
    p_basis = _no_jump_probabilities(TRANSIENT, t)
    assert p_basis == pytest.approx([1.0, 0.842147, 0.842147, 0.834776], abs=1e-6)
    # The pure-state route equals the conditional map with dephasing in the drift.
    excluded = dynamics.evolve_gate_inputs(
        TRANSIENT, times, conditional=True, dephasing_mode="excluded"
    ).image(_TRACE)[-1, :, 0]
    assert np.max(np.abs(excluded[_DIAGONAL] - p_basis)) < 1e-10
    # The map criterion 1 scores keeps the dephasing dissipator. Unequal
    # photon numbers leave every off-diagonal unit traceless, so the
    # Haar-average no-jump probability is Tr Λ(I)/4.
    co = dynamics.evolve_gate_inputs(TRANSIENT, times, conditional=True)
    traces = co.image(_TRACE)[-1, :, 0]
    assert np.all(np.delete(traces, _DIAGONAL) == 0)
    exact = float(np.sum(traces[_DIAGONAL].real)) / 4.0
    assert exact == pytest.approx(0.87989, abs=1e-5)
    # The Monte Carlo figure is the sample mean over the seed-42 Haar set,
    # 3.1 standard errors below the exact value.
    lam = co.image(basis.qubit_cells(basis.M_STATES))[-1].reshape(16, 4, 4)
    mc = observables.conditional_fidelity_from_blocks(lam, traces, np.eye(4), mc_samples=2000)
    rng = np.random.default_rng(42)
    X = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    weights = np.abs(X) ** 2 / np.sum(np.abs(X) ** 2, axis=1, keepdims=True)  # |c_i|²
    draws = weights @ traces[_DIAGONAL].real
    assert mc.p_success == pytest.approx(draws.mean(), abs=1e-12)
    assert mc.p_success == pytest.approx(0.87783, abs=1e-5)
    z = (exact - mc.p_success) / (draws.std(ddof=1) / math.sqrt(draws.size))
    assert z == pytest.approx(3.1, abs=0.05)
    # Both miss the band [0.91, 0.97]; the amplitude sqrt(p) lies inside.
    assert exact < 0.91 and mc.p_success < 0.91
    assert 0.91 <= math.sqrt(exact) <= 0.97


_LADDER_POINT = dict(
    n_atoms=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, delta_t=0.0,
    ladder_gamma21=1.0, ladder_gamma32=1.0, t_max=0.25,
)

_C1_POINT = dict(
    n_atoms=1e8, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0, delta2=15.0,
    delta3=15.0, eps12=0.01, eps34=0.01,
)

# Maps the CLI scores, with the time samples checked: (analysis, config,
# samples). Criterion 1's point on its grid, t = 0.1, 0.4 and 1.0, and
# with ten times the atoms at t = 25 and 50, where the two-photon input
# keeps under 1% of the vacuum's no-jump probability; the benchmark's
# absorptive ladder and criterion 6's as-printed one, t = 0.12 and 0.25.
_SCORED = {
    "five-level": ("run_gate_analysis", dict(_C1_POINT, t_max=1.0, n_samples=401), (40, 160, 400)),
    "five-level lossy": ("run_gate_analysis", dict(
        _C1_POINT, n_atoms=1e9, t_max=50.0, n_samples=41,
    ), (20, 40)),
    "ladder absorptive n_max 3": ("run_ladder_analysis", dict(
        _LADDER_POINT, ladder_convention="absorptive", n_max=3, n_samples=126,
    ), (60, 125)),
    "ladder as-printed n_max 6": ("run_ladder_analysis", dict(
        _LADDER_POINT, ladder_convention="as-printed", n_max=6, n_samples=26,
    ), (12, 25)),
}


@pytest.fixture(scope="module")
def scored_maps():
    """name -> (blocks, traces, targets) that the CLI analysis hands to
    the exact conditional fidelity, its time chunks joined."""
    assert cli.params_from_config({**cli.DEFAULTS, **_SCORED["five-level"][1]}) == TRANSIENT
    printed = {**cli.DEFAULTS, **_SCORED["ladder as-printed n_max 6"][1]}
    assert cli.ladder_params_from_config(printed) == replace(LADDER_SET, n_max=6)
    score, chunks = observables.haar_conditional_fidelity, {}
    with pytest.MonkeyPatch.context() as mp:
        for name, (analysis, cfg, _) in _SCORED.items():
            def capture(lam, traces, U, name=name, **kwargs):
                chunks.setdefault(name, []).append((lam, traces, U))
                return score(lam, traces, U, **kwargs)

            mp.setattr(observables, "haar_conditional_fidelity", capture)
            getattr(cli, analysis)({**cli.DEFAULTS, **cfg})
    return {name: tuple(map(np.concatenate, zip(*parts))) for name, parts in chunks.items()}


def _haar_ratios(lam, traces, U, mc_samples, seed=42):
    """Per-draw renormalized overlaps of the Haar set that
    conditional_fidelity_from_blocks draws from (seed, mc_samples); their
    mean is its F_c²."""
    Z = np.random.default_rng(seed).standard_normal((2, mc_samples, 4))
    R = np.einsum("ai,kij,jb->kab", U.conj().T, lam, U).reshape(16, 16)
    out = []
    for s in range(0, mc_samples, 50000):
        psi = Z[0, s : s + 50000] + 1j * Z[1, s : s + 50000]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        W = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(-1, 16)
        out.append(np.sum((W @ R) * W.conj(), axis=1).real / (W @ traces).real)
    return np.concatenate(out)


# The 2000 draws of seed 42 sit 3.02 SE below the lossy map's exact F_c²
# at both checked samples: the estimate's own scatter, for its 200000
# draws land 0.50 SE off.
_PINNED_Z = {("five-level lossy", 2000): 3.02}


@pytest.mark.parametrize("name", sorted(_SCORED))
def test_exact_conditional_fidelity_is_the_monte_carlo_limit(scored_maps, name):
    lam, traces, U = scored_maps[name]
    samples = list(_SCORED[name][2])
    exact, _ = observables.haar_conditional_fidelity(lam[samples], traces[samples], U[samples])
    for mc_samples in (2000, 200000):
        for k, m in enumerate(samples):
            mc = observables.conditional_fidelity_from_blocks(
                lam[m], traces[m], U[m], mc_samples=mc_samples, seed=42
            )
            draws = _haar_ratios(lam[m], traces[m], U[m], mc_samples)
            assert mc.fidelity**2 == pytest.approx(draws.mean(), rel=1e-12)
            z = (exact[k] ** 2 - draws.mean()) / (draws.std(ddof=1) / math.sqrt(mc_samples))
            pinned = _PINNED_Z.get((name, mc_samples))
            if pinned is not None:
                assert z == pytest.approx(pinned, abs=0.01)
            else:
                assert abs(z) < 3.0, f"time sample {m}, {mc_samples} draws: z = {z:.2f}"


@pytest.mark.parametrize("name", sorted(_SCORED))
def test_exact_conditional_fidelity_is_converged_on_the_scored_maps(
    scored_maps, monkeypatch, name
):
    lam, traces, U = scored_maps[name]
    base = observables.haar_conditional_fidelity(lam, traces, U)[0]
    for step, span in ((0.2, 40.0), (0.4, 60.0)):
        monkeypatch.setattr(observables, "_HAAR_STEP", step)
        monkeypatch.setattr(observables, "_HAAR_SPAN", span)
        finer = observables.haar_conditional_fidelity(lam, traces, U)[0]
        assert np.max(np.abs(finer - base)) <= 1e-15


def test_lossy_scored_map_spreads_the_no_jump_probabilities_past_a_hundredfold(scored_maps):
    lam, traces, U = scored_maps["five-level lossy"]
    p = traces[:, _DIAGONAL].real
    ratio = p.min(axis=1) / p.max(axis=1)
    assert ratio[20] < 0.01 and ratio[40] < 0.002
    assert np.argmin(p[40]) == 3  # the two-photon input


def test_c1_exact_conditional_fidelity_and_success(scored_maps):
    # Criterion 1 scores F_c(0.4) with the 2000-draw estimate, 0.9813
    # against [0.975, 1.005]; the exact Haar average is 0.98212, and the
    # exact no-jump probability 0.87989 still misses [0.91, 0.97].
    lam, traces, U = scored_maps["five-level"]
    f, p = observables.haar_conditional_fidelity(lam[160], traces[160], U[160])
    assert f == pytest.approx(0.98212065, abs=5e-9)
    assert p == pytest.approx(0.87989, abs=5e-6)


def test_c4_dark_eigenvalue_pi_time_lies_three_decades_below_its_band():
    # The cross-phase rate of the exact dark eigenvalues puts the first
    # |CPS| = π at 0.0308, against criterion 4's band [35, 65].
    lam_p, lam_t, lam_pt = perturbative.phase_rates(SHORTTIME)
    t_pi = math.pi / abs(lam_pt - lam_p - lam_t)
    assert t_pi == pytest.approx(0.0308, abs=5e-5)
    assert 1e3 * t_pi < 35.0


def test_c5_closed_form_is_the_models_fourth_order_phase_and_lies_above_the_band():
    # (λ_pt - λ_p - λ_t)/g⁴ of the reduced sectors' exact eigenvalues,
    # fitted in g² at N_a = 1 and extrapolated to g -> 0, is the g⁴
    # coefficient of the model's cross-phase. Below g ≈ 0.05 rounding of
    # the ~1900-sized entries dominates the difference, so the fit starts
    # at 0.1.
    def dark(H, states):
        # The eigenvalue whose eigenvector overlaps most the bare photons.
        w, V = np.linalg.eigh(H)
        return w[np.argmax(np.abs(V[[label for label, _, _ in states].index("G")]))]

    g = np.linspace(0.1, 0.3, 11)
    ratios = []
    for gi in g:
        params = replace(WEAK, g_p=gi, g_t=gi)
        lam_p, lam_t, lam_pt = (
            dark(mscheme.build_hamiltonian(params, s), s) for s in mscheme.SECTORS
        )
        ratios.append((lam_pt - lam_p - lam_t) / gi**4)
    coefficient = np.polynomial.polynomial.polyfit(g**2, ratios, 2)[0]
    assert coefficient == pytest.approx(-6.9081e-5, rel=1e-4)
    t = 100.0
    fourth_order = coefficient * WEAK.g_p**4 * WEAK.N_a**2 * t
    # The closed form is that term: both give |phase| = 4.3175e-4.
    assert fourth_order == pytest.approx(perturbative.closed_form_phase(WEAK, t), rel=1e-4)
    # The band [1.8e-4, 4.2e-4] ends 2.8% below it; the higher orders of
    # the exact route lower the phase by 1.5%, to 4.2514e-4, still above.
    assert abs(fourth_order) / 4.2e-4 == pytest.approx(1.028, abs=5e-4)
    exact = perturbative.eigenvalue_phase(WEAK, t)
    assert exact / fourth_order == pytest.approx(0.9847, abs=5e-4)
    assert abs(exact) > 4.2e-4


# Criterion 7's geometry bands: density [cm^-3], diameter [m], length [m].
_PULSED_BANDS = ((7.0e8, 1.3e9), (6.37e-4, 1.183e-3), (2.674e-2, 4.966e-2))
_TRANSIENT_BANDS = ((3.5e10, 6.5e10), (2.31e-4, 4.29e-4), (2.17e-2, 4.03e-2))


def _atom_number_range(bands):
    """(min, max) of N = ρ·π(d/2)²·L over the band corners; N grows in each."""
    (rho_lo, rho_hi), (d_lo, d_hi), (l_lo, l_hi) = bands
    return tuple(1e6 * rho * math.pi * (d / 2.0) ** 2 * l
                 for rho, d, l in ((rho_lo, d_lo, l_lo), (rho_hi, d_hi, l_hi)))


def test_c7_pulsed_geometry_bands_cannot_hold_its_atom_number():
    high = _atom_number_range(_PULSED_BANDS)[1]
    assert high == pytest.approx(7.1e7, rel=2e-3)
    assert high < PULSED.N_a
    low, high = _atom_number_range(_TRANSIENT_BANDS)
    assert low == pytest.approx(3.2e7, rel=1e-2) and high == pytest.approx(3.8e8, rel=1e-2)
    assert low < TRANSIENT.N_a < high


@pytest.mark.parametrize("params, t_int", [(PULSED, 1.0), (TRANSIENT, 0.4)])
def test_c7_cell_geometry_holds_its_atom_number(params, t_int):
    g = groupvel.cell_geometry(params, groupvel.group_velocity_steady(params), t_int)
    assert g.density * math.pi * (g.diameter / 2.0) ** 2 * g.length == pytest.approx(
        params.N_a, rel=1e-12
    )


@pytest.mark.parametrize("params, deviation", [
    (TRANSIENT, 8.8e-5), (PULSED, 2.4e-4), (LONGTIME, 3.4e-7),
])
def test_c7_resonant_group_velocity_is_the_dark_state_polariton_value(params, deviation):
    # v_g = c/(1 + g²N/Ω²) of the ideal EIT medium (Fleischhauer & Lukin,
    # PRL 84, 5094 (2000)): on resonance and without dephasing. The sets'
    # own detunings move v_g by 1.8% (transient), 50% (pulsed) and 6.1%
    # (long-time) from this value, so it is no stand-in for their bands.
    resonant = replace(
        params, delta2=0.0, delta3=0.0, eps12=0.0, eps34=0.0,
        gamma_deph_1=0.0, gamma_deph_2=0.0, gamma_deph_4=0.0, gamma_deph_5=0.0,
    )
    dsp = groupvel.OpticalConstants().c / (1.0 + params.g_p**2 * params.N_a / params.Omega1**2)
    error = abs(groupvel.group_velocity_steady(resonant) / dsp - 1.0)
    assert error < 5e-4
    assert error == pytest.approx(deviation, rel=0.05)


def test_c7_long_time_band_needs_a_medium_over_a_hundred_times_denser():
    # The band [4.35e6, 7.25e6] m/s is n_g = c/v_g in [41.35, 68.92]. The
    # dark-state-polariton relation n_g = 1 + g²N/Ω², which the set's
    # resonant route reproduces to 3.4e-7 above, then needs g²N/Ω² in
    # [40.35, 67.92]; the set has 0.3442.
    c = groupvel.OpticalConstants().c
    n_g = np.array([c / 7.25e6, c / 4.35e6])
    assert n_g == pytest.approx([41.35, 68.92], abs=5e-3)
    needed = n_g - 1.0
    have = LONGTIME.g_p**2 * LONGTIME.N_a / LONGTIME.Omega1**2
    assert have == pytest.approx(0.3442, abs=5e-5)
    assert needed / have == pytest.approx([117.2, 197.3], abs=0.05)
    # With the set's own detunings the steady route gives n_g = 1.43.
    v = groupvel.group_velocity_steady(LONGTIME)
    assert v == pytest.approx(2.0953e8, rel=5e-5)
    assert c / v == pytest.approx(1.4308, abs=1e-4)
