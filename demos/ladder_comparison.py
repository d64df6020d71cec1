"""Three-level ladder medium against the five-level scheme.

A cascade EIT medium also produces a cross-Kerr phase, but its upper
level decays straight back into the probe transition, so the phase
comes at a much higher decoherence price.  The run propagates the
ladder model with the same collective coupling as the strong transient
set and compares the conditional fidelities side by side.  Both media's
fidelities come from the pipelines behind `eitgate ladder` and
`eitgate simulate`.

The photon cutoff matters here: one decay path re-emits trigger
photons, so the truncation guard is checked before any numbers are
trusted.
"""

import numpy as np

from eitgate import cli, dynamics, ladder, observables

LADDER_CONFIG = {
    **cli.DEFAULTS,
    "n_atoms": 1e8, "g_p": 0.0022, "g_t": 0.0022, "delta_p": 10.0, "delta_t": 0.0,
    "ladder_gamma21": 1.0, "ladder_gamma32": 1.0, "n_max": 4,
}

FIVE_LEVEL = {
    **cli.DEFAULTS,
    "n_atoms": 1e8, "g_p": 0.0022, "g_t": 0.0022, "omega1": 4.0, "omega4": 4.0,
    "delta2": 15.0, "delta3": 15.0, "eps12": 0.01, "eps34": 0.01,
    "t_max": 0.4, "n_samples": 101,
}

T_EVAL = 0.12


def ladder_metrics():
    params = cli.ladder_params_from_config(LADDER_CONFIG)
    n_max = params.n_max
    amps = cli.amplitudes_from_config(LADDER_CONFIG)
    psi = np.zeros(ladder.ladder_dim(n_max), dtype=complex)
    psi[ladder.qubit_positions(n_max)] = amps
    rho0 = np.outer(psi, psi.conj())

    # The superposition alone, over twice the evaluation window.
    times = np.linspace(0.0, 0.24, 301)
    traj = dynamics.evolve_superoperator(ladder.build_ladder_liouvillian(params), rho0, times)
    leak = float(np.max(ladder.boundary_population(traj, n_max)))
    ladder.check_truncation(traj, n_max)
    block = ladder.photon_qubit_block(ladder.reduce_to_photons(traj, n_max), n_max)
    del traj
    phases = observables.phases_from_coherences(block[:, 1:4, 0], amps)
    cps = observables.conditional_phase_shift(phases)
    print(f"cutoff n_max = {n_max}: worst boundary population {leak:.1e}")
    t_pi = cli.pi_crossing_time(times, cps)
    print(f"max |CPS| = {np.max(np.abs(cps)):.4f}, "
          f"|CPS| = pi crossing: {'none in window' if t_pi is None else f'{t_pi:.3f}'}")

    # F and F_c at T_EVAL, with the pipeline's guard on every input.
    k = int(np.argmin(np.abs(times - T_EVAL)))
    res = cli.run_ladder_analysis({**LADDER_CONFIG, "t_max": T_EVAL, "n_samples": 31})
    return float(cps[k]), res["fidelity"][-1], res["cond_fidelity"][-1]


def five_level_metrics():
    res = cli.run_gate_analysis(FIVE_LEVEL)
    return float(res["cps"][-1]), res["fidelity"][-1], res["cond_fidelity"][-1]


def main():
    print("ladder medium (three levels, cascade):")
    cps_l, F_l, Fc_l = ladder_metrics()
    print(f"  at t = {T_EVAL:g}: CPS = {cps_l:+.4f}, F = {F_l:.4f}, F_c = {Fc_l:.4f}")
    print("five-level scheme at its plateau time:")
    cps_m, F_m, Fc_m = five_level_metrics()
    print(f"  at t = 0.4:  CPS = {cps_m:+.4f}, F = {F_m:.4f}, F_c = {Fc_m:.4f}")
    print(f"conditioning rescues the five-level gate (F_c - F = {Fc_m - F_m:+.4f})")
    print(f"but not the ladder (F_c - F = {Fc_l - F_l:+.4f}): its phase is paid")
    print("for with decays inside the probe transition itself")


if __name__ == "__main__":
    main()
