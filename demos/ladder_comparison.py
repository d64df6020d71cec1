"""Three-level ladder medium against the five-level scheme.

A cascade EIT medium also produces a cross-Kerr phase, but its upper
level decays straight back into the probe transition, so the phase
comes at a much higher decoherence price.  The run propagates the
ladder model with the same collective coupling as the strong transient
set and compares the conditional fidelities side by side.  The
five-level figures come from the pipeline behind `eitgate simulate`.

The photon cutoff matters here: one decay path re-emits trigger
photons, so the truncation guard is checked before any numbers are
trusted.
"""

import numpy as np

from eitgate import cli, dynamics, ladder, observables

LADDER = ladder.LadderParams(
    N_a=1e8, g_p=0.0022, g_t=0.0022, delta_p=10.0, delta_t=0.0,
    gamma21=1.0, gamma32=1.0, n_max=4,
)

FIVE_LEVEL = {
    **cli.DEFAULTS,
    "n_atoms": 1e8, "g_p": 0.0022, "g_t": 0.0022, "omega1": 4.0, "omega4": 4.0,
    "delta2": 15.0, "delta3": 15.0, "eps12": 0.01, "eps34": 0.01,
    "t_max": 0.4, "n_samples": 101,
}

T_EVAL = 0.12
AMPS = np.full(4, 0.5)


def ladder_metrics():
    psi = np.zeros(ladder.ladder_dim(LADDER.n_max), dtype=complex)
    for a, (n_p, n_t) in zip(AMPS, ((0, 0), (0, 1), (1, 0), (1, 1))):
        psi[ladder.ladder_index("G2", n_p, n_t, LADDER.n_max)] = a
    rho0 = np.outer(psi, psi.conj())

    Ls = ladder.build_ladder_liouvillian(LADDER)
    times = np.linspace(0.0, 0.24, 301)
    traj = dynamics.evolve_superoperator(Ls, rho0, times)
    leak = float(np.max(ladder.boundary_population(traj, LADDER.n_max)))
    ladder.check_truncation(traj, LADDER.n_max)
    block = ladder.photon_qubit_block(
        ladder.reduce_to_photons(traj, LADDER.n_max), LADDER.n_max
    )
    del traj
    phases = observables.phases_from_coherences(block[:, 1:4, 0], AMPS)
    cps = observables.conditional_phase_shift(phases)
    print(f"cutoff n_max = {LADDER.n_max}: worst boundary population {leak:.1e}")
    t_pi = cli.pi_crossing_time(times, cps)
    print(f"max |CPS| = {np.max(np.abs(cps)):.4f}, "
          f"|CPS| = pi crossing: {'none in window' if t_pi is None else f'{t_pi:.3f}'}")

    k = int(np.argmin(np.abs(times - T_EVAL)))
    U = observables.ideal_phase_unitary(phases[k])

    coarse = np.linspace(0.0, 0.24, 61)
    kc = int(np.argmin(np.abs(coarse - T_EVAL)))
    positions = ladder.qubit_positions(LADDER.n_max)

    def block(rho):
        return ladder.photon_qubit_block(ladder.reduce_to_photons(rho, LADDER.n_max), LADDER.n_max)

    # Read the matrix-unit maps out as images, without their dense states.
    unc = dynamics.evolve_qubit_units(Ls, positions, coarse)
    # F averages over the four basis inputs too: guard each up to T_EVAL.
    edge = unc.image(lambda rho: ladder.boundary_population(rho, LADDER.n_max))
    ladder.check_leakage(
        edge[: kc + 1, dynamics.BASIS_UNITS].real, labels=dynamics.BASIS_LABELS
    )
    lam = unc.image(block)[kc]
    del unc, Ls
    Lc = dynamics.conditional_generator(
        ladder.build_ladder_hamiltonian(LADDER), ladder.build_ladder_channels(LADDER)
    )
    con = dynamics.evolve_qubit_units(Lc, positions, coarse)
    clam = con.image(block)[kc]
    ctr = con.image(lambda rho: np.trace(rho, axis1=-2, axis2=-1))[kc]
    del con, Lc

    F = observables.average_fidelity_from_blocks(lam, U)
    cond = observables.conditional_fidelity_from_blocks(clam, ctr, U)
    return float(cps[k]), F, cond.fidelity


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
