"""Reading the conditional phase back out of coincidence fringes.

The gate phase is not observable on a single photon; the proposed
readout interferes each output against a reference path and compares
two coincidence patterns.  This run propagates the strong transient
set, feeds the resulting phases through both readout variants and
checks that the fitted fringe offset returns the conditional phase.
"""

import math

import numpy as np

from eitgate import cli, interferometer

CONFIG = {
    **cli.DEFAULTS,
    "n_atoms": 1e8, "g_p": 0.0022, "g_t": 0.0022, "omega1": 4.0, "omega4": 4.0,
    "delta2": 15.0, "delta3": 15.0, "eps12": 0.01, "eps34": 0.01,
    "t_max": 0.4, "n_samples": 161,
}


def main():
    res = cli.run_gate_analysis(CONFIG)
    times = res["times"]
    p01, p10, p11 = res["phases"][-1]
    cps = res["cps"][-1]
    print(f"gate output at t = {times[-1]:g}: phi01 = {p01:+.4f}, "
          f"phi10 = {p10:+.4f}, phi11 = {p11:+.4f}")
    print(f"conditional phase = {cps:+.4f} rad")

    Phi = np.linspace(0.0, 4.0 * math.pi, 256, endpoint=False)
    pat1, pat2 = interferometer.fock_coincidences(Phi, cps, phi10=p10)
    fit1 = interferometer.fit_fringe(Phi, pat1)
    fit2 = interferometer.fit_fringe(Phi, pat2)
    rec = interferometer.gate_phase_from_fits(fit1, fit2)
    print("Fock-encoded readout:")
    print(f"  fringe visibilities {fit1.amplitude / fit1.offset:.3f} and "
          f"{fit2.amplitude / fit2.offset:.3f}")
    print(f"  offset between the patterns = {rec:+.4f} rad "
          f"(conditional phase mod 2pi = {math.remainder(cps, 2 * math.pi):+.4f})")

    table = interferometer.ideal_eit_phases(p10, p01, cps)
    diag = interferometer.diagonal_phases(table)
    print("polarization-encoded readout, diagonal-basis fringe phases:")
    for key in ("pp", "pm", "mp", "mm"):
        print(f"  {key}: {diag[key]:+.4f}")
    alt = diag["pp"] - diag["pm"] - diag["mp"] + diag["mm"]
    print(f"  alternating sum = {alt:+.4f} rad (single-photon phases drop out)")

    S = np.array([interferometer.chsh_parameter(c) for c in res["cps"]])
    k = int(np.argmax(S))
    print(f"CHSH parameter at the gate time: {interferometer.chsh_parameter(cps):.4f}")
    print(f"  best along the trajectory: {S[k]:.4f} at t = {times[k]:.4f} "
          f"(2*sqrt(2) needs a quarter-turn phase)")


if __name__ == "__main__":
    main()
