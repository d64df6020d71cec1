"""Transient operation of the collective two-photon gate.

Runs the strongly coupled operating point, locates the first time the
conditional phase reaches pi, and reports the gate metrics there.
"""

import numpy as np

from eitgate import cli

CONFIG = {
    **cli.DEFAULTS,
    "n_atoms": 1e8, "g_p": 0.0022, "g_t": 0.0022, "omega1": 4.0, "omega4": 4.0,
    "delta2": 15.0, "delta3": 15.0, "eps12": 0.01, "eps34": 0.01,
    "t_max": 1.0, "n_samples": 401,
}


def main():
    print("propagating the unconditional and the no-jump conditional map...")
    res = cli.run_gate_analysis(CONFIG)
    times, cps = res["times"], res["cps"]
    t_pi = cli.pi_crossing_time(times, cps)
    print(f"first |CPS| = pi crossing at t = {t_pi:.4f} (units of 1/gamma)")

    k = int(np.argmin(np.abs(times - 0.4)))
    p = res["p_success"][k]
    print(f"at the plateau time t = {times[k]:.2f}:")
    print(f"  CPS                  = {cps[k]:+.4f} rad")
    print(f"  average fidelity     = {res['fidelity'][k]:.4f}")
    print(f"  conditional fidelity = {res['cond_fidelity'][k]:.4f}")
    print(f"  success probability  = {p:.4f} (amplitude norm {np.sqrt(p):.4f})")


if __name__ == "__main__":
    main()
