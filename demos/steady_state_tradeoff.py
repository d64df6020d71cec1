"""Slow phase accumulation against decoherence at weak coupling.

At g*sqrt(N) comparable to the pump Rabi frequencies the conditional
phase needs hundreds of lifetimes to reach pi, so the fidelity decays
visibly on the way.  The run prints the trade-off at a few waypoints
and compares dephasing switched on and off at the crossing.
"""

import numpy as np

from eitgate import cli

CONFIG = {
    **cli.DEFAULTS,
    "n_atoms": 1e6, "g_p": 0.0011, "g_t": 0.0011, "omega1": 1.875, "omega4": 1.875,
    "delta2": 7.5, "delta3": 7.5, "eps12": 0.05, "eps34": 0.05,
    "t_max": 700.0, "n_samples": 1401,
}
NO_DEPHASING = {"deph_1": 0.0, "deph_2": 0.0, "deph_4": 0.0, "deph_5": 0.0}


def at_crossing(res):
    """Crossing time and the (F, F_c) sample nearest to it."""
    times = res["times"]
    t_pi = cli.pi_crossing_time(times, res["cps"])
    k = int(np.argmin(np.abs(times - t_pi)))
    return t_pi, res["fidelity"][k], res["cond_fidelity"][k]


def main():
    print("with dephasing (takes a moment)...")
    res = cli.run_gate_analysis(CONFIG)
    times = res["times"]
    print(f"{'t':>7} {'CPS':>9} {'F':>7} {'F_c':>7}")
    for t in (100.0, 300.0, 500.0, 700.0):
        k = int(np.argmin(np.abs(times - t)))
        print(f"{times[k]:7.1f} {res['cps'][k]:+9.4f} "
              f"{res['fidelity'][k]:7.4f} {res['cond_fidelity'][k]:7.4f}")
    t_pi, F_on, Fc_on = at_crossing(res)
    print(f"|CPS| reaches pi at t = {t_pi:.1f}: F = {F_on:.4f}, F_c = {Fc_on:.4f}")

    print("same run without dephasing...")
    t_pi, F_off, Fc_off = at_crossing(cli.run_gate_analysis({**CONFIG, **NO_DEPHASING}))
    print(f"|CPS| reaches pi at t = {t_pi:.1f}: F = {F_off:.4f}, F_c = {Fc_off:.4f}")
    print(f"dephasing costs {F_off - F_on:.4f} in F at the crossing")


if __name__ == "__main__":
    main()
