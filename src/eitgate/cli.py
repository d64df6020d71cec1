"""Command-line front end.

Subcommands cover the main workflows: "simulate" integrates the
collective five-level gate and writes a time-series table plus a summary,
"scan" repeats that over one swept parameter, "groupvel" reports
propagation speed and cell geometry, "ladder" runs the three-level
comparison model, "perturbative" prints the analytic cross-phase, and
"fringes" tabulates the interferometer coincidence patterns. All
configuration comes from one flat JSON file; every key has a default and
unknown keys are rejected. File outputs are written atomically with LF
newlines and 17 significant digits so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import basis, dynamics, groupvel, interferometer, ladder, observables, perturbative
from .groupvel import OpticalConstants
from .ladder import LadderParams
from .mscheme import GAMMA_SI_DEFAULT, MSchemeParams

DEFAULTS: dict = {
    # medium and drive, units of γ
    "n_atoms": 1.0,
    "g_p": 0.0,
    "g_t": 0.0,
    "omega1": 0.0,
    "omega4": 0.0,
    "delta2": 0.0,
    "delta3": 0.0,
    "eps12": 0.0,
    "eps34": 0.0,
    "gamma_21": 1.0 / 3.0,
    "gamma_23": 1.0 / 3.0,
    "gamma_25": 1.0 / 3.0,
    "gamma_41": 1.0 / 3.0,
    "gamma_43": 1.0 / 3.0,
    "gamma_45": 1.0 / 3.0,
    "deph_1": 1e-3,
    "deph_2": 1e-3,
    "deph_4": 1e-3,
    "deph_5": 1e-3,
    "gamma_si": GAMMA_SI_DEFAULT,
    # integration and readout
    "t_max": 1.0,
    "n_samples": 201,
    "method": "exponential",
    "rel_tol": 1e-8,
    "abs_tol": 1e-12,
    "dephasing_mode": "lindblad",
    "mc_samples": 2000,
    "seed": 42,
    # input superposition amplitudes (real or [re, im])
    "c00": 0.5,
    "c01": 0.5,
    "c10": 0.5,
    "c11": 0.5,
    # SI constants and transition data
    "c": 299792458.0,
    "hbar": 1.054571817e-34,
    "epsilon0": 8.8541878128e-12,
    "omega_p": 2.0 * math.pi * 377.228e12,
    "omega_t": 2.0 * math.pi * 384.225e12,
    "mu_p": 2.5e-29,
    "mu_t": 2.5e-29,
    # susceptibility probing
    "probe_rabi_classical": 1e-3,
    "fd_step": 1e-3,
    "avg_grid": 200,
    # ladder comparison model
    "delta_p": 0.0,
    "delta_t": 0.0,
    "ladder_gamma21": 1.0,
    "ladder_gamma32": 1.0,
    "n_max": 3,
    "ladder_convention": "as-printed",
}

_STRING_KEYS = {
    "method": ("exponential", "adaptive-rk"),
    "dephasing_mode": ("lindblad", "excluded"),
    "ladder_convention": ladder.CONVENTIONS,
}
_INT_KEYS = {key for key, value in DEFAULTS.items() if type(value) is int}
_AMPLITUDE_KEYS = ("c00", "c01", "c10", "c11")


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file; unknown keys are fatal."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key, value in data.items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        if key in _STRING_KEYS:
            if value not in _STRING_KEYS[key]:
                raise ValueError(
                    f"config key {key!r} must be one of {_STRING_KEYS[key]}"
                )
        elif key in _AMPLITUDE_KEYS:
            _amplitude_value(key, value)
        elif key in _INT_KEYS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be an integer")
        else:
            _check_finite_number(f"config key {key!r}", value)
        cfg[key] = value
    return cfg


def _check_finite_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def _amplitude_value(key: str, value) -> complex:
    if isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be a number or [re, im]")
    if isinstance(value, (int, float)):
        c = complex(value)
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        c = complex(value[0], value[1])
    else:
        raise ValueError(f"config key {key!r} must be a number or [re, im]")
    if not cmath.isfinite(c):
        raise ValueError(f"config key {key!r} must be finite")
    return c


def amplitudes_from_config(cfg: dict) -> np.ndarray:
    return np.array([_amplitude_value(k, cfg[k]) for k in _AMPLITUDE_KEYS])


def params_from_config(cfg: dict) -> MSchemeParams:
    return MSchemeParams(
        N_a=float(cfg["n_atoms"]),
        g_p=float(cfg["g_p"]),
        g_t=float(cfg["g_t"]),
        Omega1=float(cfg["omega1"]),
        Omega4=float(cfg["omega4"]),
        delta2=float(cfg["delta2"]),
        delta3=float(cfg["delta3"]),
        eps12=float(cfg["eps12"]),
        eps34=float(cfg["eps34"]),
        gamma21=float(cfg["gamma_21"]),
        gamma23=float(cfg["gamma_23"]),
        gamma25=float(cfg["gamma_25"]),
        gamma41=float(cfg["gamma_41"]),
        gamma43=float(cfg["gamma_43"]),
        gamma45=float(cfg["gamma_45"]),
        gamma_deph_1=float(cfg["deph_1"]),
        gamma_deph_2=float(cfg["deph_2"]),
        gamma_deph_4=float(cfg["deph_4"]),
        gamma_deph_5=float(cfg["deph_5"]),
        gamma_SI=float(cfg["gamma_si"]),
    )


def ladder_params_from_config(cfg: dict) -> LadderParams:
    return LadderParams(
        N_a=float(cfg["n_atoms"]),
        g_p=float(cfg["g_p"]),
        g_t=float(cfg["g_t"]),
        delta_p=float(cfg["delta_p"]),
        delta_t=float(cfg["delta_t"]),
        gamma21=float(cfg["ladder_gamma21"]),
        gamma32=float(cfg["ladder_gamma32"]),
        n_max=int(cfg["n_max"]),
        convention=cfg["ladder_convention"],
    )


def constants_from_config(cfg: dict) -> OpticalConstants:
    return OpticalConstants(
        c=float(cfg["c"]),
        hbar=float(cfg["hbar"]),
        epsilon0=float(cfg["epsilon0"]),
        omega_p=float(cfg["omega_p"]),
        mu_p=float(cfg["mu_p"]),
    )


def _times_from_config(cfg: dict) -> np.ndarray:
    if cfg["t_max"] <= 0:
        raise ValueError("t_max must be positive")
    if cfg["n_samples"] < 2:
        raise ValueError("n_samples must be at least 2")
    return np.linspace(0.0, float(cfg["t_max"]), int(cfg["n_samples"]))


def _engine_kwargs(cfg: dict) -> dict:
    return {
        "method": cfg["method"],
        "rel_tol": float(cfg["rel_tol"]),
        "abs_tol": float(cfg["abs_tol"]),
    }


def _metrics_from_blocks(propagate, qubit_blocks, pop_names, cfg) -> dict:
    """Phases, fidelities and populations of one gate model.

    propagate(conditional=...) returns the trajectories of the sixteen
    matrix units; qubit_blocks maps (...,n,n) states of the model to
    their (...,4,4) qubit blocks; every readout is an image of the maps.
    Each map is dropped once it is read out: the unconditional one before
    the conditional one is propagated, the conditional one before the
    Monte Carlo runs. Fidelities are taken against the instantaneous
    ideal phase gate, one batched call per series.
    """
    gt = propagate(conditional=False)
    times, w = gt.times, gt.weights
    blocks = gt.image(qubit_blocks)
    super_blocks = np.einsum("k,tkab->tab", w, blocks)
    phases = observables.phases_from_coherences(super_blocks[:, 1:4, 0], gt.amplitudes)
    U = observables.ideal_phase_unitary(phases)
    fid = observables.average_fidelity_from_blocks(blocks, U)
    populations = np.einsum("k,tki->ti", w, gt.image(observables.populations)).real
    del gt, blocks
    cond = propagate(conditional=True)
    cond_blocks = cond.image(qubit_blocks)
    cond_traces = cond.image(functools.partial(np.trace, axis1=-2, axis2=-1))
    del cond
    cond_r = observables.conditional_fidelity_from_blocks(
        cond_blocks,
        cond_traces,
        U,
        mc_samples=int(cfg["mc_samples"]),
        seed=int(cfg["seed"]),
    )
    return {
        "times": times,
        "phases": phases,
        "cps": observables.conditional_phase_shift(phases),
        "fidelity": fid,
        "cond_fidelity": cond_r.fidelity,
        "p_success": cond_r.p_success,
        "populations": populations,
        "pop_names": pop_names,
    }


def run_gate_analysis(cfg: dict) -> dict:
    """Phases, fidelities and populations of the five-level gate."""
    propagate = functools.partial(
        dynamics.evolve_gate_inputs,
        params_from_config(cfg),
        _times_from_config(cfg),
        amplitudes_from_config(cfg),
        dephasing_mode=cfg["dephasing_mode"],
        **_engine_kwargs(cfg),
    )
    return _metrics_from_blocks(
        propagate,
        lambda rho: observables.qubit_block(observables.reduce_to_fields(rho)),
        basis.state_names(basis.M_STATES),
        cfg,
    )


def run_ladder_analysis(cfg: dict) -> dict:
    """Same metrics for the three-level comparison model."""
    params = ladder_params_from_config(cfg)
    n_max = params.n_max
    times = _times_from_config(cfg)
    amps = amplitudes_from_config(cfg)
    kw = _engine_kwargs(cfg)

    def propagate(conditional):
        traj = ladder.evolve_ladder_gate(params, times, amps, conditional=conditional, **kw)
        if not conditional:
            # Guard the superposition and the four basis inputs the
            # fidelities average over, before the conditional map is run.
            leak = traj.image(lambda rho: ladder.boundary_population(rho, n_max))
            ladder.check_leakage((leak @ traj.weights).real)
            ladder.check_leakage(
                leak[:, dynamics.BASIS_UNITS].real, labels=dynamics.BASIS_LABELS
            )
        return traj

    return _metrics_from_blocks(
        propagate,
        lambda rho: ladder.photon_qubit_block(ladder.reduce_to_photons(rho, n_max), n_max),
        basis.state_names(ladder.ladder_states(n_max)),
        cfg,
    )


def pi_crossing_time(times: np.ndarray, cps: np.ndarray) -> float | None:
    """First time |cps| reaches π, linearly interpolated; None if never."""
    a = np.abs(np.asarray(cps))
    hits = np.nonzero(a >= math.pi)[0]
    if hits.size == 0:
        return None
    k = int(hits[0])
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    a0, a1 = a[k - 1], a[k]
    return float(t0 + (math.pi - a0) * (t1 - t0) / (a1 - a0))


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _gate_columns(res: dict) -> dict:
    """Per-time gate quantities, named as in timeseries.csv and summary.json."""
    phases = res["phases"]
    return {
        "phi01": phases[:, 0],
        "phi10": phases[:, 1],
        "phi11": phases[:, 2],
        **{k: res[k] for k in ("cps", "fidelity", "cond_fidelity", "p_success")},
    }


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per sample of the stacked (T,) or (T, k) columns."""
    rows = np.column_stack(columns).tolist()
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_timeseries(outdir: Path, res: dict) -> None:
    columns = _gate_columns(res)
    header = ["time", *columns] + [f"pop_{n}" for n in res["pop_names"]]
    _write_csv(
        outdir / "timeseries.csv", header, [res["times"], *columns.values(), res["populations"]]
    )


def _values_at(res: dict, t: float) -> dict:
    tt = res["times"]
    at = {k: float(np.interp(t, tt, v)) for k, v in _gate_columns(res).items()}
    return {"time": float(t), **at}


def _write_summary(outdir: Path, cfg: dict, res: dict, derived: dict) -> None:
    t_pi = pi_crossing_time(res["times"], res["cps"])
    summary = {
        "config": cfg,
        "derived": derived,
        "at_t_max": _values_at(res, float(res["times"][-1])),
        "pi_crossing": t_pi,
        "at_pi_crossing": None if t_pi is None else _values_at(res, t_pi),
    }
    _atomic_write(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_with_overrides(args) -> dict:
    cfg = load_config(getattr(args, "config", None))
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg["seed"] = seed
    # Settings the Monte Carlo and the phase readout would refuse only
    # after propagating are rejected here, before any propagation.
    observables.check_sampling(cfg["mc_samples"], cfg["seed"])
    c = amplitudes_from_config(cfg)
    nrm = np.linalg.norm(c)
    if nrm == 0:
        raise ValueError(f"config keys {', '.join(_AMPLITUDE_KEYS)} are all zero")
    if abs(c[0] / nrm) < 1e-12:
        raise ValueError("config key 'c00' is below 1e-12 of the amplitude norm")
    # At t = 0 the coherence <q_k|rho|q_0> is c_k c_00* / |c|^2.
    for key, ck in zip(_AMPLITUDE_KEYS[1:], c[1:]):
        if abs(ck * c[0]) / nrm**2 < 1e-12:
            raise ValueError(
                f"config key {key!r} times 'c00' is below 1e-12 of the squared amplitude norm"
            )
    return cfg


def _write_gate_outputs(args, cfg: dict, res: dict, derived: dict) -> int:
    outdir = _outdir(args)
    _write_timeseries(outdir, res)
    _write_summary(outdir, cfg, res, derived)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_with_overrides(args)
    res = run_gate_analysis(cfg)
    params = params_from_config(cfg)
    derived = {"delta1": params.delta1, "delta4": params.delta4}
    return _write_gate_outputs(args, cfg, res, derived)


def cmd_ladder(args) -> int:
    cfg = _config_with_overrides(args)
    res = run_ladder_analysis(cfg)
    derived = {"ladder_dim": ladder.ladder_dim(int(cfg["n_max"]))}
    return _write_gate_outputs(args, cfg, res, derived)


def cmd_scan(args) -> int:
    cfg = _config_with_overrides(args)
    if args.param not in DEFAULTS:
        raise ValueError(f"unknown scan parameter {args.param!r}")
    if args.param in _STRING_KEYS or args.param in _AMPLITUDE_KEYS:
        raise ValueError(f"scan parameter {args.param!r} is not numeric")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    for flag, bound in (("--from", args.from_), ("--to", args.to)):
        if not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite")
    values = np.linspace(args.from_, args.to, args.steps)
    lines = ["value,pi_time,fidelity,cond_fidelity,error"]
    for value in values:
        cfg_i = dict(cfg)
        cfg_i[args.param] = int(round(value)) if args.param in _INT_KEYS else float(value)
        pi_s = fid_s = cond_s = ""
        err = ""
        try:
            res = run_gate_analysis(cfg_i)
            t_pi = pi_crossing_time(res["times"], res["cps"])
            if t_pi is not None:
                pi_s = _fmt(t_pi)
                fid_s = _fmt(np.interp(t_pi, res["times"], res["fidelity"]))
                cond_s = _fmt(np.interp(t_pi, res["times"], res["cond_fidelity"]))
        except (ValueError, RuntimeError) as exc:  # keep scanning, record the failure
            err = str(exc).replace(",", ";").replace("\n", " ")
        lines.append(f"{_fmt(value)},{pi_s},{fid_s},{cond_s},{err}")
    _atomic_write(_outdir(args) / "scan.csv", "\n".join(lines) + "\n")
    return 0


def cmd_groupvel(args) -> int:
    cfg = _config_with_overrides(args)
    params = params_from_config(cfg)
    constants = constants_from_config(cfg)
    common = {
        "fd_step": float(cfg["fd_step"]),
        "probe_rabi_classical": float(cfg["probe_rabi_classical"]),
        "constants": constants,
    }
    v_steady = groupvel.group_velocity_steady(params, **common)
    v_transient = groupvel.group_velocity_transient(
        params,
        float(cfg["t_max"]),
        avg_grid=int(cfg["avg_grid"]),
        **_engine_kwargs(cfg),
        **common,
    )
    geom = groupvel.cell_geometry(params, v_transient, float(cfg["t_max"]), constants)
    out = {
        "v_g_steady": v_steady,
        "v_g_transient": v_transient,
        "L": geom.length,
        "V": geom.volume,
        "d": geom.diameter,
        "density": geom.density,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.out is not None:
        offsets = np.linspace(-1.0, 1.0, 201)
        chi = groupvel.steady_susceptibility(
            params, offsets, probe_rabi_classical=common["probe_rabi_classical"],
            constants=constants,
        )
        header = ["offset", "chi_real", "chi_imag"]
        _write_csv(_outdir(args) / "chi.csv", header, [offsets, chi.real, chi.imag])
    return 0


def cmd_perturbative(args) -> int:
    cfg = _config_with_overrides(args)
    params = params_from_config(cfg)
    t = float(cfg["t_max"])
    lam_p, lam_t, lam_pt = perturbative.phase_rates(params)
    out = {
        "closed_form": perturbative.closed_form_phase(params, t),
        "eigenvalue": perturbative.eigenvalue_phase(params, t),
        "lambda_p": lam_p,
        "lambda_t": lam_t,
        "lambda_pt": lam_pt,
        "t": t,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


_FRINGE_KEYS = ("cps", "phi10", "phi00", "phi_plus0")


def load_phase_table(path: str) -> dict:
    """Flat JSON phase table in radians, keyed by the fock_coincidences
    parameters; unknown keys are fatal."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("phase table must be a JSON object")
    table = {k: 0.0 for k in _FRINGE_KEYS}
    for key, value in data.items():
        if key not in table:
            raise ValueError(f"unknown phase key {key!r}")
        _check_finite_number(f"phase key {key!r}", value)
        table[key] = float(value)
    return table


def cmd_fringes(args) -> int:
    table = load_phase_table(args.phases)
    Phi = np.linspace(0.0, 4.0 * math.pi, 256, endpoint=False)
    p1, p2 = interferometer.fock_coincidences(Phi, **table)
    _write_csv(_outdir(args) / "fringes.csv", ["Phi", "P_RB1", "P_RB2"], [Phi, p1, p2])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitgate",
        description="Simulate and analyze the two-photon phase gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True, seed=True):
        p.add_argument("--config", help="JSON config file (flat keys)")
        if out:
            p.add_argument("--out", help="output directory (default: current)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("simulate", help="integrate the five-level gate")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="sweep one numeric config key")
    add_common(p)
    p.add_argument("--param", required=True, help="config key to sweep")
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("groupvel", help="group velocity and cell geometry")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_groupvel)

    p = sub.add_parser("ladder", help="three-level comparison model")
    add_common(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("perturbative", help="analytic cross-phase estimates")
    add_common(p, out=False, seed=False)
    p.set_defaults(func=cmd_perturbative)

    p = sub.add_parser("fringes", help="interferometer coincidence patterns")
    p.add_argument(
        "--phases",
        required=True,
        help="JSON phase table (keys cps, phi10, phi00, phi_plus0; radians)",
    )
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_fringes)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # "--to -1e-3" would read as two flags
        if argv[i] in ("--from", "--to"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
