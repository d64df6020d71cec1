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
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import basis, dynamics, groupvel, interferometer, ladder, observables, perturbative
from .groupvel import OpticalConstants
from .ladder import LadderParams
from .mscheme import GAMMA_SI_DEFAULT, MSchemeParams

# One row per config key: its default; its kind (float, int, complex for an
# amplitude given as a number or [re, im], or the tuple of its allowed
# strings); the model fields it sets, by class, each read as its kind; how a
# gate run reads it (_HAMILTONIAN: in the five-level Hamiltonian alone, so
# scan points that differ in nothing else run as one generator stack; _GATE:
# otherwise; None: not at all); and the bound load_config checks (_POSITIVE,
# _SAMPLES for 2 to _MAX_SAMPLES, or an integer's least value).
_Key = namedtuple("_Key", "default kind fields gate bound", defaults=({}, None, None))
_HAMILTONIAN, _GATE = "hamiltonian", "gate"
_POSITIVE, _SAMPLES = "positive", "samples"
_CONFIG = {
    # medium and drive, units of γ
    "n_atoms": _Key(1.0, float, {MSchemeParams: "N_a", LadderParams: "N_a"}, _HAMILTONIAN),
    "g_p": _Key(0.0, float, {MSchemeParams: "g_p", LadderParams: "g_p"}, _HAMILTONIAN),
    "g_t": _Key(0.0, float, {MSchemeParams: "g_t", LadderParams: "g_t"}, _HAMILTONIAN),
    "omega1": _Key(0.0, float, {MSchemeParams: "Omega1"}, _HAMILTONIAN),
    "omega4": _Key(0.0, float, {MSchemeParams: "Omega4"}, _HAMILTONIAN),
    "delta2": _Key(0.0, float, {MSchemeParams: "delta2"}, _HAMILTONIAN),
    "delta3": _Key(0.0, float, {MSchemeParams: "delta3"}, _HAMILTONIAN),
    "eps12": _Key(0.0, float, {MSchemeParams: "eps12"}, _HAMILTONIAN),
    "eps34": _Key(0.0, float, {MSchemeParams: "eps34"}, _HAMILTONIAN),
    "gamma_21": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma21"}, _GATE),
    "gamma_23": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma23"}, _GATE),
    "gamma_25": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma25"}, _GATE),
    "gamma_41": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma41"}, _GATE),
    "gamma_43": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma43"}, _GATE),
    "gamma_45": _Key(1.0 / 3.0, float, {MSchemeParams: "gamma45"}, _GATE),
    "deph_1": _Key(1e-3, float, {MSchemeParams: "gamma_deph_1"}, _GATE),
    "deph_2": _Key(1e-3, float, {MSchemeParams: "gamma_deph_2"}, _GATE),
    "deph_4": _Key(1e-3, float, {MSchemeParams: "gamma_deph_4"}, _GATE),
    "deph_5": _Key(1e-3, float, {MSchemeParams: "gamma_deph_5"}, _GATE),
    "gamma_si": _Key(GAMMA_SI_DEFAULT, float, {MSchemeParams: "gamma_SI"}),
    # integration and readout
    "t_max": _Key(1.0, float, gate=_GATE, bound=_POSITIVE),
    "n_samples": _Key(201, int, gate=_GATE, bound=_SAMPLES),
    "method": _Key("exponential", dynamics.METHODS, gate=_GATE),
    "rel_tol": _Key(1e-8, float, gate=_GATE),
    "abs_tol": _Key(1e-12, float, gate=_GATE),
    "dephasing_mode": _Key("lindblad", dynamics.DEPHASING_MODES, gate=_GATE),
    "mc_samples": _Key(2000, int, bound=1),
    "seed": _Key(42, int, bound=0),
    # input superposition amplitudes
    "c00": _Key(0.5, complex, gate=_GATE),
    "c01": _Key(0.5, complex, gate=_GATE),
    "c10": _Key(0.5, complex, gate=_GATE),
    "c11": _Key(0.5, complex, gate=_GATE),
    # SI constants and transition data
    "c": _Key(299792458.0, float, {OpticalConstants: "c"}),
    "hbar": _Key(1.054571817e-34, float, {OpticalConstants: "hbar"}),
    "epsilon0": _Key(8.8541878128e-12, float, {OpticalConstants: "epsilon0"}),
    "omega_p": _Key(2.0 * math.pi * 377.228e12, float, {OpticalConstants: "omega_p"}),
    "omega_t": _Key(2.0 * math.pi * 384.225e12, float),
    "mu_p": _Key(2.5e-29, float, {OpticalConstants: "mu_p"}),
    "mu_t": _Key(2.5e-29, float),
    # susceptibility probing
    "probe_rabi_classical": _Key(1e-3, float),
    "fd_step": _Key(1e-3, float),
    "avg_grid": _Key(200, int, bound=_SAMPLES),
    # ladder comparison model
    "delta_p": _Key(0.0, float, {LadderParams: "delta_p"}),
    "delta_t": _Key(0.0, float, {LadderParams: "delta_t"}),
    "ladder_gamma21": _Key(1.0, float, {LadderParams: "gamma21"}),
    "ladder_gamma32": _Key(1.0, float, {LadderParams: "gamma32"}),
    "n_max": _Key(3, int, {LadderParams: "n_max"}),
    "ladder_convention": _Key("as-printed", ladder.CONVENTIONS, {LadderParams: "convention"}),
}
DEFAULTS: dict = {key: row.default for key, row in _CONFIG.items()}
_INT_KEYS = {key for key, row in _CONFIG.items() if row.kind is int}
_AMPLITUDE_KEYS = tuple(key for key, row in _CONFIG.items() if row.kind is complex)
_HAMILTONIAN_KEYS = frozenset(key for key, row in _CONFIG.items() if row.gate == _HAMILTONIAN)
# Points per generator stack of a scan, so the stacked generators and
# their build temporaries do not grow with --steps. At the benchmark's
# scan point the two builds cost ~2.5 ms for one point and ~0.2 ms per
# point from 16 on, while the traced peak grows ~0.11 MB per point.
SCAN_STACK = 16
# The most float64 time samples one numpy array can index; numpy refuses
# a longer np.linspace with an error that names no key.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8
# Time samples a gate run steps, reads out and scores at once, so that its
# memory grows with n_samples by its output columns alone: a budget of
# 1 MiB at 32 KiB a sample. A sample's blocks, images and metric
# temporaries take 17 KB (the n_max 3 ladder) to 21 KB (the five-level
# gate) of traced memory in a whole run, and below 32 samples the ladder
# benchmark's peak RSS falls no further. Any length gives the same results.
_CHUNK_SAMPLES = 2**20 // 2**15
# The errors a run reports by name: main prints them on one line and exits
# 1, a scan records them in the failing point's row.
_RUN_FAILURES = (ValueError, RuntimeError, MemoryError)


def _load_object(path: str, name: str, key_name: str) -> dict:
    """The JSON object in path, named name; a key given twice is refused."""

    def unique(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ValueError(f"{key_name} {key!r} is given more than once")
            data[key] = value
        return data

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=unique)
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object")
    return data


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON file; unknown keys are fatal, and
    each value must be of its key's kind and within its bound."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    for key, value in _load_object(path, "config", "config key").items():
        if key not in _CONFIG:
            raise ValueError(f"unknown config key {key!r}")
        _check_value(key, value)
        cfg[key] = value
    return cfg


def _check_value(key: str, value) -> None:
    """Refuse, naming key, a value not of its row's kind or outside its bound."""
    kind = _CONFIG[key].kind
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"config key {key!r} must be one of {kind}")
    elif kind is complex:
        _amplitude_value(key, value)
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be an integer")
    else:
        _check_finite_number(f"config key {key!r}", value)
    _check_bound(key, value)


def _check_bound(key: str, value) -> None:
    bound = _CONFIG[key].bound
    if bound == _POSITIVE and value <= 0:
        raise ValueError(f"{key} must be positive")
    if bound == _SAMPLES and value < 2:
        raise ValueError(f"{key} must be at least 2")
    if bound == _SAMPLES and value > _MAX_SAMPLES:
        raise ValueError(f"{key} must be at most {_MAX_SAMPLES} (the longest float64 array)")
    if type(bound) is int and value < bound:
        raise ValueError(f"{key} must be at least {bound}, got {value}")


def _check_finite_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")


def _amplitude_value(key: str, value) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            raise ValueError(f"config key {key!r} must be a number or [re, im]")
        _check_finite_number(f"config key {key!r}", part)
    return complex(*parts)


def amplitudes_from_config(cfg: dict) -> np.ndarray:
    return np.array([_amplitude_value(k, cfg[k]) for k in _AMPLITUDE_KEYS])


def _from_config(cls, cfg: dict):
    """cls from the keys whose rows set its fields, each read as its kind."""
    return cls(**{
        row.fields[cls]: row.kind(cfg[key]) if row.kind in (float, int) else cfg[key]
        for key, row in _CONFIG.items() if cls in row.fields
    })


def params_from_config(cfg: dict) -> MSchemeParams:
    return _from_config(MSchemeParams, cfg)


def ladder_params_from_config(cfg: dict) -> LadderParams:
    return _from_config(LadderParams, cfg)


def constants_from_config(cfg: dict) -> OpticalConstants:
    return _from_config(OpticalConstants, cfg)


def _times_from_config(cfg: dict, key: str = "n_samples") -> np.ndarray:
    """cfg[key] samples over [0, t_max], both keys within their bounds."""
    _check_bound("t_max", cfg["t_max"])
    _check_bound(key, cfg[key])
    return _linspace(key, 0.0, float(cfg["t_max"]), int(cfg[key]))


def _linspace(name: str, start: float, stop: float, num: int) -> np.ndarray:
    """np.linspace; a grid that does not fit in memory is refused naming name.
    numpy raises ValueError, not MemoryError, for the longest grids."""
    try:
        return np.linspace(start, stop, num)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"{name} {num} does not fit in memory: {exc}") from exc


def _engine_kwargs(cfg: dict) -> dict:
    return {
        "method": cfg["method"],
        "rel_tol": float(cfg["rel_tol"]),
        "abs_tol": float(cfg["abs_tol"]),
    }


def _metrics_from_blocks(propagate, states, times, guard=None) -> dict:
    """Phases, fidelities and populations of one gate model along times.

    propagate(conditional=..., chunk=...) returns the trajectories of the
    sixteen matrix units on the states, as GateTrajectories of consecutive
    chunks of chunk time samples; the index maps of basis read them out.
    Each chunk is read, scored into the output columns and dropped before
    the next is stepped. The unconditional map is taken to its end, and
    guard, if given, called on its edge series (T, 16) and the
    superposition's weights, before the conditional map is propagated. A
    run whose scoring fails is scored again as one chunk, which raises
    what a whole run raises: each check of the readout names the first
    failing sample of the series, and a later chunk may fail a check that
    ranks above.
    """
    try:
        return _scored(propagate, states, times, guard, _CHUNK_SAMPLES)
    except ValueError:
        pass  # rescored once the failed run's chunks are released
    return _scored(propagate, states, times, guard, _MAX_SAMPLES)


def _scored(propagate, states, times, guard, chunk: int) -> dict:
    """_metrics_from_blocks in chunks of chunk time samples, each index map
    built once. Fidelities use the instantaneous ideal phase gate, one call
    per chunk; the conditional one is the exact Haar average (no draws)."""
    T, qubit, pop_cells = times.size, basis.qubit_cells(states), basis.population_cells(states)
    edge = None if guard is None else basis.edge_cells(states)
    phases, fid, populations = np.empty((T, 3)), np.empty(T), np.empty((T, len(states)))
    leak = None if guard is None else np.empty((T, 16), dtype=complex)
    start = 0
    for gt in propagate(conditional=False, chunk=chunk):
        at = slice(start, start + gt.times.size)
        blocks = gt.image(qubit).reshape(-1, 16, 4, 4)
        super_blocks = np.einsum("k,tkab->tab", gt.weights, blocks)
        phases[at] = observables._phases_after(
            phases[start - 1] if start else None, super_blocks[:, 1:4, 0], gt.amplitudes
        )
        fid[at] = observables.average_fidelity_from_blocks(
            blocks, observables.ideal_phase_unitary(phases[at])
        )
        populations[at] = gt.image(pop_cells, superposed=True).real
        if guard is not None:
            leak[at] = gt.image(edge)[..., 0]
        start, weights = at.stop, gt.weights
        del gt, blocks  # before the next chunk is stepped
    if guard is not None:
        guard(leak, weights)
        del leak
    trace, cond_fid, p_success, start = basis.trace_cells(states), np.empty(T), np.empty(T), 0
    for gt in propagate(conditional=True, chunk=chunk):
        at = slice(start, start + gt.times.size)
        cond_blocks = gt.image(qubit).reshape(-1, 16, 4, 4)
        cond_traces = gt.image(trace)[..., 0]
        del gt
        cond_fid[at], p_success[at] = observables.haar_conditional_fidelity(
            cond_blocks, cond_traces, observables.ideal_phase_unitary(phases[at])
        )
        start = at.stop
    return {
        "times": times,
        "phases": phases,
        "cps": observables.conditional_phase_shift(phases),
        "fidelity": fid,
        "cond_fidelity": cond_fid,
        "p_success": p_success,
        "populations": populations,
        "pop_names": basis.state_names(states),
    }


def run_gate_analysis(cfg: dict) -> dict:
    """Phases, fidelities and populations of the five-level gate."""
    (run,) = _gate_runs([cfg])
    return run()


def _gate_runs(cfgs: list[dict]) -> list:
    """One call per config that returns its run_gate_analysis result,
    the configs being one generator stack: they differ in
    _HAMILTONIAN_KEYS alone. Call them in order."""
    cfg, params = cfgs[0], [params_from_config(c) for c in cfgs]
    times = _times_from_config(cfg)
    evolve = dynamics.gate_input_stack(
        params, times, amplitudes_from_config(cfg), dephasing_mode=cfg["dephasing_mode"],
        **_engine_kwargs(cfg),
    )
    return [
        functools.partial(
            _metrics_from_blocks, functools.partial(evolve, k), basis.M_STATES, times
        )
        for k in range(len(cfgs))
    ]


def run_ladder_analysis(cfg: dict) -> dict:
    """Same metrics for the three-level comparison model. A run that does
    not fit in memory after its time grid is refused naming n_max."""
    params = ladder_params_from_config(cfg)
    times = _times_from_config(cfg)
    states = ladder.ladder_states(params.n_max)
    amps, kw = amplitudes_from_config(cfg), _engine_kwargs(cfg)
    propagate = functools.partial(ladder.evolve_ladder_gate, params, times, amps, **kw)

    def guard(leak, weights):
        # The superposition and the four basis inputs the fidelities average over.
        ladder.check_leakage((leak @ weights).real)
        ladder.check_leakage(leak[:, dynamics.BASIS_UNITS].real, labels=dynamics.BASIS_LABELS)

    try:
        return _metrics_from_blocks(propagate, states, times, guard)
    except MemoryError as exc:
        raise ValueError(
            f"n_max {params.n_max} with n_samples {times.size} does not fit in memory: {exc}"
        ) from exc


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


def _checked_config(args) -> dict:
    """The loaded config, refused if the phase readout would refuse its
    amplitudes only after propagating."""
    cfg = load_config(getattr(args, "config", None))
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
    cfg = _checked_config(args)
    res = run_gate_analysis(cfg)
    params = params_from_config(cfg)
    derived = {"delta1": params.delta1, "delta4": params.delta4}
    return _write_gate_outputs(args, cfg, res, derived)


def cmd_ladder(args) -> int:
    cfg = _checked_config(args)
    res = run_ladder_analysis(cfg)
    derived = {"ladder_dim": ladder.ladder_dim(int(cfg["n_max"]))}
    return _write_gate_outputs(args, cfg, res, derived)


def cmd_scan(args) -> int:
    cfg = _checked_config(args)
    row = _CONFIG.get(args.param)
    if row is None:
        raise ValueError(f"unknown scan parameter {args.param!r}")
    if row.kind not in (float, int):
        raise ValueError(f"scan parameter {args.param!r} is not numeric")
    if row.gate is None:
        raise ValueError(f"scan parameter {args.param!r} is not read by a gate run")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    if args.steps > _MAX_SAMPLES:
        raise ValueError(f"--steps must be at most {_MAX_SAMPLES} (the longest float64 array)")
    for flag, bound in (("--from", args.from_), ("--to", args.to)):
        if not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite")
    values = _linspace("--steps", args.from_, args.to, args.steps)
    lines = ["value,pi_time,fidelity,cond_fidelity,error"]
    for value, res in zip(values, _scan_results(_scan_points(cfg, args.param, values))):
        pi_s = fid_s = cond_s = err = ""
        if isinstance(res, Exception):  # keep scanning, record the failure
            err = (str(res) or type(res).__name__).replace(",", ";").replace("\n", " ")
        else:
            t_pi = pi_crossing_time(res["times"], res["cps"])
            if t_pi is not None:
                at = _values_at(res, t_pi)
                pi_s, fid_s, cond_s = (_fmt(at[k]) for k in ("time", "fidelity", "cond_fidelity"))
        lines.append(f"{_fmt(value)},{pi_s},{fid_s},{cond_s},{err}")
    _atomic_write(_outdir(args) / "scan.csv", "\n".join(lines) + "\n")
    return 0


def _scan_points(cfg: dict, param: str, values):
    """The config of each scan point, or the error of the checks load_config
    applies to its value (an integer key's must be integral) and of those a
    generator stack needs of its points."""
    for value in values:
        cfg_i = dict(cfg)
        integral = param in _INT_KEYS and float(value).is_integer()
        cfg_i[param] = int(value) if integral else float(value)
        try:
            _check_value(param, cfg_i[param])
            params_from_config(cfg_i)
            _times_from_config(cfg_i)
        except _RUN_FAILURES as exc:
            cfg_i = exc
        yield cfg_i


def _scan_results(points):
    """The run_gate_analysis result of each config among points, or the
    error its run raised, in order; an error among points stands for its
    point. Consecutive configs that differ in _HAMILTONIAN_KEYS alone run
    as generator stacks of at most SCAN_STACK points, so at most one
    stack of configs is held at a time."""
    for key, group in itertools.groupby(points, _stack_key):
        if key is None:
            yield from group
            continue
        while stack := list(itertools.islice(group, SCAN_STACK)):
            for run in _gate_runs(stack):
                try:
                    yield run()
                except _RUN_FAILURES as exc:
                    yield exc


def _stack_key(point) -> dict | None:
    """The config keys a stack shares; None for an error."""
    if isinstance(point, Exception):
        return None
    return {k: v for k, v in point.items() if k not in _HAMILTONIAN_KEYS}


def cmd_groupvel(args) -> int:
    cfg = _checked_config(args)
    _times_from_config(cfg, "avg_grid")  # the transient's grid, checked before any solve
    params = params_from_config(cfg)
    constants = constants_from_config(cfg)
    common = {
        "fd_step": float(cfg["fd_step"]),
        "probe_rabi_classical": float(cfg["probe_rabi_classical"]),
        "constants": constants,
    }
    # The steady work runs, and frees its generators, before the transient.
    v_steady = groupvel.group_velocity_steady(params, **common)
    if args.out is not None:
        offsets = np.linspace(-1.0, 1.0, 201)
        chi = groupvel.steady_susceptibility(
            params, offsets, probe_rabi_classical=common["probe_rabi_classical"],
            constants=constants,
        )
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
        header = ["offset", "chi_real", "chi_imag"]
        _write_csv(_outdir(args) / "chi.csv", header, [offsets, chi.real, chi.imag])
    return 0


def cmd_perturbative(args) -> int:
    cfg = _checked_config(args)
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
    parameters; unknown keys are fatal, and so is a table whose phases
    sum to no finite fringe shift."""
    table = {k: 0.0 for k in _FRINGE_KEYS}
    for key, value in _load_object(path, "phase table", "phase key").items():
        if key not in table:
            raise ValueError(f"unknown phase key {key!r}")
        _check_finite_number(f"phase key {key!r}", value)
        table[key] = float(value)
    # The phase fock_coincidences adds to the interferometer's.
    shift = table["phi10"] - 2.0 * table["phi00"] + table["phi_plus0"] + table["cps"]
    if not math.isfinite(shift):
        raise ValueError(
            f"phase keys phi10 - 2 phi00 + phi_plus0 + cps sum to {shift}, not a finite phase"
        )
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

    def add_common(p, out=True):
        p.add_argument("--config", help="JSON config file (flat keys)")
        if out:
            p.add_argument("--out", help="output directory (default: current)")

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
    add_common(p)
    p.set_defaults(func=cmd_groupvel)

    p = sub.add_parser("ladder", help="three-level comparison model")
    add_common(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("perturbative", help="analytic cross-phase estimates")
    add_common(p, out=False)
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
    except (*_RUN_FAILURES, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
