"""scan: every point's row and metrics are those of its own run, bit for bit."""

import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eitgate import basis, cli, dynamics, mscheme

from _support import fast_gate_config

# Closed, strongly coupled single-atom set, integrated by adaptive-rk.
SMALL_RK = dict(
    n_atoms=1, g_p=0.5, g_t=0.5, omega1=2.0, omega4=2.0, delta2=3.0, delta3=3.0,
    eps12=0.1, eps34=0.1, t_max=0.5, n_samples=6, mc_samples=300, method="adaptive-rk",
)

# sweep name -> (config overrides, param, from, to, steps)
SWEEPS = {
    # One stack on one nonzero pattern.
    "g_p": (fast_gate_config(), "g_p", 0.0022, 0.0030, 4),
    # One stack; g_t = 0 stores explicit zeros where the others do not.
    "g_t": (fast_gate_config(), "g_t", 0.0, 0.0022, 3),
    # The channels differ from point to point.
    "gamma_21": (fast_gate_config(), "gamma_21", 0.2, 0.4, 3),
    # The time grids differ from point to point.
    "t_max": (fast_gate_config(), "t_max", 0.3, 0.5, 3),
    "adaptive-rk": (SMALL_RK, "g_p", 0.4, 0.5, 3),
}


def _run_scan(tmp_path, overrides, param, start, stop, steps) -> list[str]:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(overrides), encoding="utf-8")
    out = tmp_path / "scan"
    assert cli.main([
        "scan", "--config", str(cfg_path), "--out", str(out),
        "--param", param, "--from", str(start), "--to", str(stop), "--steps", str(steps),
    ]) == 0
    lines = (out / "scan.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "value,pi_time,fidelity,cond_fidelity,error" and lines[-1] == ""
    return lines[1:-1]


def _point_configs(overrides, param, start, stop, steps):
    values = np.linspace(start, stop, steps)
    return values, [{**cli.DEFAULTS, **overrides, param: float(v)} for v in values]


def _own_row(value, cfg) -> str:
    """The scan row of one point from its own run_gate_analysis."""
    try:
        res = cli.run_gate_analysis(cfg)
    except cli._RUN_FAILURES as exc:
        return f"{cli._fmt(value)},,,,{str(exc).replace(',', ';').replace(chr(10), ' ')}"
    t_pi = cli.pi_crossing_time(res["times"], res["cps"])
    cells = ["", "", ""]
    if t_pi is not None:
        at = cli._values_at(res, t_pi)
        cells = [cli._fmt(at[k]) for k in ("time", "fidelity", "cond_fidelity")]
    return ",".join([cli._fmt(value), *cells, ""])


def _recording(monkeypatch):
    """Record every metrics dict the CLI computes."""
    seen, original = [], cli._metrics_from_blocks

    def record(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "_metrics_from_blocks", record)
    return seen


def _assert_same_metrics(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.dtype == w.dtype, key
            assert g.tobytes() == w.tobytes(), key
        else:
            assert g == w, key


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_each_row_is_its_own_run_bit_for_bit(tmp_path, monkeypatch, sweep):
    overrides, param, start, stop, steps = SWEEPS[sweep]
    seen = _recording(monkeypatch)
    rows = _run_scan(tmp_path, overrides, param, start, stop, steps)
    scanned = list(seen)
    values, cfgs = _point_configs(overrides, param, start, stop, steps)
    assert rows == [_own_row(v, c) for v, c in zip(values, cfgs)]
    # Each point's whole metrics, not only the cells at its π crossing.
    assert len(scanned) == len(seen) - len(scanned) == steps
    for got, want in zip(scanned, seen[steps:]):
        _assert_same_metrics(got, want)


def test_zero_coupling_point_has_its_own_nonzero_mask():
    # g_t = 0 leaves explicit zeros in the stacked generators of the g_t
    # sweep: two distinct nonzero masks among three points, for both.
    _, cfgs = _point_configs(*SWEEPS["g_t"])
    params = [cli.params_from_config(c) for c in cfgs]
    H = np.stack([mscheme.build_hamiltonian(p) for p in params])
    channels = mscheme.build_jump_channels(params[0])
    for L in (mscheme.build_liouvillian(H, channels), dynamics.conditional_generator(H, channels)):
        masks = [(d != 0).tobytes() for d in L.data]
        assert masks[1] == masks[2] != masks[0]


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("conditional", [False, True])
def test_blocks_of_a_stacked_generator_are_each_points_own(conditional, method):
    # Matrix k of a generator built on the Hamiltonian stack propagates
    # to the blocks of point k's own generator, bit for bit, including
    # g_t = 0, whose blocks are smaller.
    base = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config()})
    params = [replace(base, g_t=g) for g in (0.0, 0.0011, 0.0022)] + [replace(base, g_p=0.003)]
    times = np.linspace(0.0, 0.5, 26 if method == "exponential" else 6)
    H = np.stack([mscheme.build_hamiltonian(p) for p in params])
    channels = mscheme.build_jump_channels(base)
    if conditional:
        L = dynamics.conditional_generator(H, channels)
    else:
        L = mscheme.build_liouvillian(H, channels)
    n = basis.M_DIM
    V = np.zeros((n * n, 16), dtype=complex)  # column 4i + j is vec|q_i><q_j|
    V[[a + n * b for a in basis.QUBIT_M_INDICES for b in basis.QUBIT_M_INDICES], range(16)] = 1
    evolve = dynamics.gate_input_stack(params, times, method=method)
    for k, p in enumerate(params):
        want = dynamics.evolve_gate_inputs(p, times, conditional=conditional, method=method).blocks
        _assert_same_blocks(
            dynamics.propagate_stack(L._replace(data=L.data[k]), V, times, method=method)(0), want
        )
        _assert_same_blocks(evolve(k, conditional=conditional).blocks, want)


def _assert_same_blocks(got, want):
    assert len(got) == len(want)
    for (u, e, Y), (u_ref, e_ref, Y_ref) in zip(got, want):
        assert np.array_equal(u, u_ref) and np.array_equal(e, e_ref)
        assert Y.shape == Y_ref.shape and Y.tobytes() == Y_ref.tobytes()


def test_a_stack_needs_equal_channel_rates():
    base = cli.params_from_config({**cli.DEFAULTS, **fast_gate_config()})
    with pytest.raises(ValueError, match="equal channel rates"):
        dynamics.gate_input_stack([base, replace(base, gamma21=0.5)], np.linspace(0.0, 0.1, 3))


def _shared_by_a_stack(cfg):
    """What a generator stack takes from its first point's config."""
    return (
        mscheme.channel_rates(cli.params_from_config(cfg)),
        cli._times_from_config(cfg).tobytes(),
        cli.amplitudes_from_config(cfg).tobytes(),
        cfg["dephasing_mode"],
        cli._engine_kwargs(cfg),
    )


def test_hamiltonian_keys_are_the_float_keys_that_change_the_hamiltonian_alone():
    # A stack takes all but the Hamiltonian from its first point, so a key
    # wrongly listed would silently give every later row the first's value.
    base = {**cli.DEFAULTS, **fast_gate_config()}
    H = mscheme.build_hamiltonian(cli.params_from_config(base))
    changes_h = set()
    for key in (k for k, v in cli.DEFAULTS.items() if type(v) is float):
        cfg = {**base, key: 1.5 * base[key] + 0.25}
        if not np.array_equal(mscheme.build_hamiltonian(cli.params_from_config(cfg)), H):
            changes_h.add(key)
        if key in cli._HAMILTONIAN_KEYS:
            assert _shared_by_a_stack(cfg) == _shared_by_a_stack(base), key
    assert changes_h == cli._HAMILTONIAN_KEYS


def test_a_failing_point_leaves_its_stack_neighbours_alone(tmp_path):
    # delta2 = 5e307 and 1e308 overflow the step propagator; the first
    # point of the same stack is the benchmark point's row.
    rows = _run_scan(tmp_path, fast_gate_config(), "delta2", 15, 1e308, 3)
    assert rows == [
        "1.5000000000000000e+01,3.7559807344574370e-01,8.7244221899655239e-01,"
        "9.1347052879784274e-01,",
        "5.0000000000000001e+307,,,,propagated columns are non-finite at time sample 1",
        "1.0000000000000000e+308,,,,propagated columns are non-finite at time sample 1",
    ]


@pytest.mark.parametrize(
    "message, cell", [("", "MemoryError"), ("Unable to allocate", "Unable to allocate")]
)
def test_a_point_out_of_memory_is_recorded_in_its_row(tmp_path, monkeypatch, message, cell):
    # A bare MemoryError, as a failed Python allocation raises, has no
    # message: its row names the type.
    want = _run_scan(tmp_path, fast_gate_config(), "g_p", 0.0022, 0.0030, 3)
    original = cli._metrics_from_blocks
    calls = []

    def second_out_of_memory(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError(message)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "_metrics_from_blocks", second_out_of_memory)
    rows = _run_scan(tmp_path, fast_gate_config(), "g_p", 0.0022, 0.0030, 3)
    assert rows[0] == want[0] and rows[2] == want[2]
    assert rows[1] == want[1].split(",")[0] + ",,,," + cell


def test_an_infinite_coupling_is_refused_before_it_joins_a_stack(tmp_path, monkeypatch):
    # g_p·√N_a = 1e308·√1e8 overflows: the params refuse the point, so
    # the benchmark point's stack holds it alone and its row is that of a
    # one-point scan.
    stacks, original = [], dynamics.gate_input_stack

    def recording(params, *args, **kwargs):
        stacks.append(len(params))
        return original(params, *args, **kwargs)

    monkeypatch.setattr(dynamics, "gate_input_stack", recording)
    rows = _run_scan(tmp_path, fast_gate_config(), "g_p", 0.0022, 1e308, 2)
    assert rows == [
        "2.2000000000000001e-03,3.7559807344574370e-01,8.7244221899655239e-01,"
        "9.1347052879784274e-01,",
        "1.0000000000000000e+308,,,,collective coupling g_p·√N_a must be finite",
    ]
    assert stacks == [1]
    assert _run_scan(tmp_path, fast_gate_config(), "g_p", 0.0022, 0.0022, 1) == rows[:1]


def test_scan_points_take_the_checks_simulate_applies(tmp_path, capsys):
    rows = _run_scan(tmp_path, fast_gate_config(), "n_samples", 1, 6, 2)
    values, cfgs = _point_configs(fast_gate_config(), "n_samples", 1, 6, 2)
    assert rows == [
        "1.0000000000000000e+00,,,,n_samples must be at least 2",
        _own_row(values[1], {**cfgs[1], "n_samples": 6}),
    ]
    assert _run_scan(tmp_path, fast_gate_config(), "t_max", -3, 0, 2) == [
        "-3.0000000000000000e+00,,,,t_max must be positive",
        "0.0000000000000000e+00,,,,t_max must be positive",
    ]
    # simulate refuses the same config with the same message.
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**fast_gate_config(), "n_samples": 1}), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == "error: n_samples must be at least 2\n"


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name through every eitgate namespace
    that binds it."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, ns in list(sys.modules.items()):
        if key.startswith("eitgate") and getattr(ns, name, None) is original:
            monkeypatch.setattr(ns, name, counting)
    return calls


@pytest.mark.parametrize("param, start, stop, steps, stacks, plans", [
    # The benchmark's scan: one stack, one plan per generator.
    ("g_p", 0.0022, 0.0030, 12, 1, 2),
    # One stack; g_t = 0 has its own mask for both generators.
    ("g_t", 0.0, 0.0022, 3, 1, 4),
    # One more point than a stack holds.
    ("g_p", 0.0022, 0.0030, cli.SCAN_STACK + 1, 2, 4),
    # Channels or time grids differ: a stack per point.
    ("gamma_21", 0.2, 0.4, 3, 3, 6),
    ("t_max", 0.3, 0.5, 3, 3, 6),
])
def test_scan_builds_and_plans_once_per_stack(
    tmp_path, monkeypatch, param, start, stop, steps, stacks, plans
):
    builds = _count_calls(monkeypatch, mscheme, "build_liouvillian")
    conditional = _count_calls(monkeypatch, dynamics, "conditional_generator")
    components = _count_calls(monkeypatch, dynamics, "_components")
    single = _count_calls(monkeypatch, cli, "run_gate_analysis")
    _run_scan(tmp_path, fast_gate_config(), param, start, stop, steps)
    assert len(builds) == 2 * stacks and len(conditional) == stacks
    assert len(components) == plans and not single


def test_scan_memory_is_bounded_by_the_stack_cap(tmp_path):
    # Short runs, so the stacked generators weigh in the peak; a scan of
    # four stacks holds no more than a scan of one.
    overrides = {**fast_gate_config(), "t_max": 0.1, "n_samples": 6}
    peaks = []
    for steps in (cli.SCAN_STACK, 4 * cli.SCAN_STACK):
        _run_scan(tmp_path, overrides, "g_p", 0.0022, 0.0030, steps)  # warm caches
        tracemalloc.start()
        try:
            _run_scan(tmp_path, overrides, "g_p", 0.0022, 0.0030, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], f"traced peaks {peaks[0]} and {peaks[1]} B"
