"""Command-line interface: config handling, outputs, determinism."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from eitgate import (
    basis, cli, dynamics, groupvel, interferometer, ladder, observables, perturbative,
)
from eitgate.groupvel import OpticalConstants
from eitgate.ladder import LadderParams
from eitgate.mscheme import GAMMA_SI_DEFAULT, MSchemeParams

from _support import traced_peak


_HUGE = 10**401 - 1  # a JSON integer beyond the float range


def write_cfg(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides), encoding="utf-8")
    return str(path)


# Closed, strongly coupled single-atom set: cheap and feature-rich.
SMALL_GATE = dict(
    n_atoms=1,
    g_p=0.5,
    g_t=0.5,
    omega1=2.0,
    omega4=2.0,
    delta2=3.0,
    delta3=3.0,
    eps12=0.1,
    eps34=0.1,
    t_max=0.5,
    n_samples=6,
    mc_samples=300,
)

# Small ladder set that stays inside its truncation.
SMALL_LADDER = dict(
    n_atoms=1,
    g_p=0.5,
    g_t=0.5,
    delta_p=1.0,
    delta_t=0.5,
    ladder_gamma21=0.2,
    ladder_gamma32=0.3,
    n_max=2,
    t_max=0.02,
    n_samples=4,
    mc_samples=200,
)


def test_defaults_are_complete_and_frozen():
    d = cli.DEFAULTS
    assert len(d) == 48
    assert d["n_atoms"] == 1.0
    assert d["gamma_21"] == pytest.approx(1.0 / 3.0)
    assert d["deph_2"] == 1e-3
    assert d["gamma_si"] == GAMMA_SI_DEFAULT
    assert d["method"] == "exponential"
    assert d["n_samples"] == 201
    assert d["seed"] == 42
    assert d["c00"] == 0.5
    assert d["mu_p"] == 2.5e-29
    assert d["n_max"] == 3
    assert d["ladder_convention"] == "as-printed"
    # The integer keys are the int-valued defaults.
    assert cli._INT_KEYS == {"n_samples", "mc_samples", "seed", "avg_grid", "n_max"}


def test_load_config_without_file_copies_defaults():
    cfg = cli.load_config(None)
    assert cfg == cli.DEFAULTS
    assert cfg is not cli.DEFAULTS


@pytest.mark.parametrize(
    "payload",
    [
        {"bogus": 1.0},
        {"method": "verlet"},
        {"dephasing_mode": "off"},
        {"ladder_convention": "diagonal"},
        {"n_samples": 10.5},
        {"n_samples": True},
        {"seed": "abc"},
        {"g_p": "fast"},
        {"g_p": True},
        {"c00": [1.0, 2.0, 3.0]},
        {"c00": "x"},
        {"c01": True},
        {"c01": [0.1, False]},
        {"g_p": float("nan")},
        {"t_max": float("inf")},
        {"c10": [0.5, float("-inf")]},
        {"c11": float("nan")},
        {"c01": _HUGE},
        {"c01": [0.5, -_HUGE]},
    ],
)
def test_load_config_rejects_bad_values(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (key,) = payload
    with pytest.raises(ValueError, match=f"'{key}'"):
        cli.load_config(str(path))


@pytest.mark.parametrize(
    "value, reason",
    [("fast", "a number"), (float("nan"), "finite"), pytest.param(_HUGE, "finite", id="huge-int")],
)
def test_config_and_phase_table_name_the_rejected_number(tmp_path, value, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cps": value}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^phase key 'cps' must be {reason}$"):
        cli.load_phase_table(str(path))
    path.write_text(json.dumps({"g_p": value}), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^config key 'g_p' must be {reason}$"):
        cli.load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        cli.load_config(str(path))


def test_amplitudes_accept_scalar_and_pair(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, c01=[0.3, -0.2], c11=2))
    amps = cli.amplitudes_from_config(cfg)
    assert np.allclose(amps, [0.5, 0.3 - 0.2j, 0.5, 2.0])


def test_params_mapping_covers_every_field(tmp_path):
    cfg = cli.load_config(
        write_cfg(
            tmp_path,
            n_atoms=4,
            g_p=0.3,
            g_t=0.2,
            omega1=1.1,
            omega4=0.9,
            delta2=2.0,
            delta3=1.5,
            eps12=0.25,
            eps34=-0.35,
            gamma_21=0.1,
            gamma_43=0.4,
            deph_1=0.05,
            gamma_si=1e7,
        )
    )
    p = cli.params_from_config(cfg)
    assert p.N_a == 4.0
    assert p.g_p == 0.3
    assert p.Omega4 == 0.9
    assert p.eps34 == -0.35
    assert p.gamma21 == 0.1
    assert p.gamma43 == 0.4
    assert p.gamma_deph_1 == 0.05
    assert p.gamma_deph_2 == 1e-3
    assert p.gamma_SI == 1e7
    assert p.delta1 == pytest.approx(2.25)
    lp = cli.ladder_params_from_config(
        cli.load_config(write_cfg(tmp_path, "l.json", n_atoms=9, g_p=0.4, delta_p=1.2, n_max=2))
    )
    assert lp.N_a == 9.0
    assert lp.delta_p == 1.2
    assert lp.n_max == 2
    consts = cli.constants_from_config(cli.load_config(write_cfg(tmp_path, "c.json", mu_p=5e-29)))
    assert consts.mu_p == 5e-29
    assert consts.c == 299792458.0


def test_time_grid_validation():
    cfg = dict(cli.DEFAULTS)
    cfg["t_max"] = -1.0
    with pytest.raises(ValueError, match="t_max"):
        cli._times_from_config(cfg)
    cfg["t_max"] = 1.0
    cfg["n_samples"] = 1
    with pytest.raises(ValueError, match="n_samples"):
        cli._times_from_config(cfg)


def test_pi_crossing_interpolation():
    times = np.array([0.0, 1.0, 2.0])
    assert cli.pi_crossing_time(times, np.array([0.0, 2.0, 4.0])) == pytest.approx(
        1.0 + (math.pi - 2.0) / 2.0
    )
    assert cli.pi_crossing_time(times, np.array([0.0, -2.0, -4.0])) == pytest.approx(
        1.0 + (math.pi - 2.0) / 2.0
    )
    assert cli.pi_crossing_time(times, np.array([0.0, 1.0, 2.0])) is None
    assert cli.pi_crossing_time(times, np.array([4.0, 4.0, 4.0])) == 0.0


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_simulate_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    header, rows = _read_csv(out / "timeseries.csv")
    pop_names = [f"pop_{n}" for n in basis.state_names(basis.M_STATES)]
    assert header == [
        "time", "phi01", "phi10", "phi11", "cps",
        "fidelity", "cond_fidelity", "p_success",
    ] + pop_names
    assert len(pop_names) == 18
    assert len(rows) == SMALL_GATE["n_samples"]
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0
    assert first[1] == first[2] == first[3] == first[4] == 0.0
    assert first[5] == pytest.approx(1.0, abs=1e-9)
    assert first[7] == pytest.approx(1.0, abs=1e-9)

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"config", "derived", "at_t_max", "pi_crossing", "at_pi_crossing"}
    resolved = dict(cli.DEFAULTS)
    resolved.update(SMALL_GATE)
    assert summary["config"] == resolved
    assert summary["derived"] == {
        "delta1": pytest.approx(3.1),
        "delta4": pytest.approx(2.9),
    }
    assert set(summary["at_t_max"]) == {
        "time", "phi01", "phi10", "phi11", "cps", "fidelity", "cond_fidelity", "p_success",
    }
    assert summary["at_t_max"]["time"] == pytest.approx(0.5)
    if summary["pi_crossing"] is None:
        assert summary["at_pi_crossing"] is None
    else:
        assert summary["at_pi_crossing"]["time"] == pytest.approx(summary["pi_crossing"])


def test_simulate_zero_coupling_is_identity(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        g_p=0.0,
        g_t=0.0,
        omega1=0.0,
        omega4=0.0,
        gamma_21=0.0,
        gamma_23=0.0,
        gamma_25=0.0,
        gamma_41=0.0,
        gamma_43=0.0,
        gamma_45=0.0,
        deph_1=0.0,
        deph_2=0.0,
        deph_4=0.0,
        deph_5=0.0,
        t_max=1.0,
        n_samples=5,
        mc_samples=200,
    )
    out = tmp_path / "idle"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    at = summary["at_t_max"]
    for key in ("phi01", "phi10", "phi11", "cps"):
        assert at[key] == pytest.approx(0.0, abs=1e-12)
    assert at["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert at["cond_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert at["p_success"] == pytest.approx(1.0, abs=1e-12)
    assert summary["pi_crossing"] is None
    header, rows = _read_csv(out / "timeseries.csv")
    vac = header.index("pop_G_0_0")
    for row in rows:
        assert float(row[vac]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("command, config, files", [
    (["simulate"], SMALL_GATE, ("timeseries.csv", "summary.json")),
    (["ladder"], SMALL_LADDER, ("timeseries.csv", "summary.json")),
    (["scan", "--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"], SMALL_GATE,
     ("scan.csv",)),
], ids=["simulate", "ladder", "scan"])
def test_gate_command_runs_are_byte_identical(tmp_path, command, config, files):
    cfg_path = write_cfg(tmp_path, **config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main([*command, "--config", cfg_path, "--out", str(out)]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command, config", [
    (["simulate"], SMALL_GATE),
    (["ladder"], SMALL_LADDER),
    (["scan", "--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"], SMALL_GATE),
], ids=["simulate", "ladder", "scan"])
def test_seed_is_a_config_key_not_a_flag(tmp_path, capsys, command, config):
    cfg_path = write_cfg(tmp_path, **config)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--config", cfg_path, "--out", str(out), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not out.exists()


def test_sampling_keys_are_echoed_but_enter_no_output(tmp_path):
    # The conditional fidelity is the exact Haar average: mc_samples and
    # seed are validated and echoed in the config, and move nothing else.
    outs = []
    for i, (mc_samples, seed) in enumerate(((300, 7), (1, 8))):
        config = {**SMALL_GATE, "mc_samples": mc_samples, "seed": seed}
        cfg_path = write_cfg(tmp_path, f"cfg{i}.json", **config)
        out = tmp_path / f"run{i}"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary.pop("config")["seed"] == seed
        outs.append(((out / "timeseries.csv").read_bytes(), summary))
    assert outs[0] == outs[1]


FAST_GATE = dict(
    n_atoms=1e8,
    g_p=0.0022,
    g_t=0.0022,
    omega1=4.0,
    omega4=4.0,
    delta2=15.0,
    delta3=15.0,
    eps12=0.01,
    eps34=0.01,
    t_max=0.5,
    n_samples=26,
    mc_samples=200,
    seed=11,
)


def test_scan_coupling_moves_the_crossing_monotonically(tmp_path):
    cfg_path = write_cfg(tmp_path, **FAST_GATE)
    out = tmp_path / "scan"
    assert cli.main([
        "scan", "--config", cfg_path, "--out", str(out),
        "--param", "g_p", "--from", "0.0022", "--to", "0.0030", "--steps", "3",
    ]) == 0
    header, rows = _read_csv(out / "scan.csv")
    assert header == ["value", "pi_time", "fidelity", "cond_fidelity", "error"]
    assert len(rows) == 3
    values = [float(r[0]) for r in rows]
    assert values == pytest.approx([0.0022, 0.0026, 0.0030])
    pi_times = [float(r[1]) for r in rows]
    assert all(r[4] == "" for r in rows)
    # stronger coupling accumulates the conditional phase faster
    assert pi_times[0] > pi_times[1] > pi_times[2]
    assert all(0.0 < t < 0.5 for t in pi_times)
    assert all(0.0 < float(r[2]) <= 1.0 for r in rows)


def test_scan_records_per_point_failures(tmp_path):
    cfg_path = write_cfg(tmp_path, **FAST_GATE)
    out = tmp_path / "scanerr"
    assert cli.main([
        "scan", "--config", cfg_path, "--out", str(out),
        "--param", "t_max", "--from", "-0.5", "--to", "0.5", "--steps", "2",
    ]) == 0
    _, rows = _read_csv(out / "scan.csv")
    assert len(rows) == 2
    assert rows[0][1] == rows[0][2] == rows[0][3] == ""
    assert "t_max" in rows[0][4]
    assert rows[1][4] == ""
    assert float(rows[1][1]) > 0.0


def test_scan_propagates_programming_errors(tmp_path, monkeypatch):
    # Raised inside a point's propagation, below the scan's per-point
    # handler: only the errors of cli._RUN_FAILURES become row errors.
    def broken(A):
        raise TypeError("not a domain error")

    monkeypatch.setattr(dynamics, "expm", broken)
    cfg_path = write_cfg(tmp_path, **FAST_GATE)
    with pytest.raises(TypeError, match="not a domain error"):
        cli.main([
            "scan", "--config", cfg_path, "--out", str(tmp_path / "scan"),
            "--param", "g_p", "--from", "0.002", "--to", "0.003", "--steps", "2",
        ])


@pytest.mark.parametrize("n_max", [135, _HUGE])
def test_ladder_refuses_an_n_max_whose_generator_keys_overflow(tmp_path, capsys, monkeypatch,
                                                               n_max):
    # A 401-digit n_max used to grow a state table until the process was
    # killed; the params refuse it before any table is built.
    def never(*args, **kwargs):
        raise AssertionError("built a state table")

    monkeypatch.setattr(ladder, "ladder_states", never)
    cfg_path = write_cfg(tmp_path, **{**SMALL_LADDER, "n_max": n_max})
    out = tmp_path / "out"
    assert cli.main(["ladder", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: n_max must be at most 134 (where the generator's keys fit int64)\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("n_samples", [2**63, _HUGE])
@pytest.mark.parametrize("command", ["simulate", "ladder"])
def test_gate_commands_refuse_an_oversized_n_samples_by_name(tmp_path, capsys, monkeypatch,
                                                             command, n_samples):
    # np.linspace refused these with "Maximum allowed size exceeded" or an
    # IndexError, neither naming the key.
    def never(*args, **kwargs):
        raise AssertionError("propagated")

    monkeypatch.setattr(dynamics, "propagate_stack", never)
    config = SMALL_LADDER if command == "ladder" else SMALL_GATE
    cfg_path = write_cfg(tmp_path, **{**config, "n_samples": n_samples})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: n_samples must be at most {2**60 - 1} (the longest float64 array)\n"
    assert not out.exists() or not any(out.iterdir())


# 8 PiB of float64 samples: beyond a 47-bit user address space, so the
# allocation fails at once whatever the overcommit setting.
_BEYOND_MEMORY = 2**50


def test_simulate_reports_an_n_samples_beyond_memory_by_name(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("propagated")

    monkeypatch.setattr(dynamics, "propagate_stack", never)
    cfg_path = write_cfg(tmp_path, **{**SMALL_GATE, "n_samples": _BEYOND_MEMORY})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_samples {_BEYOND_MEMORY} does not fit in memory: ")
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("avg_grid, message", [
    (1, "avg_grid must be at least 2\n"),
    (2**62, f"avg_grid must be at most {2**60 - 1} (the longest float64 array)\n"),
    (_BEYOND_MEMORY, f"avg_grid {_BEYOND_MEMORY} does not fit in memory: "),
], ids=["one", "beyond-indexing", "beyond-memory"])
def test_groupvel_refuses_an_avg_grid_by_name_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               avg_grid, message):
    # numpy's own refusals of these grids named no key, and came only
    # after the steady solves and the χ sweep.
    def never(*args, **kwargs):
        raise AssertionError("solved a steady state")

    monkeypatch.setattr(groupvel, "steady_state", never)
    cfg_path = write_cfg(
        tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0, delta2=15.0,
        delta3=15.0, avg_grid=avg_grid,
    )
    assert cli.main(["groupvel", "--config", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1
    assert captured.out == ""


def test_groupvel_refuses_a_non_positive_t_max_before_propagating(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("propagated")

    monkeypatch.setattr(groupvel, "steady_state", never)
    cfg_path = write_cfg(tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, t_max=-1.0)
    assert cli.main(["groupvel", "--config", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: t_max must be positive\n" and captured.out == ""


@pytest.mark.parametrize("t_max", [-1.0, 0.0])
def test_perturbative_refuses_a_non_positive_t_max_before_any_eigen_solve(tmp_path, capsys,
                                                                          monkeypatch, t_max):
    # It used to exit 0, printing a phase accumulated over negative time.
    def never(*args, **kwargs):
        raise AssertionError("solved for an eigenvalue")

    monkeypatch.setattr(perturbative, "dark_eigenvalue", never)
    cfg_path = write_cfg(tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, omega1=4.0,
                         omega4=4.0, delta2=15.0, delta3=15.0, eps12=0.1, eps34=0.1, t_max=t_max)
    assert cli.main(["perturbative", "--config", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: t_max must be positive\n" and captured.out == ""


def test_ladder_reports_a_run_beyond_memory_naming_n_max(tmp_path, capsys, monkeypatch):
    # Near n_max 134 the first failing allocation is the (n², ) qubit
    # readout map, built from an (n, n) bool mask; numpy's message named
    # no key. The failure is simulated: nothing that large is allocated.
    def beyond_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.78 GiB for an array with shape (54675, 54675) "
                          "and data type bool")

    monkeypatch.setattr(basis, "qubit_cells", beyond_memory)
    cfg_path = write_cfg(tmp_path, **SMALL_LADDER)
    out = tmp_path / "out"
    assert cli.main(["ladder", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: n_max 2 with n_samples 4 does not fit in memory: Unable to allocate "
                   "2.78 GiB for an array with shape (54675, 54675) and data type bool\n")
    assert not out.exists() or not any(out.iterdir())


def test_scan_records_an_oversized_n_samples_by_name(tmp_path):
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "scan"
    assert cli.main([
        "scan", "--config", cfg_path, "--out", str(out),
        "--param", "n_samples", "--from", "6", "--to", "1e300", "--steps", "2",
    ]) == 0
    _, (ok, refused) = _read_csv(out / "scan.csv")
    assert ok[-1] == ""
    error = f"n_samples must be at most {2**60 - 1} (the longest float64 array)"
    assert refused[1:] == ["", "", "", error]


def test_scan_rejects_bad_parameters(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("propagated before validating the scan range")

    monkeypatch.setattr(dynamics, "propagate_stack", never)
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "x"
    base = ["scan", "--config", cfg_path, "--out", str(out)]
    for extra, named in (
        (["--param", "method", "--from", "0", "--to", "1", "--steps", "2"], "method"),
        (["--param", "bogus", "--from", "0", "--to", "1", "--steps", "2"], "bogus"),
        (["--param", "c00", "--from", "0", "--to", "1", "--steps", "2"], "c00"),
        (["--param", "g_p", "--from", "0", "--to", "1", "--steps", "0"], "steps"),
        (["--param", "g_p", "--from", "nan", "--to", "0.003", "--steps", "2"], "--from"),
        (["--param", "g_p", "--from", "inf", "--to", "inf", "--steps", "2"], "--from"),
        (["--param", "g_p", "--from", "0.002", "--to=-inf", "--steps", "2"], "--to"),
        (["--param", "g_p", "--from", "0.002", "--to", "-inf", "--steps", "2"],
         "--to must be finite"),
        (["--param", "n_samples", "--from", "2", "--to", "nan", "--steps", "1"], "--to"),
        # Keys no gate run reads gave identical rows.
        *((["--param", key, "--from", "1", "--to", "50", "--steps", "3"],
           f"scan parameter {key!r} is not read by a gate run")
          for key in ("n_max", "hbar", "mc_samples", "seed", "fd_step", "avg_grid", "gamma_si")),
        # numpy's refusals of these grids ("Unable to allocate 7.11 PiB ...")
        # named no flag.
        (["--param", "g_p", "--from", "0", "--to", "1", "--steps", str(2**62)],
         f"--steps must be at most {2**60 - 1} (the longest float64 array)"),
        (["--param", "g_p", "--from", "0", "--to", "1", "--steps", str(2**60 - 1)],
         f"--steps {2**60 - 1} does not fit in memory: "),
        (["--param", "g_p", "--from", "0", "--to", "1", "--steps", str(2**50)],
         f"--steps {2**50} does not fit in memory: "),
    ):
        assert cli.main(base + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and err.count("\n") == 1
        assert not out.exists()
    # The patched function is the one a valid scan propagates through.
    with pytest.raises(AssertionError, match="propagated before validating"):
        cli.main(base + ["--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"])


@pytest.mark.parametrize("start, stop", [("-1e-3", "1e-3"), ("-5E-2", "-0.5")])
def test_scan_bounds_take_any_float_token(tmp_path, start, stop):
    # argparse alone reads "-1e-3" or "-5E-2" after a flag as another flag.
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "scan"
    assert cli.main([
        "scan", "--config", cfg_path, "--out", str(out),
        "--param", "eps34", "--from", start, "--to", stop, "--steps", "2",
    ]) == 0
    _, rows = _read_csv(out / "scan.csv")
    assert [float(r[0]) for r in rows] == [float(start), float(stop)]
    assert all(r[4] == "" for r in rows)


def test_mismatch_correction_is_odd_in_the_probe_mismatch():
    # At g*sqrt(N) >> Omega the conditional phase is dominated by an
    # eps-independent collective channel; the mismatch enters as a small
    # odd correction on top of it.  remainder() guards against the three
    # runs resolving the winding of the large common part differently.
    base = dict(cli.DEFAULTS)
    base.update(
        n_atoms=1e8,
        g_p=0.0022,
        g_t=0.0022,
        omega1=4.0,
        omega4=4.0,
        delta2=15.0,
        delta3=15.0,
        eps34=0.0,
        gamma_21=0.0,
        gamma_23=0.0,
        gamma_25=0.0,
        gamma_41=0.0,
        gamma_43=0.0,
        gamma_45=0.0,
        deph_1=0.0,
        deph_2=0.0,
        deph_4=0.0,
        deph_5=0.0,
        t_max=2.0,
        n_samples=101,
        mc_samples=10,
    )
    ends = {}
    for eps in (0.01, -0.01, 0.0):
        cfg = dict(base)
        cfg["eps12"] = eps
        ends[eps] = cli.run_gate_analysis(cfg)["cps"][-1]
    assert abs(ends[0.0]) > 1.0
    d_plus = math.remainder(ends[0.01] - ends[0.0], 2.0 * math.pi)
    d_minus = math.remainder(ends[-0.01] - ends[0.0], 2.0 * math.pi)
    assert 1.2e-4 < d_plus < 1.7e-4
    assert -1.7e-4 < d_minus < -1.2e-4
    assert abs(d_plus + d_minus) < 0.15 * max(abs(d_plus), abs(d_minus))


def test_groupvel_stdout_and_chi_table(tmp_path, capsys):
    cfg_path = write_cfg(
        tmp_path,
        n_atoms=1e6,
        g_p=0.0022,
        g_t=0.0022,
        omega1=4.0,
        omega4=4.0,
        delta2=15.0,
        delta3=15.0,
        deph_1=0.0,
        deph_2=0.0,
        deph_4=0.0,
        deph_5=0.0,
        t_max=0.4,
        avg_grid=40,
    )
    out = tmp_path / "gv"
    assert cli.main(["groupvel", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"L", "V", "d", "density", "v_g_steady", "v_g_transient"}
    cfg = cli.load_config(cfg_path)
    params = cli.params_from_config(cfg)
    assert report["v_g_steady"] == pytest.approx(
        groupvel.group_velocity_steady(params), rel=1e-9
    )
    assert report["L"] == pytest.approx(
        report["v_g_transient"] * 0.4 / params.gamma_SI, rel=1e-9
    )
    header, rows = _read_csv(out / "chi.csv")
    assert header == ["offset", "chi_real", "chi_imag"]
    assert len(rows) == 201
    offs = [float(r[0]) for r in rows]
    assert offs[0] == -1.0
    assert offs[-1] == 1.0


@pytest.mark.parametrize("stack", [1, 7, 201])
def test_chi_sweep_in_stacks_of_any_size_writes_the_same_table(tmp_path, capsys, monkeypatch,
                                                                stack):
    # Every matrix of a stacked build has the bits of its own build.
    cfg_path = write_cfg(tmp_path, **SMALL_GATE, avg_grid=10)

    def groupvel_run(name):
        assert cli.main(["groupvel", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
        return capsys.readouterr().out, (tmp_path / name / "chi.csv").read_bytes()

    default = groupvel_run("default")
    monkeypatch.setattr(cli, "GENERATOR_STACK", stack)
    assert groupvel_run("stacked") == default


def _joined_csv(header, columns) -> str:
    """The table as one string, every row stacked, formatted and joined."""
    rows = np.column_stack(columns).tolist()
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# Values whose text is easy to get wrong: nan, ±inf, both zeros, the least
# subnormal, a subnormal, the largest double and a repeating fraction.
_AWKWARD = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.225e-309,
                     np.finfo(float).max, -1.0 / 3.0])


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("T", [1, 2, 31, 32, 33, 70])
def test_csv_writer_writes_the_joined_table(tmp_path, monkeypatch, T, chunk):
    # A (T,) column and (T, k) columns side by side, as the writers pass them.
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_SAMPLES", chunk)
    values = np.random.default_rng(T).choice(_AWKWARD, size=(T, 5))
    columns = [np.linspace(0.0, 1.0, T), values[:, 0], values[:, 1:3], values[:, 3:]]
    header = ["time", "a", "b0", "b1", "c0", "c1"]
    path = tmp_path / "table.csv"
    cli._write_csv(path, header, columns)
    assert path.read_bytes() == _joined_csv(header, columns).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_csv_writer_holds_no_whole_table(tmp_path):
    # Criterion 3's timeseries.csv: 2801 rows of time, seven gate columns
    # and 18 populations, 1.7 MB. Stacked, listed and joined whole, the
    # table traced 7.7 MB; 32 rows at a time, 58 KB.
    rng = np.random.default_rng(3)
    T = 2801
    columns = [np.linspace(0.0, 700.0, T), rng.standard_normal((T, 7)),
               rng.random((T, 18))]
    path = tmp_path / "timeseries.csv"
    peak = traced_peak(cli._write_csv, path, [f"c{i}" for i in range(26)], columns)[1]
    size = path.stat().st_size
    assert size > 1e6
    assert peak < 0.1 * size, f"traced peak {peak} B for a {size} B file"


def test_a_failed_scan_leaves_no_partial_table(tmp_path, monkeypatch):
    # The table is written as its points finish, into scan.csv.tmp; an error
    # that escapes the scan removes it and leaves no scan.csv.
    def interrupted(points):
        yield ValueError("the first point's row")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_scan_results", interrupted)
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["scan", "--config", cfg_path, "--param", "g_p", "--from", "0.4", "--to", "0.5",
                  "--steps", "3", "--out", str(out)])
    assert list(out.iterdir()) == []


def test_perturbative_stdout(tmp_path, capsys):
    cfg_path = write_cfg(
        tmp_path,
        n_atoms=1,
        g_p=0.5,
        g_t=0.5,
        omega1=65.0,
        omega4=65.0,
        delta2=1900.0,
        delta3=1900.0,
        eps12=1.9,
        eps34=1.9,
        t_max=100.0,
    )
    assert cli.main(["perturbative", "--config", cfg_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"closed_form", "eigenvalue", "lambda_p", "lambda_t", "lambda_pt", "t"}
    assert report["t"] == 100.0
    assert report["closed_form"] == pytest.approx(-4.317535320901e-4, rel=1e-9)
    assert report["eigenvalue"] == pytest.approx(-4.251387968267e-4, rel=1e-9)


def test_fringes_output_round_trip(tmp_path):
    phases = tmp_path / "phases.json"
    phases.write_text(json.dumps({"cps": 2.9, "phi10": 0.3}), encoding="utf-8")
    out = tmp_path / "fr"
    assert cli.main(["fringes", "--phases", str(phases), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "fringes.csv")
    assert header == ["Phi", "P_RB1", "P_RB2"]
    assert len(rows) == 256
    grid = np.array([float(r[0]) for r in rows])
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(4.0 * math.pi * 255.0 / 256.0)
    p1 = np.array([float(r[1]) for r in rows])
    p2 = np.array([float(r[2]) for r in rows])
    got = interferometer.gate_phase_from_fits(
        interferometer.fit_fringe(grid, p1), interferometer.fit_fringe(grid, p2)
    )
    assert got == pytest.approx(2.9, abs=1e-9)
    # Byte for byte: LF rows of 17 significant digits, phases absent from
    # the table entering as zero.
    Phi = np.linspace(0.0, 4.0 * math.pi, 256, endpoint=False)
    q1, q2 = interferometer.fock_coincidences(Phi, cps=2.9, phi10=0.3, phi00=0.0, phi_plus0=0.0)
    text = "Phi,P_RB1,P_RB2\n" + "".join(
        f"{x:.16e},{a:.16e},{b:.16e}\n" for x, a, b in zip(Phi, q1, q2)
    )
    assert (out / "fringes.csv").read_bytes() == text.encode("utf-8")


def test_fringes_rejects_bad_tables(tmp_path, capsys):
    for payload in (
        {"cps": 1.0, "oops": 2.0},
        {"cps": "x"},
        {"cps": True},
        [1.0],
        {"cps": float("nan")},
        {"phi10": float("inf")},
    ):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["fringes", "--phases", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("payload, total", [
    ({"cps": 1e308, "phi10": 1e308}, "inf"),
    ({"phi10": 1e308, "phi00": -1e308}, "inf"),
    ({"phi10": -1e308, "phi00": 1e308, "phi_plus0": 1.0}, "-inf"),
])
def test_fringes_refuses_finite_phases_whose_shift_is_not(tmp_path, capsys, payload, total):
    # These wrote 256 rows of nan with two numpy RuntimeWarnings.
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["fringes", "--phases", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: phase keys phi10 - 2 phi00 + phi_plus0 + cps sum to {total}, "
        "not a finite phase\n"
    )
    assert not out.exists()


def test_ladder_cli_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path, **SMALL_LADDER)
    out = tmp_path / "lad"
    assert cli.main(["ladder", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["derived"] == {"ladder_dim": 27}
    header, rows = _read_csv(out / "timeseries.csv")
    pops = [h for h in header if h.startswith("pop_")]
    assert len(pops) == 27
    assert pops[0] == "pop_G2_0_0"
    assert pops[-1] == "pop_E3_2_2"
    assert len(rows) == 4


# The benchmark's absorptive ladder point, at a truncation too tight for it.
LADDER_ABSORPTIVE = dict(
    n_atoms=1e8,
    g_p=0.0022,
    g_t=0.0022,
    delta_p=10.0,
    ladder_gamma21=1.0,
    ladder_gamma32=1.0,
    ladder_convention="absorptive",
    n_max=2,
    t_max=0.25,
    n_samples=26,
    mc_samples=200,
)


@pytest.mark.parametrize("command, config", [("simulate", SMALL_GATE), ("ladder", SMALL_LADDER)])
def test_unconditional_map_is_freed_before_the_conditional_one(
    tmp_path, monkeypatch, command, config
):
    # Each command makes one unit stack per generator, the unconditional
    # one first, and runs its one point in chunks of two time samples. A
    # chunk is dropped before the next one is stepped, and before it is
    # scored by the conditional fidelity.
    monkeypatch.setattr(cli, "_CHUNK_SAMPLES", 2)
    stack = dynamics.qubit_unit_stack
    score = observables.haar_conditional_fidelity
    maps, scored = [], []

    def dead(refs):
        gc.collect()
        return all(ref() is None for ref in refs)

    def spy(*args, **kwargs):
        if maps:
            assert dead(maps[-1]), "the unconditional map outlived its readout"
        evolve = stack(*args, **kwargs)

        def tracked(k, chunk):
            refs = []
            maps.append(refs)

            def stepped(traj):
                assert dead(refs), "a chunk outlived its readout"
                refs.extend(weakref.ref(Y) for _, _, Y in traj.blocks)
                return traj

            return map(stepped, evolve(k, chunk))

        return tracked

    def scoring(*args, **kwargs):
        assert dead(maps[-1]), "the conditional map outlived its readout"
        scored.append(1)
        return score(*args, **kwargs)

    monkeypatch.setattr(dynamics, "qubit_unit_stack", spy)
    monkeypatch.setattr(observables, "haar_conditional_fidelity", scoring)
    cfg_path = write_cfg(tmp_path, **config)
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert (len(maps), len(scored)) == (2, -(-config["n_samples"] // 2))


def test_ladder_truncation_guard_covers_every_basis_input(tmp_path, capsys, monkeypatch):
    # Equal amplitudes trip the guard on the superposition; a superposition
    # tilted towards |00> hides the edge population of the other inputs.
    evolve = dynamics.propagate_stack
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "propagate_stack", counting)
    tilted = {**LADDER_ABSORPTIVE, "c00": 1.0, "c01": 0.01, "c10": 0.01, "c11": 0.01}
    cfg_path = write_cfg(tmp_path, **tilted)
    out = tmp_path / "out"
    assert cli.main(["ladder", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "truncation leakage" in err
    assert "at time sample " in err and " of input |10> " in err
    assert len(calls) == 1
    assert not out.exists() or not any(out.iterdir())


def test_ladder_analysis_stays_below_one_dense_map():
    # As-printed n_max 6 reaches 769 of 147² vec entries. A (T,16,n,n)
    # array of the unit states would take 26*16*147²*16 B, about 144 MB.
    cfg = {**cli.DEFAULTS, **SMALL_LADDER, "n_max": 6, "t_max": 0.25, "n_samples": 26}
    dense_map = 26 * 16 * ladder.ladder_dim(6) ** 2 * 16
    res, peak = traced_peak(cli.run_ladder_analysis, cfg)
    assert res["fidelity"].shape == (26,)
    assert peak < dense_map, f"traced peak {peak / 1e6:.0f} MB"


def test_ladder_analysis_memory_is_set_by_the_build_not_the_readout():
    # Criterion 6's as-printed ladder at n_max 10: 363 states, T 26. A
    # readout that lifts 64 vec entries to dense 363² matrix units at a
    # time traces 153 MB here, 129 MB of it one chunk of units. Through
    # the index maps the readout takes a few MB, and the whole call
    # traces about 65 MB, set by the 131769² Liouvillian build and the
    # (131769, 16) unit columns.
    cfg = {**cli.DEFAULTS, **LADDER_ABSORPTIVE, "ladder_convention": "as-printed",
           "n_max": 10, "mc_samples": 2000}
    res, peak = traced_peak(cli.run_ladder_analysis, cfg)
    assert res["fidelity"].shape == (26,)
    assert peak < 130e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["ladder"],
    ["scan", "--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"],
])
@pytest.mark.parametrize("overrides, key", [
    ({"mc_samples": 0}, "mc_samples"),
    ({"mc_samples": -1}, "mc_samples"),
    ({"seed": -1}, "seed"),
    ({"c00": 0}, "c00"),
    ({"c00": [1e-13, 0.0]}, "c00"),
    ({"c00": 0, "c01": 0, "c10": 0, "c11": 0}, "c00, c01, c10, c11"),
    ({"c01": 0}, "'c01'"),
    ({"c10": [0.0, 1e-13]}, "'c10'"),
    ({"c00": 1e-6, "c11": 1e-7}, "'c11'"),
])
def test_gate_commands_reject_bad_monte_carlo_settings_before_propagating(
    tmp_path, capsys, monkeypatch, command, overrides, key
):
    def never(*args, **kwargs):
        raise AssertionError("propagated before validating the Monte Carlo settings")

    monkeypatch.setattr(dynamics, "propagate_stack", never)
    cfg_path = write_cfg(tmp_path, **{**SMALL_GATE, **overrides})
    out = tmp_path / "out"
    assert cli.main([*command, "--config", cfg_path, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["ladder"],
    ["scan", "--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"],
])
def test_gate_commands_propagate_through_propagate_stack(tmp_path, monkeypatch, command):
    # The function the rejection tests above patch is on every gate
    # command's path, so their "never" cannot pass vacuously.
    def never(*args, **kwargs):
        raise AssertionError("propagated")

    monkeypatch.setattr(dynamics, "propagate_stack", never)
    cfg_path = write_cfg(tmp_path, **(SMALL_LADDER if command == ["ladder"] else SMALL_GATE))
    with pytest.raises(AssertionError, match="propagated"):
        cli.main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["ladder"],
    ["scan", "--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"],
])
def test_gate_commands_form_no_matrix_unit_tensor(tmp_path, monkeypatch, command):
    # qubit_unit_stack writes the sixteen unit columns in place.
    def never(*args, **kwargs):
        raise AssertionError("formed the (16, n, n) unit tensor")

    monkeypatch.setattr(dynamics, "matrix_units", never)
    monkeypatch.setattr(ladder, "matrix_units", never)
    cfg_path = write_cfg(tmp_path, **(SMALL_LADDER if command == ["ladder"] else SMALL_GATE))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", cfg_path, "--out", str(out)]) == 0
    if command[0] == "scan":
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",") for row in rows)
    else:
        assert (out / "timeseries.csv").exists()


@pytest.mark.parametrize("method", ["exponential", "adaptive-rk"])
@pytest.mark.parametrize("key, value", [("abs_tol", 0), ("abs_tol", -1), ("rel_tol", -1)])
def test_non_positive_tolerances_are_rejected_before_propagating(
    tmp_path, capsys, monkeypatch, method, key, value
):
    def never(*args, **kwargs):
        raise AssertionError("propagated with a non-positive tolerance")

    monkeypatch.setattr(dynamics, "_plan", never)
    cfg_path = write_cfg(tmp_path, **{**SMALL_GATE, "method": method, key: value})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_adaptive_rk_refuses_a_rel_tol_below_its_solvers_least(tmp_path, capsys, monkeypatch):
    # scipy's RK45 would raise rel_tol 1e-15 to 100 eps with a warning,
    # while summary.json echoes 1e-15: refused by name before any solve.
    # The exponential engine reads no rel_tol and runs.
    def never(*args, **kwargs):
        raise AssertionError("propagated with a rel_tol below the solver's least")

    monkeypatch.setattr(dynamics, "_plan", never)
    cfg = {**SMALL_GATE, "method": "adaptive-rk", "rel_tol": 1e-15}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, **cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: rel_tol must be at least 2.220446049250313e-14 for adaptive-rk, got 1e-15\n"
    )
    assert not out.exists() or not any(out.iterdir())
    monkeypatch.undo()
    cfg["method"] = "exponential"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, **cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["rel_tol"] == 1e-15


def test_scan_records_an_adaptive_rk_rel_tol_below_its_solvers_least(tmp_path):
    cfg_path = write_cfg(tmp_path, **{**SMALL_GATE, "method": "adaptive-rk"})
    out = tmp_path / "scan"
    assert cli.main([
        "scan", "--config", cfg_path, "--out", str(out),
        "--param", "rel_tol", "--from", "1e-15", "--to", "1e-8", "--steps", "2",
    ]) == 0
    _, rows = _read_csv(out / "scan.csv")
    assert rows[0][1:] == [
        "", "", "", "rel_tol must be at least 2.220446049250313e-14 for adaptive-rk; got 1e-15"
    ]
    assert rows[1][4] == ""


def test_simulate_reports_a_non_finite_propagation(tmp_path, capsys):
    # At N_a = 1e300 the collective couplings overflow the propagator.
    cfg_path = write_cfg(
        tmp_path, n_atoms=1e300, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0, delta2=15.0,
        delta3=15.0, eps12=0.01, eps34=0.01, t_max=0.1, n_samples=5, mc_samples=50,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "non-finite at time sample 1" in err and "negligible success" not in err
    # The overflow is reported once, as the error, not also as numpy warnings.
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["simulate", "ladder", "groupvel", "perturbative"])
def test_an_infinite_collective_coupling_is_refused_by_name(tmp_path, capsys, command):
    # g_p·√N_a overflows to inf at N_a = 1e8; the params refuse it before
    # any build, so no inf·0 reaches numpy.
    cfg_path = write_cfg(tmp_path, n_atoms=1e8, g_p=1e308, g_t=0.0022, t_max=0.1, n_samples=5)
    out = [] if command == "perturbative" else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config", cfg_path, *out]) == 1
    err = capsys.readouterr().err
    assert err == "error: collective coupling g_p·√N_a must be finite\n"
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_groupvel_rejects_zero_fd_step(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, fd_step=0.0)
    assert cli.main(["groupvel", "--config", cfg_path]) == 1
    assert "fd_step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("c", -1), ("hbar", 0), ("epsilon0", 0), ("omega_p", 0), ("mu_p", -1)]
)
def test_groupvel_rejects_non_positive_optical_constants_before_propagating(
    tmp_path, capsys, monkeypatch, key, value
):
    def never(*args, **kwargs):
        raise AssertionError(f"propagated with {key} = {value}")

    monkeypatch.setattr(groupvel, "steady_state", never)
    monkeypatch.setattr(groupvel, "evolve_superoperator", never)
    cfg_path = write_cfg(tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, **{key: value})
    out = tmp_path / "out"
    assert cli.main(["groupvel", "--config", cfg_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"optical constant {key!r} must be positive" in captured.err
    assert captured.out == "" and not out.exists()


def test_groupvel_names_the_probe_offset_a_steady_solve_fails_at(tmp_path, capsys):
    cfg_path = write_cfg(
        tmp_path, n_atoms=1e6, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0, delta2=15.0,
        delta3=15.0, fd_step=1e9,
    )
    assert cli.main(["groupvel", "--config", cfg_path]) == 1
    assert "expected 1 at probe offset 1000000000.0" in capsys.readouterr().err


def test_error_exit_and_usage(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"nope": 1}), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(bad_cfg), "--out", str(tmp_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        n_atoms=1,
        g_p=0.5,
        g_t=0.5,
        omega1=65.0,
        omega4=65.0,
        delta2=1900.0,
        delta3=1900.0,
        eps12=1.9,
        eps34=1.9,
        t_max=100.0,
    )
    # ``-m`` puts the working directory first on the child's path, so the
    # child imports the same copy of the package as this process.
    proc = subprocess.run(
        [sys.executable, "-m", "eitgate.cli", "perturbative", "--config", cfg_path],
        capture_output=True,
        text=True,
        check=False,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["lambda_p"] == pytest.approx(7.702100748786742e-4, rel=1e-9)


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg", "scipy.sparse"])
def test_cli_import_leaves_scipy_integrate_unloaded(module):
    # Every CLI process pays for what importing the package loads; the
    # adaptive integrator and the matrix exponential are imported only
    # when an engine runs.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import eitgate.cli, sys; print({module!r} in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    assert proc.stdout.strip() == "False"


# Run in a child: the CLI's exit code, whether scipy, scipy.linalg,
# numpy.random and numpy.ma were loaded, the scipy submodules that eitgate's
# own code imported (an audit hook names the first frame outside importlib
# as the importer), and on Linux the number of OpenBLAS libraries mapped.
_LOADED_CODE = """
import json, sys
direct = set()

def audit(event, args):
    if event == "import" and args[0].startswith("scipy."):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename.startswith("<frozen"):
            frame = frame.f_back
        if frame is not None and "eitgate" in frame.f_code.co_filename:
            direct.add(args[0])

sys.addaudithook(audit)
import eitgate.cli
rc = eitgate.cli.main(sys.argv[1:])
blas = None
if sys.platform == "linux":
    with open("/proc/self/maps", encoding="utf-8") as fh:
        blas = len({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
print(json.dumps({
    "rc": rc, "scipy": "scipy" in sys.modules, "linalg": "scipy.linalg" in sys.modules,
    "random": "numpy.random" in sys.modules, "ma": "numpy.ma" in sys.modules,
    "direct": sorted(direct), "blas": blas,
}))
"""


def _loaded(tmp_path, command, config, extra):
    cfg_path = write_cfg(tmp_path, **config)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_CODE, command, "--config", cfg_path, *extra]
        + ([] if command == "groupvel" else ["--out", str(tmp_path / "out")]),
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, config, extra", [
    ("simulate", SMALL_GATE, []),
    ("scan", SMALL_GATE, ["--param", "g_p", "--from", "0.4", "--to", "0.5", "--steps", "2"]),
    ("ladder", SMALL_LADDER, []),
    ("groupvel", SMALL_GATE, []),
])
def test_commands_leave_scipy_linalg_unloaded(tmp_path, command, config, extra):
    # The generators are numpy CSR arrays and the propagation blocks use
    # dynamics.expm, or for groupvel's transient _expm2009.expm (scipy's
    # bits on numpy's own LAPACK), so no run loads any scipy module, and
    # with it neither scipy.linalg nor the second BLAS it brings. The
    # conditional fidelity is the exact Haar average, so the gate runs
    # draw nothing and leave numpy.random unloaded too. No run calls
    # np.unique either, whose first call imports numpy.ma.
    got = _loaded(tmp_path, command, config, extra)
    assert (got["rc"], got["linalg"], got["scipy"], got["direct"]) == (0, False, False, [])
    assert (got["random"], got["ma"]) == (False, False)


def test_adaptive_rk_groupvel_imports_scipy_integrate_only(tmp_path):
    # The transient's exponential is unused by the adaptive engine; the one
    # scipy module eitgate itself imports is the integrator (which brings
    # scipy.linalg with it).
    got = _loaded(tmp_path, "groupvel", {**SMALL_GATE, "method": "adaptive-rk"}, [])
    assert (got["rc"], got["scipy"], got["direct"]) == (0, True, ["scipy.integrate"])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
def test_groupvel_maps_a_single_openblas(tmp_path):
    # numpy's OpenBLAS serves the transient's LU solve too.
    assert _loaded(tmp_path, "groupvel", SMALL_GATE, [])["blas"] == 1


@pytest.mark.parametrize("cls", [MSchemeParams, LadderParams, OpticalConstants])
def test_config_rows_set_every_model_field_once(cls):
    named = [row.fields[cls] for row in cli._CONFIG.values() if cls in row.fields]
    assert sorted(named) == sorted(f.name for f in dataclasses.fields(cls))


def test_readme_names_every_config_key_and_each_bound_the_cli_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())  # a phrase may wrap
    assert [key for key in cli._CONFIG if f"`{key}`" not in readme] == []
    assert cli._MAX_SAMPLES == 2**60 - 1
    bounds = {key: row.bound for key, row in cli._CONFIG.items() if row.bound is not None}
    assert set(bounds) == {"t_max", "n_samples", "avg_grid", "mc_samples", "seed"}
    for key, bound in bounds.items():
        phrase = {cli._POSITIVE: f"`{key}` > 0", cli._SAMPLES: f"`{key}` in [2, 2⁶⁰ − 1]"}.get(
            bound, f"`{key}` ≥ {bound}"
        )
        assert phrase in readme, phrase


@pytest.mark.parametrize("loader, text, key", [
    (cli.load_config, '{"g_p": 0.0022, "g_p": 0.0}', "config key 'g_p'"),
    (cli.load_phase_table, '{"cps": 2.9, "phi10": 0.1, "cps": 0.0}', "phase key 'cps'"),
])
def test_loaders_refuse_a_repeated_key_by_name(tmp_path, loader, text, key):
    # json.load kept the last value silently, and summary.json echoed it.
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{key} is given more than once$"):
        loader(str(path))


def test_scan_accepts_only_the_numeric_keys_a_gate_run_reads(tmp_path, capsys, monkeypatch):
    # Before, a key no gate run reads (n_max, hbar, ...) gave identical rows.
    monkeypatch.setattr(cli, "_scan_results", lambda points: iter(()))
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    accepted = set()
    for key in cli.DEFAULTS:
        argv = ["scan", "--config", cfg_path, "--out", str(tmp_path / key), "--param", key,
                "--from", "1", "--to", "50", "--steps", "3"]
        if cli.main(argv) == 0:
            accepted.add(key)
    # The keys of the five-level model's fields, and the time grid and
    # engine settings. gamma_si sets gamma_SI, which only groupvel's SI
    # conversion reads.
    base = cli.params_from_config(cli.DEFAULTS)
    model = {k for k in cli.DEFAULTS if cli.params_from_config({**cli.DEFAULTS, k: 2}) != base}
    assert len(model) == len(dataclasses.fields(MSchemeParams))
    assert accepted == model - {"gamma_si"} | {"t_max", "n_samples", "rel_tol", "abs_tol"}


# The transient operating point with extreme but finite constants. Python
# floats raised ZeroDivisionError or OverflowError on them, or printed a
# density of Infinity, which is not JSON.
@pytest.mark.parametrize("key, value, message", [
    ("gamma_si", 1e-300, "the dispersion factor omega_p / (2 gamma_SI) is not finite"),
    ("hbar", 1e-320, "cell volume inf is not finite and positive"),
    ("mu_p", 1e-300, "cell volume 0.0 is not finite and positive"),
    ("gamma_si", 1e300, "cell volume 0.0 is not finite and positive"),
    ("mu_p", 1e300, "cell volume inf is not finite and positive"),
    ("epsilon0", 1e300, "cell density inf is not finite and positive"),
])
def test_groupvel_refuses_a_geometry_that_is_not_finite_by_name(tmp_path, capsys, key, value,
                                                                message):
    cfg_path = write_cfg(
        tmp_path, n_atoms=1e8, g_p=0.0022, g_t=0.0022, omega1=4.0, omega4=4.0, delta2=15.0,
        delta3=15.0, eps12=0.01, eps34=0.01, avg_grid=20, **{key: value},
    )
    assert cli.main(["groupvel", "--config", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
