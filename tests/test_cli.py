"""Command-line interface: config handling, outputs, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eitgate import cli, groupvel, interferometer, observables
from eitgate.mscheme import GAMMA_SI_DEFAULT


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
    ],
)
def test_load_config_rejects_bad_values(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (key,) = payload
    with pytest.raises(ValueError, match=f"'{key}'"):
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
    pop_names = [f"pop_{n}" for n in observables.population_names()]
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


def test_simulate_runs_are_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("timeseries.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    out = tmp_path / "seeded"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["seed"] == 7


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
    def broken(cfg):
        raise TypeError("not a domain error")

    monkeypatch.setattr(cli, "run_gate_analysis", broken)
    cfg_path = write_cfg(tmp_path, **FAST_GATE)
    with pytest.raises(TypeError, match="not a domain error"):
        cli.main([
            "scan", "--config", cfg_path, "--out", str(tmp_path / "scan"),
            "--param", "g_p", "--from", "0.002", "--to", "0.003", "--steps", "2",
        ])


def test_scan_rejects_bad_parameters(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **SMALL_GATE)
    base = ["scan", "--config", cfg_path, "--out", str(tmp_path / "x")]
    for extra in (
        ["--param", "method", "--from", "0", "--to", "1", "--steps", "2"],
        ["--param", "bogus", "--from", "0", "--to", "1", "--steps", "2"],
        ["--param", "c00", "--from", "0", "--to", "1", "--steps", "2"],
        ["--param", "g_p", "--from", "0", "--to", "1", "--steps", "0"],
    ):
        assert cli.main(base + extra) == 1
        assert capsys.readouterr().err.startswith("error:")


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


def test_ladder_cli_outputs(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
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
