"""The three benchmark workloads: configs, CLI command sequences, rationale.

Every workload is a closed loop with one client: the benchmark starts one
``eitgate.cli.main`` process, waits for it to exit, then starts the next.
The benchmark seed becomes the config ``seed`` of every command; it only
drives the Monte Carlo draws of the conditional fidelity, so all other
outputs are seed-independent and can be compared against references.

``small=True`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The paper's transient operating point (the shape of acceptance criterion 1).
_GATE_POINT = {
    "n_atoms": 1e8,
    "g_p": 0.0022,
    "g_t": 0.0022,
    "omega1": 4.0,
    "omega4": 4.0,
    "delta2": 15.0,
    "delta3": 15.0,
    "eps12": 0.01,
    "eps34": 0.01,
}

_LADDER_POINT = {
    "n_atoms": 1e8,
    "g_p": 0.0022,
    "g_t": 0.0022,
    "delta_p": 10.0,
    "ladder_gamma21": 1.0,
    "ladder_gamma32": 1.0,
    "ladder_convention": "absorptive",
}


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload iteration.

    ``argv`` is relative to the iteration directory: ``{it}`` expands to
    it. ``prepare`` writes inputs that depend on earlier steps' outputs.
    ``ops`` is the number of operations the step counts for: one per
    command, one per point for a scan.
    """

    name: str
    argv: tuple[str, ...]
    ops: int = 1
    prepare: Callable[[Path], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    steps: tuple[Step, ...]

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


def _write_phase_table(it: Path) -> None:
    """Phase table for ``fringes`` from the simulated π crossing."""
    summary = json.loads((it / "simulate" / "summary.json").read_text(encoding="utf-8"))
    at = summary["at_pi_crossing"]
    if at is None:
        raise RuntimeError("simulate found no π crossing; no phase table for fringes")
    table = {"cps": at["cps"], "phi10": at["phi10"]}
    (it / "phases.json").write_text(json.dumps(table, sort_keys=True) + "\n", encoding="utf-8")


def _gate_transient(small: bool) -> Workload:
    cfg = {
        **_GATE_POINT,
        "t_max": 1.0,
        "n_samples": 51 if small else 401,
        "mc_samples": 200 if small else 2000,
    }
    return Workload(
        name="gate-transient",
        why=(
            "simulate at the transient point (T=401, 2000 MC draws), then fringes, "
            "groupvel and perturbative: per-sample readout and MC metrics dominate"
        ),
        config=cfg,
        steps=(
            Step("simulate", ("simulate", "--config", "{it}/config.json", "--out", "{it}/simulate")),
            Step(
                "fringes",
                ("fringes", "--phases", "{it}/phases.json", "--out", "{it}/fringes"),
                prepare=_write_phase_table,
            ),
            Step("groupvel", ("groupvel", "--config", "{it}/config.json", "--out", "{it}/groupvel")),
            Step("perturbative", ("perturbative", "--config", "{it}/config.json")),
        ),
    )


def _scan_coupling(small: bool) -> Workload:
    steps = 3 if small else 12
    cfg = {**_GATE_POINT, "t_max": 0.5, "n_samples": 26, "mc_samples": 100 if small else 400}
    return Workload(
        name="scan-coupling",
        why=(
            "12-point g_p scan of short gate runs: per-run generator builds, expm and "
            "Haar draws repeat, so work moved into per-run set-up shows"
        ),
        config=cfg,
        steps=(
            Step(
                "scan",
                (
                    "scan", "--config", "{it}/config.json", "--out", "{it}/scan",
                    "--param", "g_p", "--from", "0.0022", "--to", "0.0030",
                    "--steps", str(steps),
                ),
                ops=steps,
            ),
        ),
    )


def _ladder_absorptive(small: bool) -> Workload:
    cfg = {
        **_LADDER_POINT,
        # Below 3 the truncation guard trips: an emitted probe photon
        # reaches n_p = 2 at once.
        "n_max": 3,
        "t_max": 0.25,
        "n_samples": 26 if small else 126,
        "mc_samples": 200 if small else 2000,
    }
    return Workload(
        name="ladder-absorptive",
        why=(
            "ladder model at n_max=3 (dense 2304^2 generator): expm and stepping "
            "dominate and set peak memory; readout is a small share"
        ),
        config=cfg,
        steps=(Step("ladder", ("ladder", "--config", "{it}/config.json", "--out", "{it}/ladder")),),
    )


_WORKLOADS = {
    "gate-transient": _gate_transient,
    "scan-coupling": _scan_coupling,
    "ladder-absorptive": _ladder_absorptive,
}

NAMES = tuple(_WORKLOADS)


def get(name: str, small: bool = False) -> Workload:
    return _WORKLOADS[name](small)
