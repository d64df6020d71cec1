"""Self-test of the benchmark at shrunken workload sizes.

    python3 perfbench/selftest.py

For each workload it records a reference from one shrunken iteration,
then runs the benchmark untraced and traced against it. It asserts that
every metric named in ``BENCHMARK.json`` is reported with its unit, that
the outputs pass, and that a perturbed output file fails the check. It
also asserts that the tracer wraps the functions bound by name at import
in every namespace that calls them. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
import run
import tracer
import workloads

# Bindings made by ``from ... import name`` that a wrapper at the
# definition alone would miss.
IMPORTED_BINDINGS = (
    "dynamics.build_liouvillian",
    "ladder.build_liouvillian",
    "ladder.conditional_generator",
    "ladder.evolve_superoperator",
    "groupvel.evolve_superoperator",
    "groupvel.steady_state",
    "groupvel.build_liouvillian",
    "dynamics.expm",
)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def _perturb(path: Path, column: str, factor: float | None = None, value: str | None = None) -> None:
    """Rewrite one cell of a CSV file: scale it, or replace it."""
    lines = path.read_text(encoding="utf-8").split("\n")
    j = lines[0].split(",").index(column)
    cells = lines[-2].split(",")
    cells[j] = value if value is not None else repr(float(cells[j]) * factor)
    lines[-2] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def check_perturbations(name: str, it: Path, ref: dict, seed: int) -> None:
    wl = workloads.get(name, small=True)
    step = wl.steps[0]
    _expect(check.check_step(it, step, ref, seed)[0] == 0, f"{name}: recorded outputs pass")
    csv = next(p for p in (it / step.name).glob("*.csv"))
    original = csv.read_bytes()
    column = "fidelity"
    _perturb(csv, column, factor=1.0 + 1e-9)
    failed, msgs = check.check_step(it, step, ref, seed)
    _expect(failed == 1 and any(column in m for m in msgs), f"{name}: {column} off by 1e-9 fails one operation")
    csv.write_bytes(original)
    _perturb(csv, "cond_fidelity", value="1.5")
    _expect(check.check_step(it, step, ref, seed)[0] == 1, f"{name}: cond_fidelity 1.5 fails one operation")
    csv.write_bytes(original)
    if name == "scan-coupling":
        _perturb(csv, "error", value="boom")
        _expect(check.check_step(it, step, ref, seed)[0] == 1, f"{name}: a scan error cell fails its point")
        csv.write_bytes(original)
    if name == "gate-transient":
        summary = it / "simulate" / "summary.json"
        original = summary.read_bytes()
        data = json.loads(original)
        data["config"]["seed"] = seed + 1
        summary.write_text(json.dumps(data), encoding="utf-8")
        _expect(check.check_step(it, step, ref, seed)[0] == 1, f"{name}: a wrong echoed seed fails")
        summary.write_bytes(original)


def check_metrics(name: str, ref: dict, seed: int, spec: dict) -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        res = run.benchmark(name, seed, 0.0, trace, small=True, ref=ref, log=lambda _m: None)
        _expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                f"{name} trace={int(trace)}: outputs correct ({res['attempted']} operations)")
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        _expect(got == want, f"{name} trace={int(trace)}: every {kind} metric reported with its unit")
        _expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                f"{name} trace={int(trace)}: every value is a number")


def check_tracer_bindings() -> None:
    sys.path.insert(0, str(run.SRC))
    import eitgate.cli  # noqa: F401

    patched = set(tracer.install(tracer.Tracer("selftest")))
    missing = [b for b in IMPORTED_BINDINGS if b not in patched]
    _expect(not missing, f"tracer wraps imported bindings {', '.join(IMPORTED_BINDINGS)} (missing: {missing})")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _expect({w["name"] for w in spec["workloads"]} == set(workloads.NAMES), "BENCHMARK.json lists the workloads")
    _expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end metrics match run.py")
    _expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer metrics match run.py")
    seed = 5
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in workloads.NAMES:
            wl = workloads.get(name, small=True)
            res = run.run_iteration(wl, work / name, seed, None)
            _expect(all(s["rc"] == 0 for s in res["steps"]), f"{name}: shrunken iteration runs")
            ref = check.record(res["dir"], wl.steps)
            check_perturbations(name, res["dir"], ref, seed)
            check_metrics(name, ref, seed, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    check_tracer_bindings()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
