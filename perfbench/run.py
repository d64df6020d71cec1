"""Benchmark of the eitgate CLI: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
``src/``. Every CLI command runs in a fresh interpreter, one at a time, so
the BLAS thread pool never competes with another run.

``--trace 0`` measures set-up (``setup_s``: a fresh interpreter imports
``eitgate.cli`` and loads the workload config, median of several), then
repeats the workload until S seconds have passed and reports the median
iteration wall time and peak RSS. ``--trace 1`` alternates an untraced and
a traced iteration (see ``tracer.py``) for S seconds and reports per-layer
self times and exact work counts from the traced ones; ``trace.overhead_s``
is the traced wall minus the untraced wall.

Every iteration's outputs are checked (see ``check.py``) and must be
byte-identical to the first iteration's. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` (operations: one per
CLI command or scan point) and ``metrics``.

``--workload all`` runs the workloads one after another and prefixes each
metric with its workload name. ``--record-reference`` runs one iteration
and writes the reference outputs the checks compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference"

SETUP_REPS = 7
# Untraced iterations per run, at least; then more while the next one
# still fits in --seconds.
MIN_ITERATIONS = 2
SETUP_CODE = (
    "import sys, eitgate.cli as c; c.load_config(sys.argv[1]); print(c.__file__)"
)
UNTRACED_CODE = "import sys; from eitgate.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run. Names are <module>.<function>.<stat>
# for span aggregates; the rest are exact counts or trace-wide figures.
PER_LAYER = {
    "observables.conditional_fidelity_from_blocks.self_s": "s",
    "observables.conditional_fidelity_from_blocks.calls": "count",
    "observables.mc_draws": "count",
    "observables.mc_distinct_ratio": "ratio",
    "observables.mc_used_ratio": "ratio",
    "observables.reduce_to_fields.self_s": "s",
    "observables.reduce_to_fields.calls": "count",
    "observables.reduce_to_fields.states": "count",
    "observables.extract_phases.self_s": "s",
    "observables.phases_from_coherences.self_s": "s",
    "observables.average_fidelity_from_blocks.self_s": "s",
    "observables.populations.self_s": "s",
    "cli._metrics_from_blocks.self_s": "s",
    "cli.run_gate_analysis.self_s": "s",
    "cli.run_ladder_analysis.self_s": "s",
    "dynamics.expm.self_s": "s",
    "dynamics.expm.calls": "count",
    "dynamics.expm.max_dim": "count",
    "dynamics.expm.dim_sum": "count",
    "dynamics.evolve_superoperator.self_s": "s",
    "dynamics.evolve_superoperator.calls": "count",
    "dynamics.traj_bytes": "B",
    "mscheme.build_liouvillian.self_s": "s",
    "mscheme.build_liouvillian.calls": "count",
    "dynamics.conditional_generator.self_s": "s",
    "ladder.build_ladder_liouvillian.self_s": "s",
    "mscheme.generator_bytes": "B",
    "mscheme.generator_fill": "ratio",
    "mscheme.generator_dim": "count",
    "ladder.build.rss_delta_mb": "MB",
    "ladder.reduce_to_photons.self_s": "s",
    "ladder.photon_qubit_block.self_s": "s",
    "ladder.check_truncation.self_s": "s",
    "groupvel.group_velocity_transient.self_s": "s",
    "groupvel.group_velocity_steady.self_s": "s",
    "groupvel.steady_susceptibility.self_s": "s",
    "groupvel.steady_susceptibility.calls": "count",
    "groupvel.semiclassical_liouvillian.self_s": "s",
    "dynamics.steady_state.self_s": "s",
    "perturbative.phase_rates.self_s": "s",
    "interferometer.fock_coincidences.self_s": "s",
    "cli.output.self_s": "s",
    "cli.output_bytes": "B",
    "cli.main.self_s": "s",
    "startup.import.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_coverage": "ratio",
    "trace.overhead_s": "s",
}

OUTPUT_SPANS = ("cli._write_timeseries", "cli._write_summary", "cli._atomic_write")


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure: no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall s, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(work: Path, config_path: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the config."""
    out, err = work / "setup.stdout", work / "setup.stderr"
    rc, wall, _ = _spawn([sys.executable, "-c", SETUP_CODE, str(config_path)], out, err)
    if rc != 0:
        raise BenchmarkError(f"set-up failed: {err.read_text(errors='replace').strip()}")
    imported = Path(out.read_text().strip()).resolve()
    if not imported.is_relative_to(SRC):
        raise BenchmarkError(f"imported {imported}, not the package under {SRC}")
    return wall


def run_iteration(wl, it: Path, seed: int, tracer_run_id: str | None) -> dict:
    """One pass over the workload's commands in directory ``it``."""
    it.mkdir(parents=True)
    (it / "config.json").write_text(json.dumps(wl.config_for(seed), sort_keys=True) + "\n")
    steps = []
    t0 = time.perf_counter()
    for step in wl.steps:
        if step.prepare is not None:
            try:
                step.prepare(it)
            except (OSError, ValueError, KeyError, RuntimeError) as exc:
                steps.append({"step": step, "rc": None, "error": f"prepare: {exc}", "rss": 0.0})
                continue
        cli_argv = [a.replace("{it}", str(it)) for a in step.argv]
        if tracer_run_id is None:
            argv = [sys.executable, "-c", UNTRACED_CODE, *cli_argv]
        else:
            spans = it / f"{step.name}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), tracer_run_id, str(spans), "--", *cli_argv]
        rc, _, rss = _spawn(argv, it / f"{step.name}.stdout", it / f"{step.name}.stderr")
        steps.append({"step": step, "rc": rc, "rss": rss})
    return {"dir": it, "wall": time.perf_counter() - t0, "steps": steps,
            "rss": max(s["rss"] for s in steps)}


def check_iteration(wl, res: dict, ref: dict, seed: int, first: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one iteration.

    ``first`` is the first iteration of the run; its output bytes must be
    reproduced exactly.
    """
    it = res["dir"]
    attempted = failed = 0
    msgs = []
    same = None
    if first is not None:
        a, b = check.digests(first["dir"], wl.steps), check.digests(it, wl.steps)
        same = {k for k in a if a.get(k) == b.get(k)} if a.keys() == b.keys() else set()
    for s in res["steps"]:
        step = s["step"]
        attempted += step.ops
        if s["rc"] != 0:
            failed += step.ops
            detail = s.get("error") or (it / f"{step.name}.stderr").read_text(errors="replace").strip()
            msgs.append(f"{step.name}: exit {s['rc']}: {detail}")
            continue
        n_bad, m = check.check_step(it, step, ref, seed)
        if same is not None and n_bad == 0:
            differ = [p for p in check.digests(it, [step]) if p not in same]
            if differ:
                n_bad = step.ops
                m.append(f"{step.name}: not byte-identical to the first iteration: {differ}")
        failed += n_bad
        msgs += m
    return attempted, failed, msgs


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced iteration."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    mc_keys: set[tuple[int, int]] = set()
    rss_delta = 0.0
    for s in res["steps"]:
        path = res["dir"] / f"{s['step'].name}.spans.json"
        if not path.is_file():  # the step failed; its check counts that
            continue
        rec = json.loads(path.read_text())
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, _via, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, _via, start, end, _parent), c in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - c
            calls[name] = calls.get(name, 0) + 1
        for k, v in rec["counts"].items():
            combine = max if k.endswith("_dim") else (lambda a, b: a + b)
            counts[k] = combine(counts[k], v) if k in counts else v
        mc_keys |= {tuple(k) for k in rec["mc_keys"]}
        for r in rec["rss"]:
            # ru_maxrss only shows a build's own peak when the build sets a
            # new high-water mark; the first (unconditional) build does.
            if r["peak_mb"] > r["peak_before_mb"]:
                rss_delta = max(rss_delta, r["peak_mb"] - r["before_mb"])

    out = {}
    for name, unit in PER_LAYER.items():
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif stat == "calls":
            out[name] = calls.get(base, 0)
        elif name in counts:
            out[name] = counts[name]
    draws = counts.get("observables.mc_draws", 0)
    entries = counts.get("mscheme.generator_entries", 0)
    out.update({
        "observables.mc_draws": draws,
        "observables.mc_distinct_ratio": sum(n for _, n in mc_keys) / draws if draws else 0.0,
        "observables.mc_used_ratio": counts.get("observables.mc_used", 0) / draws if draws else 0.0,
        "mscheme.generator_fill": counts.get("mscheme.generator_nonzeros", 0) / entries if entries else 0.0,
        "ladder.build.rss_delta_mb": rss_delta,
        "cli.output.self_s": sum(self_s.get(n, 0.0) for n in OUTPUT_SPANS),
        "trace.wall_s": res["wall"],
        "trace.self_coverage": sum(self_s.values()) / res["wall"],
    })
    for name in PER_LAYER:
        out.setdefault(name, 0)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def benchmark(name: str, seed: int, seconds: float, trace: bool, *, small: bool = False,
              ref: dict | None = None, log=print) -> dict:
    """Run one benchmark measurement and return the result object."""
    wl = workloads.get(name, small)
    if ref is None:
        ref_path = REFERENCE / f"{name}.json"
        if not ref_path.is_file():
            raise BenchmarkError(f"no reference outputs at {ref_path}")
        ref = json.loads(ref_path.read_text())
    work = WORK / f"{name}-s{seed}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        cfg = work / "config.json"
        cfg.write_text(json.dumps(wl.config_for(seed), sort_keys=True) + "\n")
        run_id = uuid.uuid4().hex
        setup, plain, traced = [], [], []
        t0 = time.perf_counter()
        min_iterations = 1 if trace else MIN_ITERATIONS
        while True:
            k = len(plain)
            # One set-up sample before each iteration spreads them over the run.
            setup.append(measure_setup(work, cfg))
            plain.append(run_iteration(wl, work / f"iter-{k}", seed, None))
            if trace:
                traced.append(run_iteration(wl, work / f"traced-{k}", seed, run_id))
            elapsed = time.perf_counter() - t0
            if len(plain) >= min_iterations and elapsed * (k + 2) / (k + 1) > seconds:
                break
        if not trace:
            setup += [measure_setup(work, cfg) for _ in range(SETUP_REPS - len(setup))]
        attempted = failed = 0
        for res in plain + traced:
            a, f, msgs = check_iteration(wl, res, ref, seed, plain[0] if res is not plain[0] else None)
            attempted += a
            failed += f
            for m in msgs[:20]:
                log(f"check failed [{res['dir'].name}]: {m}")

        walls = [r["wall"] for r in plain]
        q1, q2, q3 = _quartiles(walls)
        log(f"workload {name} seed {seed}: {len(plain)} iteration(s), wall_s "
            f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f}: {' '.join(f'{w:.4f}' for w in walls)}")
        log(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
        if trace:
            per_iter = [layer_metrics(r) for r in traced]
            for lm, p in zip(per_iter, plain):
                lm["trace.overhead_s"] = lm["trace.wall_s"] - p["wall"]
            metrics = {n: {"value": statistics.median(lm[n] for lm in per_iter), "unit": u}
                       for n, u in PER_LAYER.items()}
            if metrics["trace.self_coverage"]["value"] < 0.9:
                log("warning: span self times cover under 90% of the traced wall time")
        else:
            values = {
                "wall_s": q2,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["rss"] for r in plain),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        for n, m in metrics.items():
            log(f"{n} {m['value']:.6g} {m['unit']}")
        log(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def record_reference(name: str, seed: int) -> Path:
    """Run one untraced iteration and store its outputs as the reference."""
    wl = workloads.get(name)
    work = WORK / f"record-{name}-{os.getpid()}"
    try:
        res = run_iteration(wl, work / "iter-0", seed, None)
        bad = [s["step"].name for s in res["steps"] if s["rc"] != 0]
        if bad:
            raise BenchmarkError(f"steps failed while recording: {bad}")
        REFERENCE.mkdir(exist_ok=True)
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps(check.record(res["dir"], wl.steps), sort_keys=True) + "\n")
        return path
    finally:
        shutil.rmtree(work, ignore_errors=True)


def provenance() -> dict:
    """Machine and library versions the numbers were measured with."""
    import platform

    out = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        out["cpu"] = next(l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name"))
    except (OSError, StopIteration):
        out["cpu"] = None
    import numpy
    import scipy

    out["numpy"] = numpy.__version__
    out["scipy"] = scipy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    out["blas_threads"] = _blas_threads()
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out["commit"] = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                       capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        out["commit"] = None
    return out


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                   help="'all' runs every workload in turn and prefixes metric names")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this commit's outputs as the reference, then exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        if not (SRC / "eitgate" / "cli.py").is_file():
            raise BenchmarkError(f"no eitgate package under {SRC}")
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        if args.record_reference:
            for n in names:
                print(f"wrote {record_reference(n, args.seed)}")
            return 0
        results = {n: benchmark(n, args.seed, args.seconds, bool(args.trace)) for n in names}
        print("provenance " + json.dumps(provenance(), sort_keys=True))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
