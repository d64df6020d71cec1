"""Outside-in tracing of one ``eitgate.cli.main`` process.

Run as ``python3 perfbench/tracer.py RUN_ID SPANS_OUT -- CLI_ARGS...``.
It imports the package inside a ``startup.import`` span, replaces the
public functions of each layer by timing wrappers, calls
``eitgate.cli.main`` and, once it returns, writes every span and count to
SPANS_OUT as JSON. Nothing under ``src/`` is edited.

Several functions are bound by name at import (``from .mscheme import
build_liouvillian`` in ``dynamics``, ``ladder`` and ``groupvel``; scipy's
``expm`` in ``dynamics``), so a wrapper is installed in every ``eitgate``
module namespace that holds the function, not only where it is defined.
A span is named after the defining module (``mscheme.build_liouvillian``)
and remembers the namespace the call went through.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``.

    A span is ``[name, via, start, end, parent]``: ``parent`` is the index
    of the enclosing span, or -1 for a root. ``counts`` holds exact work
    counts recorded at the same boundaries.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.mc_keys: set[tuple[int, int]] = set()
        self.rss: list[dict] = []

    def open(self, name: str, via: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, via, time.perf_counter(), None, parent])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def dump(self, path: str) -> None:
        record = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": self.counts,
            "mc_keys": sorted(self.mc_keys),
            "rss": self.rss,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# --- exact counts, recorded from arguments and results ---------------------


def _matrix_stats(m) -> tuple[int, int, int]:
    """(dimension, bytes, nonzeros) of a dense or scipy.sparse matrix."""
    if hasattr(m, "nnz"):
        nbytes = sum(getattr(m, a).nbytes for a in ("data", "indices", "indptr") if hasattr(m, a))
        return m.shape[0], nbytes, int(m.nnz)
    import numpy as np

    return m.shape[0], m.nbytes, int(np.count_nonzero(m))


def _count_generator(tr: Tracer, args: dict, result) -> None:
    dim, nbytes, nnz = _matrix_stats(result)
    tr.add("mscheme.generator_bytes", nbytes)
    tr.add("mscheme.generator_entries", dim * dim)
    tr.add("mscheme.generator_nonzeros", nnz)
    tr.maximum("mscheme.generator_dim", dim)


def _count_expm(tr: Tracer, args: dict, result) -> None:
    dim = args["A"].shape[0]
    tr.maximum("dynamics.expm.max_dim", dim)
    tr.add("dynamics.expm.dim_sum", dim)


def _count_traj(tr: Tracer, args: dict, result) -> None:
    tr.add("dynamics.traj_bytes", result.nbytes)


def _count_reduce(tr: Tracer, args: dict, result) -> None:
    shape = args["rho"].shape
    states = 1
    for s in shape[:-2]:
        states *= s
    tr.add("observables.reduce_to_fields.states", states)


def _count_mc(tr: Tracer, args: dict, result) -> None:
    # The draws are a pure function of (seed, mc_samples): the same pair
    # redraws the same Haar states.
    samples = int(args["mc_samples"])
    tr.add("observables.mc_draws", samples)
    tr.add("observables.mc_used", int(result.samples_used))
    tr.mc_keys.add((int(args["seed"]), samples))


def _count_output(tr: Tracer, args: dict, result) -> None:
    tr.add("cli.output_bytes", len(args["text"].encode("utf-8")))


# (defining module, function, count hook)
TARGETS = (
    ("cli", "main", None),
    ("cli", "run_gate_analysis", None),
    ("cli", "run_ladder_analysis", None),
    ("cli", "_metrics_from_blocks", None),
    ("cli", "_write_timeseries", None),
    ("cli", "_write_summary", None),
    ("cli", "_atomic_write", _count_output),
    ("mscheme", "build_liouvillian", _count_generator),
    ("dynamics", "conditional_generator", _count_generator),
    ("dynamics", "expm", _count_expm),
    ("dynamics", "evolve_superoperator", _count_traj),
    ("dynamics", "steady_state", None),
    ("observables", "reduce_to_fields", _count_reduce),
    ("observables", "extract_phases", None),
    ("observables", "phases_from_coherences", None),
    ("observables", "average_fidelity_from_blocks", None),
    ("observables", "conditional_fidelity_from_blocks", _count_mc),
    ("observables", "populations", None),
    ("ladder", "build_ladder_liouvillian", None),
    ("ladder", "reduce_to_photons", None),
    ("ladder", "photon_qubit_block", None),
    ("ladder", "check_truncation", None),
    ("groupvel", "group_velocity_steady", None),
    ("groupvel", "group_velocity_transient", None),
    ("groupvel", "steady_susceptibility", None),
    ("groupvel", "semiclassical_liouvillian", None),
    ("perturbative", "phase_rates", None),
    ("interferometer", "fock_coincidences", None),
)

# Bindings (namespace, attribute) whose calls build the ladder generators;
# their spans also record the resident set before the call and the peak
# RSS before and after it.
RSS_BINDINGS = {("ladder", "build_ladder_liouvillian"), ("ladder", "conditional_generator")}


def _wrap(tr: Tracer, name: str, via: str, fn, count, rss: bool):
    sig = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rss:
            before, peak_before = _current_rss_mb(), _peak_rss_mb()
        sid = tr.open(name, via)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(sid)
        if rss:
            tr.rss.append({"name": name, "via": via, "before_mb": before,
                           "peak_before_mb": peak_before, "peak_mb": _peak_rss_mb()})
        if count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count(tr, bound.arguments, result)
        return result

    return wrapper


def install(tr: Tracer) -> list[str]:
    """Wrap every target in every ``eitgate`` namespace that binds it.

    Returns the patched bindings as ``namespace.attribute``.
    """
    mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items() if k.startswith("eitgate.")}
    patched = []
    for mod_name, func_name, count in TARGETS:
        original = getattr(mods[mod_name], func_name)
        name = f"{mod_name}.{func_name}"
        for ns_name, ns in sorted(mods.items()):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    rss = (ns_name, attr) in RSS_BINDINGS
                    setattr(ns, attr, _wrap(tr, name, ns_name, original, count, rss))
                    patched.append(f"{ns_name}.{attr}")
    return patched


def main(argv: list[str]) -> int:
    run_id, out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py RUN_ID SPANS_OUT -- CLI_ARGS...")
    tr = Tracer(run_id)
    # The import span starts when this script started, so module loading
    # of the tracer itself is attributed too.
    tr.spans.append(["startup.import", "", _T_START, None, -1])
    tr.stack.append(0)
    import eitgate.cli

    tr.close(0)
    install(tr)
    rc = eitgate.cli.main(cli_argv)
    tr.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
