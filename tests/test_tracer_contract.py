"""The names ``perfbench/tracer.py`` wraps, and the arguments it reads.

The tracer finds its targets by module and name and reads some of their
arguments by parameter name, so a rename in the package would only
surface in a traced benchmark run. These tests load the tracer by path,
without editing it, and check that its targets resolve, that the
parameters its count hooks read still exist, and that a traced ``ladder``
run records the resident set at every binding in ``RSS_BINDINGS``.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys

from _support import REPO, child_env
from test_golden import _LADDER

TRACER = REPO / "perfbench" / "tracer.py"

# (module, function) -> parameters its count hook reads by name
HOOK_PARAMETERS = {
    ("dynamics", "expm"): {"A"},
    ("observables", "reduce_to_fields"): {"rho"},
    ("observables", "conditional_fidelity_from_blocks"): {"mc_samples", "seed"},
    ("cli", "_atomic_write"): {"text"},
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module: str, name: str):
    return getattr(importlib.import_module(f"eitgate.{module}"), name)


def test_every_target_resolves():
    tracer = _load_tracer()
    for module, name, _hook in tracer.TARGETS:
        assert callable(_target(module, name)), f"{module}.{name}"
    for module, name in tracer.RSS_BINDINGS:
        assert callable(_target(module, name)), f"{module}.{name}"


def test_count_hooks_find_their_parameters():
    hooked = {(m, n) for m, n, hook in _load_tracer().TARGETS if hook is not None}
    for (module, name), params in HOOK_PARAMETERS.items():
        assert (module, name) in hooked
        missing = params - set(inspect.signature(_target(module, name)).parameters)
        assert not missing, f"{module}.{name} lacks {sorted(missing)}"


def test_traced_ladder_run_records_every_rss_binding(tmp_path):
    tracer = _load_tracer()
    cfg = tmp_path / "ladder.json"
    cfg.write_text(json.dumps(_LADDER), encoding="utf-8")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "contract", str(spans), "--",
         "ladder", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=child_env(),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rss = json.loads(spans.read_text(encoding="utf-8"))["rss"]
    recorded = sorted((r["via"], r["name"].split(".")[1]) for r in rss)
    assert recorded == sorted(tracer.RSS_BINDINGS)


def test_matrix_stats_reads_the_generator():
    # generator_bytes counts the generator's three CSR arrays.
    from eitgate import dynamics

    from _support import RICH_PARAMS

    L = dynamics.build_liouvillian_for(RICH_PARAMS)
    nbytes = L.data.nbytes + L.indices.nbytes + L.indptr.nbytes
    assert _load_tracer()._matrix_stats(L) == (324, nbytes, L.nnz)


def test_groupvel_calls_the_traced_builder_and_solvers():
    # groupvel binds these by name at import; the tracer wraps every
    # namespace that holds the defining module's object, so the builds
    # and solves of a groupvel run are counted only while they are the same.
    from eitgate import dynamics, groupvel, mscheme

    targets = {(m, n) for m, n, _hook in _load_tracer().TARGETS}
    for name, module in (
        ("build_liouvillian", mscheme),
        ("steady_state", dynamics),
        ("evolve_superoperator", dynamics),
    ):
        assert (module.__name__.split(".")[1], name) in targets
        assert getattr(groupvel, name) is getattr(module, name), name
