"""Golden-output regression: CLI files agree with committed references.

Each case runs one subcommand on a fixed config and compares every file
it writes (and any JSON it prints) with the copy under ``tests/golden``.
Numbers must agree to 1e-12 relative: a CSV value relative to the largest
magnitude in its golden column, a JSON value relative to its own golden
magnitude. Text cells and keys must match exactly. The Monte Carlo
columns are included, since the seed is fixed.

Regenerate the references only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from eitgate import cli

from _support import fast_gate_config

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

_LADDER = dict(
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

# case name -> (subcommand, config overrides)
CASES = {
    "simulate_lindblad": ("simulate", {**fast_gate_config(), "dephasing_mode": "lindblad"}),
    "simulate_excluded": ("simulate", {**fast_gate_config(), "dephasing_mode": "excluded"}),
    "ladder": ("ladder", _LADDER),
    "groupvel": ("groupvel", {**fast_gate_config(), "t_max": 1.0}),
}


def run_case(name: str, outdir: Path) -> None:
    """Run one case into outdir; printed JSON goes to stdout.json."""
    command, overrides = CASES[name]
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_path = outdir.parent / f"{name}.config.json"
    cfg_path.write_text(json.dumps(overrides), encoding="utf-8")
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(outdir)])
    finally:
        cfg_path.unlink()
    if rc != 0:
        raise RuntimeError(f"{command} exited with {rc}")
    if buf.getvalue():
        (outdir / "stdout.json").write_text(buf.getvalue(), encoding="utf-8")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    return {prefix[:-1]: obj}


def _close(value, expected, scale: float) -> bool:
    if isinstance(expected, float) and isinstance(value, (int, float)):
        return value == expected or abs(value - expected) <= RTOL * scale
    return value == expected


def _csv_mismatches(got: Path, ref: Path) -> list[str]:
    def read(path):
        lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
        return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]]

    header, rows = read(got)
    ref_header, ref_rows = read(ref)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"header or row count differs: {len(rows)} rows, expected {len(ref_rows)}"]
    scales = [
        max((abs(r[j]) for r in ref_rows if isinstance(r[j], float)), default=0.0)
        for j in range(len(ref_header))
    ]
    return [
        f"row {i} {ref_header[j]}: {v!r}, expected {e!r}"
        for i, (row, exp) in enumerate(zip(rows, ref_rows))
        for j, (v, e) in enumerate(zip(row, exp))
        if not _close(v, e, scales[j])
    ]


def _json_mismatches(got: Path, ref: Path) -> list[str]:
    values = _flatten(json.loads(got.read_text(encoding="utf-8")))
    expected = _flatten(json.loads(ref.read_text(encoding="utf-8")))
    if set(values) != set(expected):
        return [f"keys differ: {sorted(set(values) ^ set(expected))}"]
    return [
        f"{k}: {values[k]!r}, expected {e!r}"
        for k, e in expected.items()
        if not _close(values[k], e, abs(e) if isinstance(e, float) else 0.0)
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(tmp_path, name):
    out = tmp_path / name
    run_case(name, out)
    ref_dir = GOLDEN / name
    produced = sorted(p.name for p in out.iterdir())
    assert produced == sorted(p.name for p in ref_dir.iterdir())
    for fname in produced:
        compare = _csv_mismatches if fname.endswith(".csv") else _json_mismatches
        bad = compare(out / fname, ref_dir / fname)
        assert not bad, f"{name}/{fname}: " + "; ".join(bad[:5])


if __name__ == "__main__":
    for case in CASES:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        run_case(case, GOLDEN / case)
    sys.exit(0)
