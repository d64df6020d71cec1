"""Output checks for one workload iteration.

Every output file of a step (CSV and JSON files under its ``--out``
directory, and JSON printed to stdout) is compared against a reference
recorded at the commit that defined the benchmark:

- seed-independent numbers agree to 1e-12 relative; a CSV value is taken
  relative to the largest magnitude in its reference column, so entries
  that pass through zero are not held to an absolute 1e-300;
- the Monte Carlo columns and keys (``cond_fidelity``, ``p_success``),
  which depend on the seed, must be finite and lie in [0, 1];
- the echoed ``seed`` must be the benchmark seed;
- text cells, such as the scan ``error`` column, must match exactly, so a
  non-empty error fails its point.

A step with ``ops`` > 1 (a scan) fails one operation per bad CSV row;
otherwise any miss fails the step's single operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-12
SEEDED = ("cond_fidelity", "p_success")
PRESENT = "*"


def _seeded(key: str) -> bool:
    return key.rsplit(".", 1)[-1] in SEEDED


def step_files(it: Path, step: str) -> list[Path]:
    """Output files of one step: its ``--out`` directory and its stdout."""
    files = sorted(p for p in (it / step).glob("*") if p.suffix in (".csv", ".json"))
    stdout = it / f"{step}.stdout"
    if stdout.is_file() and stdout.stat().st_size > 0:
        files.append(stdout)
    return files


def digests(it: Path, steps) -> dict[str, str]:
    """sha256 of every output file, keyed by path relative to ``it``."""
    return {
        str(p.relative_to(it)): hashlib.sha256(p.read_bytes()).hexdigest()
        for s in steps
        for p in step_files(it, s.name)
    }


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    return {prefix[:-1]: obj}


def _read(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.rstrip("\n").split("\n")
        header = lines[0].split(",")
        rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]
        return {"kind": "csv", "header": header, "rows": rows}
    return {"kind": "json", "values": _flatten(json.loads(text))}


def record(it: Path, steps) -> dict:
    """Reference of an iteration, with the seed-dependent values masked."""
    ref = {}
    for s in steps:
        for p in step_files(it, s.name):
            data = _read(p)
            if data["kind"] == "csv":
                masked = [j for j, h in enumerate(data["header"]) if _seeded(h)]
                for row in data["rows"]:
                    for j in masked:
                        row[j] = PRESENT if row[j] != "" else ""
            else:
                data["values"] = {
                    k: (PRESENT if v is not None else None) if _seeded(k) else v
                    for k, v in data["values"].items()
                    if k != "config.seed"
                }
            ref[str(p.relative_to(it))] = data
    return ref


def _seeded_ok(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def _value_ok(value, expected, scale: float) -> bool:
    if expected == PRESENT:
        return _seeded_ok(value)
    if isinstance(expected, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return value == expected or abs(value - expected) <= RTOL * scale
    return value == expected


def _check_csv(got: dict, ref: dict) -> tuple[set[int], list[str]]:
    if got["header"] != ref["header"]:
        return {-1}, ["header differs"]
    if len(got["rows"]) != len(ref["rows"]):
        return {-1}, [f"{len(got['rows'])} rows, expected {len(ref['rows'])}"]
    scales = []
    for j in range(len(ref["header"])):
        mags = [abs(r[j]) for r in ref["rows"] if isinstance(r[j], float)]
        scales.append(max(mags, default=0.0))
    bad, msgs = set(), []
    for i, (row, exp) in enumerate(zip(got["rows"], ref["rows"])):
        for j, (v, e) in enumerate(zip(row, exp)):
            if not _value_ok(v, e, scales[j]):
                bad.add(i)
                msgs.append(f"row {i} {ref['header'][j]}: {v!r}, expected {e!r}")
    return bad, msgs


def _check_json(got: dict, ref: dict, seed: int) -> list[str]:
    values = dict(got["values"])
    msgs = []
    if "config.seed" in values and values.pop("config.seed") != seed:
        msgs.append("config.seed is not the benchmark seed")
    if set(values) != set(ref["values"]):
        msgs.append(f"keys differ: {sorted(set(values) ^ set(ref['values']))}")
    for k, e in ref["values"].items():
        v = values.get(k)
        scale = abs(e) if isinstance(e, float) else 0.0
        if k in values and not _value_ok(v, e, scale):
            msgs.append(f"{k}: {v!r}, expected {e!r}")
    return msgs


def check_step(it: Path, step, ref: dict, seed: int) -> tuple[int, list[str]]:
    """Failed operations of one step and what was wrong."""
    expected = sorted(k for k in ref if k == f"{step.name}.stdout" or k.startswith(f"{step.name}/"))
    produced = sorted(str(p.relative_to(it)) for p in step_files(it, step.name))
    if produced != expected:
        return step.ops, [f"{step.name}: files {produced}, expected {expected}"]
    failed_rows: set[int] = set()
    msgs: list[str] = []
    for rel in expected:
        got = _read(it / rel)
        if ref[rel]["kind"] == "csv":
            bad, m = _check_csv(got, ref[rel])
            failed_rows |= bad
        else:
            m = _check_json(got, ref[rel], seed)
            if m:
                failed_rows.add(-1)
        msgs += [f"{rel}: {x}" for x in m]
    if step.ops == 1 or -1 in failed_rows:
        failed = step.ops if failed_rows else 0
    else:
        failed = min(len(failed_rows), step.ops)
    return failed, msgs
