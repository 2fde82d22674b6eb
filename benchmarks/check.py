"""Correctness gate: compare each unit's outputs with stored references.

Every row's reported quantities and the run's verdict fields (pass flag,
fitted slope and interval, notes) are compared with the reference for
the unit's input seed:

- floats within the experiment's own relative RICHARDSON_TOLERANCE;
- log-log slopes with an absolute floor of the same size, since a slope
  fitted through points each known to that tolerance is known to about
  as much; the normal-form bracket identity, a roundoff-level number,
  against its own pass band of 1e-10;
- integers, booleans, strings and None exactly.

The ``dt``, ``richardson`` and ``runtime`` fields say how a number was
obtained, not what was claimed, so they are not compared (the program
itself aborts when a Richardson change exceeds ten times the tolerance).
The written CSV and summary.json are compared with the reference in the
same way.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from halfwave.experiments import RICHARDSON_TOLERANCE

REFERENCE_FILE = Path(__file__).with_name("references.json")
UNCOMPARED = frozenset({"dt", "richardson", "runtime"})
BRACKET_BAND = 1e-10


def _plain(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot store {type(value).__name__}")


def snapshot(result, extra=None) -> dict:
    """The unit's checked outputs as plain JSON values."""
    payload = {
        "columns": result.columns,
        "rows": [row.data for row in result.rows],
        "fitted_slope": result.fitted_slope,
        "slope_ci": result.slope_ci,
        "passed": result.passed,
        "notes": result.notes,
        "extra": extra,
    }
    return json.loads(json.dumps(payload, default=_plain))


def _floor_for(key, floor):
    if "slope" in key:
        return max(floor, RICHARDSON_TOLERANCE)
    if key == "bracket_max":
        return BRACKET_BAND
    return floor


def compare(actual, ref, path="", floor=0.0) -> list:
    """Mismatches between actual and reference values, as readable lines."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict) or set(actual) != set(ref):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(ref)}"]
        row_floor = {"bracket_identity": BRACKET_BAND,
                     "taylor_slope": RICHARDSON_TOLERANCE}.get(ref.get("check"), floor)
        out = []
        for key in ref:
            if key in UNCOMPARED:
                continue
            sub = row_floor if key == "value" else _floor_for(key, floor)
            out += compare(actual[key], ref[key], f"{path}.{key}", sub)
        return out
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            return [f"{path}: {actual!r} != {ref!r}"]
        out = []
        for i, (a, r) in enumerate(zip(actual, ref)):
            out += compare(a, r, f"{path}[{i}]", floor)
        return out
    if isinstance(ref, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if abs(actual - ref) <= max(RICHARDSON_TOLERANCE * abs(ref), floor):
            return []
        return [f"{path}: {actual!r} != {ref!r} (tolerance "
                f"{max(RICHARDSON_TOLERANCE * abs(ref), floor):.3g})"]
    if type(actual) is type(ref) and actual == ref:
        return []
    return [f"{path}: {actual!r} != {ref!r}"]


def _cell(text, ref):
    """A CSV cell as written by experiments._fmt, read back as ref's type."""
    try:
        if isinstance(ref, bool):
            return {"True": True, "False": False}[text]
        if isinstance(ref, int):
            return int(text)
        if isinstance(ref, float):
            return float(text)
    except (KeyError, ValueError):
        return text
    if ref is None and text == "None":
        return None
    return text


def check_files(out_dir, experiment, ref) -> list:
    """The CSV and summary.json written by run_and_write, compared with the
    reference as strictly as the returned result."""
    lines = (Path(out_dir) / f"{experiment}.csv").read_text().splitlines()
    header = lines[0].split(",")
    if header != ref["columns"]:
        return [f"{experiment}.csv: header {header} != {ref['columns']}"]
    csv_rows = []
    for line, ref_row in zip(lines[1:], ref["rows"]):
        cells = dict(zip(header, line.split(",")))
        csv_rows.append({c: _cell(cells.get(c, ""), ref_row.get(c)) for c in ref_row})
    csv_rows += lines[1 + len(csv_rows):]
    problems = compare(csv_rows, ref["rows"], f"{experiment}.csv")

    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    for row in summary["rows"]:
        row.pop("runtime", None)
    fields = ("rows", "fitted_slope", "slope_ci", "passed", "notes")
    problems += compare({k: summary[k] for k in fields}, {k: ref[k] for k in fields},
                        "summary.json")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
