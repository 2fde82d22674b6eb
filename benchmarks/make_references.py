"""Regenerate references.json: one checked snapshot per workload and seed.

    python3 benchmarks/make_references.py [WORKLOAD ...]

Run from the root of a source checkout.  Each seed-dependent workload is
stored for every seed in workloads.REFERENCE_SEEDS; inflation_szego has
no random input and is stored once, under input seed 0.  Refuses to
store a seed whose unit raises.  Only rerun this when the program's
numbers are meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from check import REFERENCE_FILE, snapshot  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def main(names):
    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    refs = stored.setdefault("workloads", {})
    out_dir = ROOT / ".bench_out" / "references"
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            seeds = sorted({workload.input_seed(s) for s in REFERENCE_SEEDS})
            refs[name] = {}
            for seed in seeds:
                result, extra = workload.run_unit(seed, out_dir)
                refs[name][str(seed)] = snapshot(result, extra)
                print(f"{name} seed {seed}: passed={result.passed} "
                      f"slope={result.fitted_slope}", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
