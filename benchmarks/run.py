"""The halfwave benchmark: run one workload end to end, or traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  Everything runs in this one process with
``threads=1``; BLAS uses one thread per usable CPU.

--trace 0 prints the end-to-end metrics: ``wall_s``, the median time of
one complete, verified experiment result (units repeat until S seconds
are used, at least MIN_UNITS times); ``setup_s``, the median time of
SETUP_REPEATS fresh interpreters that import halfwave and take the first
step at each grid the workload uses; ``peak_rss_mb``.

--trace 1 prints the per-layer metrics: the unit-cost table, then
alternating untraced and traced units, the layer counts and times per
unit from layertrace.py, and the tracing overhead (traced minus untraced
median unit time).  Spans go to .bench_out/ in the checkout.

Every unit is checked against the stored references (check.py); a
mismatch or a NumericalFailure, BlowUpError or EigensolverError counts
as a failed operation.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code
2 means the checkout holds no halfwave sources.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
# BLAS always uses one thread per usable CPU, whatever the caller's
# environment says; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_UNITS = 3
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "from workloads import WORKLOADS; WORKLOADS[sys.argv[3]].first_calls()")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "halfwave").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        name = None
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return name, threads


def manifest(args, input_seed):
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas, blas_threads = _blas()
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": NPROC,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(name):
    """Time of one fresh interpreter importing halfwave and taking the
    workload's first steps."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), name],
                   cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class UnitRunner:
    """Runs one workload's units and checks each against its reference."""

    def __init__(self, workload, input_seed, out_dir, reference):
        from halfwave.experiments import NumericalFailure
        from halfwave.hankel import EigensolverError
        from halfwave.integrate import BlowUpError

        self.workload = workload
        self.seed = input_seed
        self.out_dir = out_dir
        self.reference = reference
        self.failures = (NumericalFailure, BlowUpError, EigensolverError)
        self.attempted = 0
        self.failed = 0
        self.verdict = None

    def run(self, tracer=None):
        """One unit; returns (wall seconds, rows in the result)."""
        from check import check_files, compare, snapshot

        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                result, extra = self.workload.run_unit(self.seed, self.out_dir)
            else:
                result, extra = tracer.call("bench.unit", "bench", self.workload.run_unit,
                                            self.seed, self.out_dir)
        except self.failures as exc:
            wall = perf_counter() - start
            self.failed += 1
            print(f"unit {self.attempted}: failed: {type(exc).__name__}: {exc}")
            return wall, 0
        wall = perf_counter() - start
        problems = check_files(self.out_dir, result.experiment, self.reference)
        problems += compare(snapshot(result, extra), self.reference, "result")
        if problems:
            self.failed += 1
            for line in problems[:20]:
                print(f"unit {self.attempted}: mismatch {line}")
        self.verdict = result.passed
        print(f"unit {self.attempted}: {wall:.4f} s, {len(result.rows)} rows, "
              f"experiment passed={result.passed}, "
              f"{'matches reference' if not problems else 'MISMATCH'}")
        return wall, len(result.rows)


def _keep_going(walls, deadline, minimum):
    return len(walls) < minimum or perf_counter() + statistics.median(walls) <= deadline


def end_to_end(runner, name, deadline):
    # set-up probes alternate with the first units, so that both medians
    # sample the same stretch of machine load
    walls, setups = [], []
    while _keep_going(walls, deadline, MIN_UNITS):
        walls.append(runner.run()[0])
        if len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(name))
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(name))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"units {len(walls)}, wall_s per unit: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s per probe: {' '.join(f'{s:.4f}' for s in setups)}")
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kib * 1024 / 1e6}


def traced(runner, deadline):
    from layertrace import Tracer
    from unitcost import unit_costs

    costs = unit_costs()
    tracer = Tracer()
    plain, timed, per_unit, spans = [], [], [], []
    pairs = []
    while _keep_going(pairs, deadline, 1):
        start = perf_counter()
        plain.append(runner.run()[0])
        with tracer:
            tracer.reset()
            wall, rows = runner.run(tracer)
        timed.append(wall)
        per_unit.append(tracer.unit_metrics(rows))
        spans.append(tracer.spans)
        pairs.append(perf_counter() - start)
    metrics = {}
    for key in per_unit[0]:
        values = [m[key] for m in per_unit]
        metrics[key] = statistics.median(values) if isinstance(values[0], float) else values[-1]
    traced_wall, plain_wall = statistics.median(timed), statistics.median(plain)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
    })
    metrics.update(costs)
    _print_shares(metrics)
    return metrics, spans


def _print_shares(m):
    wall = m["trace.wall_s"]
    print("layer shares of the traced unit: "
          f"steps {m['integrate.step_s'] / wall:.3f}, "
          f"monitors {m['integrate.monitor_s'] / wall:.3f}, "
          f"besov {m['norms.besov_s'] / wall:.3f}, "
          f"fft {m['operators.fft_s'] / wall:.3f}, "
          f"fields {m['operators.field_s'] / wall:.3f}, "
          f"hankel {m['hankel.summary_s'] / wall:.3f}, "
          f"taylor {m['normalform.taylor_residual_s'] / wall:.3f}, "
          f"richardson steps {m['experiments.richardson_share']:.3f}")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "halfwave" / "__init__.py").is_file():
        print(f"no halfwave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import halfwave

    if Path(halfwave.__file__).resolve().parent != SRC / "halfwave":
        print(f"imported halfwave from {halfwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from check import load_references
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    input_seed = workload.input_seed(args.seed)
    reference = load_references()["workloads"][workload.name][str(input_seed)]
    units = declared_metrics(args.trace)
    print("manifest " + json.dumps(manifest(args, input_seed), sort_keys=True))

    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    runner = UnitRunner(workload, input_seed, out_dir, reference)
    deadline = start + args.seconds
    try:
        if args.trace:
            metrics, spans = traced(runner, deadline)
        else:
            metrics = end_to_end(runner, workload.name, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": spans, "metrics": metrics}) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")

    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    if workload.name == "inflation_szego" and runner.verdict is False:
        print("inflation verdict: failed, as expected: the ratio band of criterion 8 "
              "is red by design (not counted as a failed operation)")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
