"""What the benchmark (benchmarks/) reads from the package.

The benchmark modules import names from halfwave, and the tracer
(benchmarks/layertrace.py) wraps the functions named in LAYER_FUNCS and
every `experiments` attribute matching its row-worker pattern.  A
missing name breaks `benchmarks/run.py`; an extra match counts the row
metrics twice.  Seed 0 of each workload also runs here against
benchmarks/references.json, so an output the benchmark would count as a
failed unit fails a test first.
"""

import ast
import importlib
import json
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from halfwave import (EvolutionProblem, GridSpec, TorusField, experiments,
                      fast_transform_length, integrate, normalform)
from halfwave.experiments import HorizonRule, default_config, run_decoupling
from halfwave.norms import besov_norm, charge, sobolev_norm

from conftest import random_field

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
#: the workloads whose outputs benchmarks/references.json stores
REFERENCE_WORKLOADS = sorted(json.loads((BENCHMARKS / "references.json").read_text())
                             ["workloads"])
ROW_WORKERS = ["_approximation_row", "_besov_row", "_decoupling_row",
               "_inflation_row", "_spectrum_row"]


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layertrace

    return layertrace


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's workloads and correctness gate (workloads, check)."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import check
    import workloads

    return workloads, check


@pytest.mark.parametrize("module", ["workloads", "unitcost", "check"])
def test_benchmark_modules_import(module, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module(module)


def _halfwave_names(tree):
    """(module, name) for each halfwave name a benchmark file imports, in
    any scope, and for each attribute it reads off an imported halfwave
    module (`from halfwave import experiments as ex`, then `ex.X`)."""
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "halfwave":
            for alias in node.names:
                imported.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
    reads = [(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules]
    return imported + reads


@pytest.mark.parametrize("path", sorted(BENCHMARKS.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_halfwave_names_resolve(path):
    """Every halfwave name a benchmark file imports or reads off a
    halfwave module exists, including imports inside functions."""
    for module, name in _halfwave_names(ast.parse(path.read_text())):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


def test_layer_funcs_resolve(layertrace):
    for module, names in layertrace.LAYER_FUNCS.values():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_only_the_row_workers_match(layertrace):
    matched = sorted(attr for attr, value in vars(experiments).items()
                     if layertrace._ROW_WORKER.match(attr) and callable(value))
    assert matched == ROW_WORKERS


def test_traced_rows_counted_once(layertrace):
    cfg = default_config("decoupling", grid_n=8, horizon=HorizonRule("fixed", 1.0))
    with layertrace.Tracer() as tracer:
        result = run_decoupling(cfg)
    assert tracer.calls["experiments.row"] == len(result.rows) == 3
    assert not hasattr(experiments._decoupling_row, "__wrapped__")  # uninstalled


def _pair(grid):
    u0 = TorusField.from_modes(grid, {0: 0.5, 1: 0.5})
    q0 = charge(u0)
    return (EvolutionProblem.half_wave_gauged(0.5, q0),
            EvolutionProblem.szego_transport(0.5, q0)), u0


def test_traced_stepper_accepts_a_stack(layertrace):
    grid = GridSpec.with_padding(16)
    stack, u0 = _pair(grid)
    with layertrace.Tracer() as tracer:
        out = integrate.make_stepper(stack, grid, 0.01).step(np.tile(u0.coeff, (2, 1)))
    assert out.shape == (2, grid.n_coeff)
    assert tracer.calls["integrate.step"] == 1


def test_traced_pair_counts_one_step_per_stacked_step(layertrace):
    """The approximation pair is one stack: one traced step per stacked
    step, and each of the 8 transforms of a step covers both rows.  Its
    Richardson pair is one stack too: per step at dt, one stacked step
    of all 4 rows and one step of the 2 rows at dt/2, so the transforms
    cover the rows of the runs at dt and dt/2 in 2/3 of the calls."""
    grid = GridSpec.with_padding(16)
    stack, u0 = _pair(grid)
    steps = 100

    def gap(c):  # the approximation row's functional
        return sobolev_norm(TorusField(grid, c[0] - c[1]), 1.5)

    with layertrace.Tracer() as tracer:
        experiments._peak(gap, stack, u0, steps * 0.01, 0.01, 10)
    assert tracer.calls["integrate.step"] == steps
    assert tracer.calls["operators.fft"] == steps * 8
    assert tracer.fft_points == steps * 8 * 2 * grid.padded_len
    with layertrace.Tracer() as tracer:
        experiments._peak(gap, stack, u0, steps * 0.01, 0.01, 10, pair=True)
    assert [rec.steps for rec in tracer.steppers] == [steps, steps]
    assert tracer.calls["integrate.step"] == 2 * steps
    assert tracer.calls["operators.fft"] == 2 * steps * 8
    assert tracer.fft_points == (steps + 2 * steps) * 8 * 2 * grid.padded_len


def test_traced_inflation_row_steps_on_the_analytic_transform(layertrace):
    """An inflation row is two plain Szego runs (dt, dt/2) on analytic
    data, stepped as one pair through make_stepper: n stacked steps at
    dt and the n second steps of the run at dt/2 alone.  Each of the 8
    transforms of a step has length fast_transform_length(2N + 1), not
    the padded 4N + 1, and they cover the 3n row steps of the two runs."""
    cfg = default_config("inflation", eps_list=(1.0,), delta_list=(0.8,), dt=0.05)
    with layertrace.Tracer() as tracer:
        row = experiments._inflation_row((cfg, 1.0, 0.8))
    runs = [rec.steps for rec in tracer.steppers]
    assert len(runs) == 2 and runs[1] == runs[0]
    assert [rec.dt for rec in tracer.steppers] == [row["dt"], row["dt"] / 2]
    steps = tracer.calls["integrate.step"]
    assert steps == sum(runs)
    n = row["grid_n"]
    assert tracer.fft_points == 3 * runs[0] * 8 * fast_transform_length(2 * n + 1)
    assert tracer.calls["operators.fft"] == steps * 8
    assert fast_transform_length(2 * n + 1) < GridSpec.with_padding(n).padded_len


def test_traced_halfwave_check_steps_one_row(layertrace):
    """The inflation half-wave check steps the half-wave flow without
    the Szego rows: two steppers outside the rows, the rows' (n, 2n)
    Richardson pair as one stack, whose 8 transforms a step cover the
    half-wave rows of the padded 4N + 1 grid, one per run step.  The
    rows' own runs keep the analytic transform."""
    cfg = default_config("inflation", eps_list=(1.0,), delta_list=(0.8,), dt=0.05)
    with layertrace.Tracer() as tracer:
        result = experiments.run_inflation(cfg)
    n = result.rows[0].data["grid_n"]
    rows = [rec.steps for rec in tracer.steppers if rec.row is not None]
    check = [rec.steps for rec in tracer.steppers if rec.row is None]
    assert len(rows) == 2 and rows[1] == rows[0]
    assert check == rows
    row_points = 3 * rows[0] * 8 * fast_transform_length(2 * n + 1)
    assert (tracer.fft_points - row_points
            == 3 * check[0] * 8 * GridSpec.with_padding(n).padded_len)


def test_traced_ladder_steps_every_rung_through_make_stepper(layertrace):
    """The step search runs each trial rung once, through make_stepper:
    the rung runs go from tau = 10 dt0 up to the accepted rung's half
    step.  The first two, tau and tau/2, are one pair: a stepper at tau
    for their stacked steps and one at tau/2 for the second steps of the
    run at tau/2, each taking tau's count.  Each later run has its own
    stepper, which took its rung's count at step t_end / count."""
    cfg = default_config("approximation", grid_n=32, seed=1,
                         horizon=HorizonRule("fixed", 1.0))
    with layertrace.Tracer() as tracer:
        row = experiments._approximation_row((cfg, 1.0))
    coarse = 10  # tau = 10 * 0.01 on the horizon 1
    accepted = round(row["horizon"] / row["dt"])
    runs = [coarse << j for j in range((accepted // coarse).bit_length() + 1)]
    assert runs[-2:] == [accepted, 2 * accepted]
    assert [rec.steps for rec in tracer.steppers] == [coarse, coarse] + runs[2:]
    assert [rec.dt for rec in tracer.steppers] == [1.0 / n for n in runs]
    assert tracer.calls["integrate.step"] == sum(runs) - coarse


def test_traced_inflation_unit_pairs_every_richardson_run(layertrace, bench, tmp_path):
    """A traced seed-0 inflation_szego unit, read through
    Tracer.unit_metrics: every row and the half-wave check step their
    (n, 2n) Richardson pair as one stack, so the transforms cover the
    points of the 3n lone row steps in 2n steps of 8 transforms each (a
    third fewer than the lone runs' 24n); the steps at dt/2 taken alone
    are half of each pair's steps."""
    workloads, _ = bench
    workload = workloads.WORKLOADS["inflation_szego"]
    with layertrace.Tracer() as tracer:
        result, _ = workload.run_unit(workload.input_seed(0), tmp_path)
        metrics = tracer.unit_metrics(len(result.rows))
    runs = []  # (steps at dt, transform length) of each pair, the check last
    for row in result.rows:
        n = row.data["grid_n"]
        runs.append((integrate.step_count(row.data["t_star"], row.data["dt"]),
                     fast_transform_length(2 * n + 1)))
    check = result.notes["halfwave_check"]
    n = result.rows[0].data["grid_n"]
    runs.append((integrate.step_count(check["t_star"], result.rows[0].data["dt"]),
                 GridSpec.with_padding(n).padded_len))
    lone_steps = sum(3 * steps for steps, _ in runs)
    assert metrics["operators.fft_points"] == sum(3 * steps * 8 * m for steps, m in runs)
    assert metrics["integrate.steps"] * 3 == lone_steps * 2
    assert metrics["operators.fft_calls"] == 8 * metrics["integrate.steps"]
    # the check runs outside the rows, so only the rows' steps at dt/2 count
    assert metrics["experiments.richardson_share"] == (
        sum(steps for steps, _ in runs[:-1]) / metrics["integrate.steps"])


def test_integrate_binds_no_monitor_functionals():
    """The tracer books these names as monitor time when integrate binds
    them; the stepping loop samples nothing, so none may be bound."""
    monitors = ("energy", "besov_norm", "sobolev_norm", "charge", "momentum",
                "build_hankel", "spectral_summary")
    assert [name for name in monitors if hasattr(integrate, name)] == []


@pytest.mark.parametrize("tag, most", [(normalform.F, 7), (normalform.RTILDE, 2),
                                       (normalform.R, 2)])
def test_quartic_fields_transform_each_input_once(layertrace, tag, most):
    """The quartic fields take products on the padded grid: X_F is one
    stacked 7-transform cubic, X_R one transform each way, and X_Rtilde
    one X_R on a two-row stack."""
    u = random_field(GridSpec.with_padding(32), np.random.default_rng(0))
    with layertrace.Tracer() as tracer:
        normalform.vector_field(tag, u)
    assert tracer.calls["operators.fft"] <= most


def test_stacked_taylor_residual_transforms_like_one_eps(layertrace):
    """The flows of all eps are one stack: four eps make as many
    transforms as one, 7 per X_F stage of each RK4 substep, plus 1 for
    the Besov norm of u, 2 for X_R of the moved states and 2 for
    X_Rtilde of u."""
    u = random_field(GridSpec.with_padding(32), np.random.default_rng(0), support=8)
    u = (0.4 / besov_norm(u)) * u
    calls = []
    for eps in (0.2, (0.2, 0.1, 0.05, 0.025)):
        with layertrace.Tracer() as tracer:
            normalform.taylor_residual(u, eps)
        calls.append(tracer.calls["operators.fft"])
    assert calls == [normalform.FLOW_SUBSTEPS * 4 * 7 + 1 + 2 + 2] * 2


def test_reference_workloads_are_the_benchmark_workloads(bench):
    workloads, _ = bench
    assert sorted(workloads.WORKLOADS) == REFERENCE_WORKLOADS


@pytest.mark.parametrize("name", REFERENCE_WORKLOADS)
def test_seed_zero_unit_matches_reference(name, bench, tmp_path):
    """Seed 0 of each workload, run as the benchmark runs a unit, matches
    benchmarks/references.json: the written CSV and summary.json and the
    returned result, within the benchmark's own tolerances."""
    workloads, check = bench
    workload = workloads.WORKLOADS[name]
    seed = workload.input_seed(0)
    reference = check.load_references()["workloads"][name][str(seed)]
    result, extra = workload.run_unit(seed, tmp_path)
    problems = check.check_files(tmp_path, result.experiment, reference)
    problems += check.compare(check.snapshot(result, extra), reference, "result")
    assert problems == []
