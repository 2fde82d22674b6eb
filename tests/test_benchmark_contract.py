"""What the benchmark's tracer (benchmarks/layertrace.py) reads from the package.

The tracer wraps the functions named in LAYER_FUNCS and every
`experiments` attribute matching its row-worker pattern.  A missing name
breaks `benchmarks/run.py --trace 1` in Tracer.install; an extra match
counts the row metrics twice.
"""

from pathlib import Path

import pytest

from halfwave import experiments
from halfwave.experiments import HorizonRule, default_config, run_decoupling

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
ROW_WORKERS = ["_approximation_row", "_besov_row", "_decoupling_row",
               "_inflation_row", "_spectrum_row"]


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layertrace

    return layertrace


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
