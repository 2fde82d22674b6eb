"""The README's library quick tour runs as written against the package."""

from conftest import readme_quick_tour


def test_quick_tour_runs():
    namespace = {}
    exec(compile(readme_quick_tour(), "README.md", "exec"), namespace)
    assert namespace["final"].grid == namespace["grid"]
    assert namespace["residual"] >= 0.0
