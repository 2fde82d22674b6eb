"""The README's library quick tour runs as written against the package,
and its command-line section names exactly the flags and keys of cli._KEYS."""

from halfwave import cli

from conftest import readme_cli_names, readme_quick_tour


def test_quick_tour_runs():
    namespace = {}
    exec(compile(readme_quick_tour(), "README.md", "exec"), namespace)
    assert namespace["final"].grid == namespace["grid"]
    assert namespace["residual"] >= 0.0


def test_cli_names_match_the_key_table():
    """Every _KEYS entry is a README flag and config key, and README names
    no other (--config and `experiment` aside)."""
    flags, keys = readme_cli_names()
    assert sorted(flags) == sorted([key.replace("_", "-") for key in cli._KEYS] + ["config"])
    assert sorted(keys) == sorted([*cli._KEYS, "experiment"])
