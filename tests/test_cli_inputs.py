"""Property: no command-line value ends in a traceback.

Each case runs one experiment in-process through cli.main, on a cheap
base config (a band of 8, a short fixed horizon, at most 4 eps values),
with one config key set to a hostile value.  It must exit 0 or 2, or
exit 1 with exactly one `config error:` line.  The output directory is
fixed, and a guard fails any case that builds a band or asks for a step
count beyond the base configs' (so a large dt, horizon, grid or eps must
be rejected before anything is allocated or stepped), or that takes
more than 10 s.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import halfwave.cli as cli
from halfwave import integrate
from halfwave.experiments import (
    APPROXIMATION,
    BESOV_BOUND,
    DECOUPLING,
    EXPERIMENTS,
    INFLATION,
    NORMALFORM,
    RESONANCES,
    SPECTRUM,
    STRICHARTZ,
)
from halfwave.fields import GridSpec

#: the values tried for every key but threads
HOSTILE = ("inf", "-inf", "nan", "0", "-0", "1e300", "-1e300", "1e-300", "-1", str(2**70),
           "", "abc", "1,,2")

#: threads only from these, so no large process pool starts
THREADS = ("-1", "0", "1", "2")

#: a cheap valid config of each experiment
BASE = {
    DECOUPLING: ["--grid", "8", "--horizon", "fixed:1"],
    APPROXIMATION: ["--grid", "8", "--horizon", "fixed:1"],
    BESOV_BOUND: ["--grid", "8", "--horizon", "fixed:1"],
    INFLATION: ["--grid", "8", "--eps", "0.5", "--deltas", "0.9"],
    SPECTRUM: ["--grid", "8", "--horizon", "fixed:1"],
    NORMALFORM: ["--grid", "8"],
    STRICHARTZ: [],
    RESONANCES: [],
}

#: the largest band and step count a case may reach: the base configs
#: build bands up to 256 (strichartz) and take a few hundred steps a run
MAX_CASE_BAND, MAX_CASE_STEPS = 256, 10**4
MAX_CASE_SECONDS = 10.0


@st.composite
def hostile_settings(draw):
    """A (key, value) of cli._KEYS but out, which stays the test's
    directory; a horizon is also drawn as kind:value, so the value
    reaches the horizon rule."""
    key = draw(st.sampled_from(sorted(set(cli._KEYS) - {"out"})))
    if key == "threads":
        return key, draw(st.sampled_from(THREADS))
    value = draw(st.sampled_from(HOSTILE))
    if key == "horizon" and draw(st.booleans()):
        value = draw(st.sampled_from(("fixed", "inv_eps_sq", "log"))) + ":" + value
    return key, value


@pytest.fixture
def guarded(monkeypatch):
    """Fail a case on a band above MAX_CASE_BAND or a run of more than
    MAX_CASE_STEPS steps (every grid and every run pass these)."""
    check_grid, count = GridSpec.__post_init__, integrate.step_count

    def bounded_grid(grid):
        check_grid(grid)
        assert grid.max_mode <= MAX_CASE_BAND, f"a band of {grid.max_mode} modes"

    def bounded_count(t_end, dt):
        n = count(t_end, dt)
        assert n <= MAX_CASE_STEPS, f"a run of {n} steps"
        return n

    monkeypatch.setattr(GridSpec, "__post_init__", bounded_grid)
    monkeypatch.setattr(integrate, "step_count", bounded_count)


# tmp_path and capsys are shared by a test's examples: each example writes
# the same files and reads its own stderr
@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
@given(setting=hostile_settings())
def test_hostile_value_is_an_exit_code(experiment, setting, guarded, tmp_path, capsys):
    key, value = setting
    # --flag=value, so that argparse takes "-1" and "-inf" as values
    argv = [experiment, *BASE[experiment], f"--{key.replace('_', '-')}={value}",
            "--out", str(tmp_path)]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert elapsed <= MAX_CASE_SECONDS, f"{argv} took {elapsed:.1f} s"
    assert "Traceback" not in err
    assert code in (0, 1, 2), argv
    if code == 1:
        lines = err.splitlines()
        assert [line for line in lines if line.startswith("config error:")] == lines[-1:], argv
