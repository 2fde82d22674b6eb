import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from halfwave.experiments import (
    APPROXIMATION,
    BESOV_BOUND,
    DECOUPLING,
    EXPERIMENTS,
    ExperimentConfig,
    HorizonRule,
    INFLATION,
    MAX_GRID_N,
    NORMALFORM,
    NumericalFailure,
    Profile,
    RICHARDSON_TOLERANCE,
    SPECTRUM,
    SPECTRUM_MAX_GRID_N,
    STRICHARTZ,
    _approximation_row,
    _besov_row,
    _decoupling_row,
    _inflation_grid_n,
    _inflation_halfwave_check,
    _inflation_row,
    _initial_spectrum,
    _spectrum_row,
    build_initial_state,
    default_config,
    fit_loglog_slope,
    run_and_write,
    run_besov_bound,
    run_decoupling,
    run_inflation,
    run_normalform_check,
    run_resonance_audit,
    run_spectrum_conservation,
    run_strichartz,
    strichartz_ratio,
)
from halfwave import EvolutionProblem, GridSpec, TorusField, evolve
from halfwave.integrate import step_count
from halfwave.norms import sobolev_norm
from halfwave.problems import default_time_step
import halfwave.cli as cli
import halfwave.experiments as experiments

from conftest import readme_csv_columns

#: the CSV header of each experiment, as README's column table gives it
README_COLUMNS = readme_csv_columns()


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        slope, ci = fit_loglog_slope([(1, 1), (2, 4), (4, 16)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert ci[1] - ci[0] == pytest.approx(0.0, abs=1e-10)

    def test_constant_rows(self):
        slope, _ = fit_loglog_slope([(1, 3.5), (2, 3.5), (4, 3.5)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1), (2, 4)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1), (2, 0.0), (4, 2)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(-1, 1), (2, 1), (4, 2)])


class TestConfig:
    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            ExperimentConfig(DECOUPLING, eps_list=(0.1, 0.2))

    def test_sobolev_above_one_for_approximation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(APPROXIMATION, sobolev=0.8)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig("inflation", delta_list=(1.2,))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            Profile("single_mode_plus_constant", delta=1.0)
        with pytest.raises(ValueError):
            Profile("custom")

    def test_horizon_rules(self):
        assert HorizonRule("fixed", 50.0).time_for(0.1) == 50.0
        assert HorizonRule("inv_eps_sq", 1.0).time_for(0.1) == pytest.approx(100.0)
        assert HorizonRule("log", 1.0).time_for(0.1) == pytest.approx(
            100.0 * math.log(10.0)
        )
        with pytest.raises(ValueError):
            HorizonRule("sometimes", 1.0)

    def test_log_horizon_needs_eps_below_one(self):
        for eps in (1.0, 2.0):
            with pytest.raises(ValueError):
                HorizonRule("log", 1.0).time_for(eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 1e300, 1e-200, 0.0, -0.1])
    def test_eps_must_have_a_finite_nonzero_square(self, eps):
        """The couplings and horizons are built from eps^2."""
        with pytest.raises(ValueError, match="eps values must be positive and finite"):
            default_config(BESOV_BOUND, eps_list=(eps,))

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.01])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            default_config(BESOV_BOUND, dt=dt)

    def test_band_ceiling_on_grid_n(self):
        assert default_config(BESOV_BOUND, grid_n=MAX_GRID_N).grid_n == MAX_GRID_N
        with pytest.raises(ValueError, match="band ceiling"):
            default_config(BESOV_BOUND, grid_n=MAX_GRID_N + 1)

    def test_spectrum_band_ceiling(self):
        """Validation only: the rows' dense Hankel matrix is never built."""
        cfg = default_config(SPECTRUM, grid_n=SPECTRUM_MAX_GRID_N)
        assert cfg.grid_n == SPECTRUM_MAX_GRID_N
        with pytest.raises(ValueError, match=f"spectrum requires grid_n <= {SPECTRUM_MAX_GRID_N}"):
            default_config(SPECTRUM, grid_n=SPECTRUM_MAX_GRID_N + 1)

    @pytest.mark.parametrize("delta", [1e-200, 1e-160, 0.001, 0.027])
    def test_band_ceiling_on_the_inflation_band(self, delta):
        """48/delta^2 above the ceiling (or not even finite) is rejected when
        the config is built, before any grid exists."""
        with pytest.raises(ValueError, match="band ceiling"):
            default_config(INFLATION, delta_list=(0.4, delta))

    def test_inflation_band_under_the_ceiling_is_accepted(self):
        """delta = 0.0271 needs 48/delta^2 = 65,359 modes, a 5-smooth band
        of 65,536: the ceiling itself."""
        cfg = default_config(INFLATION, delta_list=(0.0271,))
        assert _inflation_grid_n(cfg.delta_list[0], cfg.grid_n) == MAX_GRID_N

    @pytest.mark.parametrize("rule", [HorizonRule("inv_eps_sq", 1e308),
                                      HorizonRule("log", 1e308)])
    def test_horizon_must_be_finite(self, rule):
        with pytest.raises(ValueError, match="horizon"):
            rule.time_for(0.2)

    @pytest.mark.parametrize("kind", ["fixed", "inv_eps_sq", "log"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_horizon_value_must_be_positive_and_finite(self, kind, value):
        """Rejected when the rule is built, so no experiment runs with it,
        even one that reads no horizon."""
        with pytest.raises(ValueError, match=f"{kind} horizon value must be positive and finite"):
            HorizonRule(kind, value)


class TestProfiles:
    def test_single_mode_plus_constant(self):
        cfg = default_config(DECOUPLING)
        grid = GridSpec.with_padding(8)
        u = build_initial_state(cfg, grid)
        assert u.mode(1) == 1.0
        assert u.mode(0) == 0.5

    def test_random_decay_normalized_and_deterministic(self):
        cfg = default_config(APPROXIMATION, seed=5, grid_n=16)
        grid = GridSpec.with_padding(16)
        a = build_initial_state(cfg, grid, normalize_sobolev=1.5)
        b = build_initial_state(cfg, grid, normalize_sobolev=1.5)
        assert a == b
        assert sobolev_norm(a, 1.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("profile", [Profile(amplitude=0.0), Profile(support=-1),
                                         Profile("single_mode_plus_constant",
                                                 amplitude=0.0)])
    @pytest.mark.parametrize("normalize", [None, 1.5])
    def test_zero_profile_is_rejected(self, profile, normalize):
        cfg = default_config(DECOUPLING, profile=profile)
        with pytest.raises(ValueError, match="profile is zero"):
            build_initial_state(cfg, GridSpec.with_padding(8), normalize_sobolev=normalize)

    def test_custom_profile(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("# mode re im\n0 0.5 0.0\n2 0.0 -1.0\n")
        cfg = default_config(DECOUPLING,
                             profile=Profile("custom", path=str(path)))
        u = build_initial_state(cfg, GridSpec.with_padding(8))
        assert u.mode(0) == 0.5
        assert u.mode(2) == -1j


class TestSmallRuns:
    def test_decoupling_small(self):
        cfg = default_config(DECOUPLING, grid_n=32,
                             horizon=HorizonRule("fixed", 10.0))
        out = run_decoupling(cfg)
        assert out.columns == README_COLUMNS["decoupling"]
        assert out.fitted_slope == pytest.approx(2.0, abs=0.2)
        assert all(r.data["richardson"] <= 1e-6 for r in out.rows)

    @pytest.mark.parametrize("worker, experiment, column", [
        (_decoupling_row, DECOUPLING, "sup_minus_h_half"),
        (_approximation_row, APPROXIMATION, "hs_error_physical"),
        (_besov_row, BESOV_BOUND, "besov_ratio")])
    def test_given_dt_disables_the_step_search(self, worker, experiment, column):
        """Without a dt the row searches coarser steps and reports the one
        it accepts; a given dt is the row's step."""
        cfg = default_config(experiment, grid_n=8, horizon=HorizonRule("fixed", 1.0))
        searched = worker((cfg, 0.2))
        fixed = worker((replace(cfg, dt=0.01), 0.2))
        assert searched["dt"] > 0.01
        assert fixed["dt"] == 0.01
        assert searched["richardson"] <= RICHARDSON_TOLERANCE**2 * searched[column]

    def test_rows_read_at_t_end_never_search(self):
        """Without a given dt, a row read at t_end steps at the default step
        of its flow, t_end / n for n = step_count(t_end, dt0), never a
        searched rung."""
        cfg = default_config(SPECTRUM, grid_n=16, horizon=HorizonRule("fixed", 0.97))
        dt0 = default_time_step(EvolutionProblem.szego_plain(),
                                build_initial_state(cfg, GridSpec.with_padding(16)))
        row = _spectrum_row((cfg, "szego_plain", _initial_spectrum(cfg)))
        assert row["dt"] == 0.97 / step_count(0.97, dt0)

        cfg = default_config(INFLATION, eps_list=(1.0,), delta_list=(0.8,), dt=None)
        row = _inflation_row((cfg, 1.0, 0.8))
        u0 = TorusField.from_modes(GridSpec.with_padding(row["grid_n"]), {1: 1.0, 0: 0.8})
        dt0 = default_time_step(EvolutionProblem.szego_plain(), u0)
        assert row["dt"] == row["t_star"] / step_count(row["t_star"], dt0)

    def test_decoupling_rejects_nonanalytic_profile(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("-1 1.0 0.0\n")
        cfg = default_config(DECOUPLING, grid_n=8,
                             profile=Profile("custom", path=str(path)))
        with pytest.raises(ValueError):
            run_decoupling(cfg)

    def test_spectrum_small(self):
        # halved band needs a tighter symbol for the cascade to stay inside
        cfg = default_config("spectrum", grid_n=32,
                             horizon=HorizonRule("fixed", 10.0),
                             profile=Profile("random_decay", rate=2.5,
                                             amplitude=0.3, support=6))
        out = run_spectrum_conservation(cfg)
        assert out.columns == README_COLUMNS["spectrum"]
        assert out.passed
        kinds = {r.data["problem"] for r in out.rows}
        assert kinds == {"szego_plain", "half_wave"}

    def test_spectrum_summarises_the_shared_initial_state_once(self, monkeypatch):
        """Both rows start from one u0, so a run makes five Hankel summaries:
        one of u0, then one per run at t_end for each row's dt and dt/2."""
        calls = []
        summary = experiments.spectral_summary
        monkeypatch.setattr(experiments, "spectral_summary",
                            lambda h: calls.append(h) or summary(h))
        cfg = default_config(SPECTRUM, grid_n=16, horizon=HorizonRule("fixed", 0.5))
        run_spectrum_conservation(cfg)
        assert len(calls) == 5

    def test_spectrum_row_fails_loudly_on_coarse_dt(self):
        """On the default profile at amplitude 1.1 the nonlinear frequency
        |u|^2 is about 2, which a step of 1 does not resolve: over T = 1 the
        half-wave trace norm moves by about 2.3 times its initial value
        between one step and two, far above the 10x-tolerance bar of the
        Richardson helper (about 0.33)."""
        cfg = default_config(SPECTRUM, dt=1.0, horizon=HorizonRule("fixed", 1.0))
        cfg = replace(cfg, profile=replace(cfg.profile, amplitude=1.1))
        with pytest.raises(NumericalFailure, match="spectrum half_wave"):
            _spectrum_row((cfg, "half_wave", _initial_spectrum(cfg)))

    def test_inflation_halfwave_check_steps_the_half_wave_alone(self):
        """The check reuses the lead Szego row's H^s(t*) and steps only the
        half-wave flow, at the rows' step (the row's dt), from
        eps (e^{ix} + delta) on the row's band."""
        cfg = default_config(INFLATION, eps_list=(1.0,), delta_list=(0.8,), dt=0.05)
        result = run_inflation(cfg)
        row, check = result.rows[0].data, result.notes["halfwave_check"]
        assert check["szego_hs"] == row["hs_at_tstar"]
        assert (check["eps"], check["delta"], check["t_star"]) == (1.0, 0.8, row["t_star"])
        u0 = TorusField.from_modes(GridSpec.with_padding(row["grid_n"]), {1: 1.0, 0: 0.8})
        uf = evolve(EvolutionProblem.half_wave(), u0, row["t_star"], row["dt"])
        assert check["halfwave_hs"] == sobolev_norm(uf, cfg.sobolev)

    def test_inflation_halfwave_check_fails_loudly_on_coarse_dt(self):
        """The check runs under the rows' 10x Richardson bar: at eps 1 and
        delta 0.8, 4 steps of about 0.5 to t* leave the half-wave H^s(t*)
        unresolved (it moves by about 10 times its value against 8 steps),
        and the failure names the check."""
        cfg = default_config(INFLATION, eps_list=(1.0,), delta_list=(0.8,), dt=0.5)
        with pytest.raises(NumericalFailure,
                           match="inflation half-wave check eps=1.0 delta=0.8"):
            _inflation_halfwave_check(cfg, szego_hs=0.0)

    def test_besov_single_mode_ratio_one(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 1.0 0.0\n")
        cfg = default_config("besov", grid_n=16, eps_list=(0.2, 0.1, 0.05),
                             horizon=HorizonRule("fixed", 5.0),
                             profile=Profile("custom", path=str(path)))
        out = run_besov_bound(cfg)
        assert out.columns == README_COLUMNS["besov"]
        for row in out.rows:
            assert row.data["besov_ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_normalform_check_small(self):
        cfg = default_config("normalform", eps_list=(0.2, 0.1, 0.05))
        out = run_normalform_check(cfg)
        assert out.columns == README_COLUMNS["normalform"]
        assert out.passed
        assert out.notes["bracket_max"] <= 1e-10
        assert out.notes["resonance_mismatch"] == 0

    def test_normalform_check_passes_on_the_smallest_band(self):
        """At N = 4, the smallest band the config accepts, the fields have
        the modes |k| <= 1 and every audit passes."""
        out = run_normalform_check(default_config(NORMALFORM, grid_n=4))
        assert out.passed

    def test_normalform_rows_report_their_own_time(self):
        """Each row times its own check, so the rows never add up to more
        than the run."""
        cfg = default_config("normalform", eps_list=(0.2, 0.1, 0.05))
        start = time.perf_counter()
        out = run_normalform_check(cfg)
        wall = time.perf_counter() - start
        assert sum(row.runtime for row in out.rows) <= wall

    def test_resonance_audit_small(self):
        out = run_resonance_audit(default_config("resonances"), max_abs=5)
        assert out.columns == README_COLUMNS["resonances"]
        assert out.passed
        listed = {(r.data["k1"], r.data["k2"], r.data["k3"], r.data["k4"])
                  for r in out.rows}
        assert (1, 1, 0, 0) in listed


class TestGaugeBookkeeping:
    def test_reported_error_blind_to_the_gauge(self):
        """The gauge phase is common to both flows of the comparison, so
        running the gauged pair or the ungauged pair reports the same
        H^s distance."""
        from halfwave import EvolutionProblem, GridSpec, TorusField, sobolev_norm
        from halfwave.experiments import _peak
        from halfwave.norms import charge

        cfg = default_config(APPROXIMATION, grid_n=16, seed=2)
        grid = GridSpec.with_padding(16)
        u0 = build_initial_state(cfg, grid, normalize_sobolev=1.5)
        q0, eps, horizon, s = charge(u0), 0.2, 10.0, 1.5

        def gap(c):  # the approximation row's functional on the two stacked flows
            return sobolev_norm(TorusField(grid, c[0] - c[1]), s)

        (gauged,) = _peak(gap, (EvolutionProblem.half_wave_gauged(eps, q0),
                                EvolutionProblem.szego_transport(eps, q0)),
                          u0, horizon, 0.01, 10)
        (plain,) = _peak(gap, (EvolutionProblem.half_wave_scaled(eps),
                               EvolutionProblem.szego_transport(eps, 0.0)),
                         u0, horizon, 0.01, 10)
        assert abs(gauged - plain) <= 1e-12


class TestStrichartz:
    def test_two_mode_hand_value(self):
        # numerator ||1 + e^{ix}||_{L4}^4 = 6, denominator (1 + 2^{s/2})^2
        for s in (0.0, 0.5):
            want = 6.0 / (1.0 + 2 ** (s / 2.0)) ** 2
            assert strichartz_ratio(1, s) == pytest.approx(want, rel=1e-10)

    def test_slopes(self):
        out = run_strichartz(default_config("strichartz"))
        assert out.columns == README_COLUMNS["strichartz"]
        assert out.passed
        slopes = out.notes["slopes"]
        assert slopes["0.0"] == pytest.approx(1.0, abs=0.15)
        assert slopes["0.25"] == pytest.approx(0.5, abs=0.15)
        assert slopes["0.5"] == pytest.approx(0.0, abs=0.15)


class TestOutputs:
    def test_csv_deterministic(self, tmp_path):
        cfg = default_config("strichartz", output_dir=str(tmp_path / "a"))
        run_and_write(cfg)
        cfg2 = default_config("strichartz", output_dir=str(tmp_path / "b"))
        run_and_write(cfg2)
        a = (tmp_path / "a" / "strichartz.csv").read_bytes()
        b = (tmp_path / "b" / "strichartz.csv").read_bytes()
        assert a == b

    def test_summary_schema(self, tmp_path):
        cfg = default_config("resonances", output_dir=str(tmp_path))
        run_and_write(cfg)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["experiment"] == "resonances"
        assert payload["passed"] is True
        assert payload["config"]["seed"] == 0
        assert isinstance(payload["rows"], list)

    def test_summary_rows_are_one_line_each(self, tmp_path):
        """summary.json loads to the document json.dumps(indent=2) writes,
        with each row written on one line."""
        cfg = default_config("strichartz", output_dir=str(tmp_path))
        result = run_and_write(cfg)
        text = (tmp_path / "summary.json").read_text()
        payload = json.loads(text)
        assert payload["rows"] == [dict(r.data, runtime=r.runtime) for r in result.rows]
        assert set(payload) == {"experiment", "config", "rows", "fitted_slope", "slope_ci",
                                "passed", "notes"}
        rows = [line for line in text.splitlines() if line.startswith("    {")]
        assert len(rows) == len(result.rows) > 0

    def test_csv_one_header_line(self, tmp_path):
        cfg = default_config("strichartz", output_dir=str(tmp_path))
        result = run_and_write(cfg)
        lines = (tmp_path / "strichartz.csv").read_text().splitlines()
        assert lines[0] == ",".join(README_COLUMNS["strichartz"])
        assert lines[0] == ",".join(result.columns)
        assert len(lines) == 1 + len(result.rows)
        assert set(README_COLUMNS) == set(EXPERIMENTS)

    def test_threads_bitwise_identical(self, tmp_path):
        """Rows run in worker processes give the serial run's CSV bytes,
        on the analytic Szego path (inflation, spectrum) as elsewhere."""
        for experiment, overrides in [
            (DECOUPLING, dict(grid_n=32, horizon=HorizonRule("fixed", 10.0))),
            (INFLATION, dict(eps_list=(1.0,), delta_list=(0.8, 0.6, 0.4))),
            (SPECTRUM, dict(horizon=HorizonRule("fixed", 5.0))),
        ]:
            for threads in (1, 2):
                run_and_write(default_config(experiment, threads=threads,
                                             output_dir=str(tmp_path / str(threads)),
                                             **overrides))
            serial = (tmp_path / "1" / f"{experiment}.csv").read_bytes()
            assert (tmp_path / "2" / f"{experiment}.csv").read_bytes() == serial

    def test_import_loads_no_process_pool(self):
        """The process pool is imported by a parallel sweep only, so a fresh
        interpreter that imports the harness leaves it unloaded."""
        code = ("import sys, halfwave.experiments; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = cli.main(["strichartz", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "strichartz.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_config_error_exit_one(self, capsys):
        assert cli.main(["decoupling", "--eps", "0.1,0.2"]) == 1

    @pytest.mark.parametrize("experiment", [BESOV_BOUND, APPROXIMATION, SPECTRUM])
    def test_log_horizon_at_eps_one_exits_one(self, experiment, tmp_path, capsys):
        """T = log(1/eps)/eps^2 is 0 at eps = 1: no row may be measured at t = 0."""
        code = cli.main([experiment, "--grid", "16", "--eps", "1,0.5,0.25",
                         "--horizon", "log:1", "--out", str(tmp_path)])
        assert code == 1
        assert "log horizon" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        ([BESOV_BOUND, "--eps", "0.5,0.25,0.125", "--horizon", "fixed:inf"],
         "fixed horizon"),
        ([DECOUPLING, "--horizon", "inv_eps_sq:1e308"], "inv_eps_sq horizon"),
        ([DECOUPLING, "--horizon", "fixed:1", "--profile-amplitude", "0"],
         "profile is zero"),
        ([SPECTRUM, "--profile-amplitude", "0"], "profile is zero"),
        ([SPECTRUM, "--profile-support", "-1"], "profile is zero"),
        ([BESOV_BOUND, "--eps", "0.5,0.25,0.125", "--horizon", "fixed:1", "--dt", "1e-320"],
         "finite step count"),
        ([DECOUPLING, "--eps", "inf"], "eps values must be positive and finite"),
        ([DECOUPLING, "--eps", "1e300", "--horizon", "fixed:1"], "finite nonzero eps^2"),
        ([DECOUPLING, "--profile-amplitude", "1e200", "--horizon", "fixed:1"],
         "no positive time step for ||u0||_B111"),
        ([BESOV_BOUND, "--eps", "0.5,0.25,0.125", "--horizon", "fixed:1", "--dt", "1e-300"],
         "finite step count"),
    ])
    def test_unusable_input_exits_one(self, argv, message, tmp_path, capsys):
        """An infinite horizon, an eps with no finite square, a zero
        initial profile, a profile too large for a positive step or a dt
        too small to count steps is a configuration error: exit 1 with one
        `config error:` line, before any row is measured or any CSV
        written."""
        start = time.perf_counter()
        code = cli.main(argv + ["--grid", "16", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        ([INFLATION, "--deltas", "1e-200"], "band ceiling"),
        ([INFLATION, "--deltas", "0.001"], "band ceiling"),
        ([INFLATION, "--grid", str(MAX_GRID_N + 1)], "band ceiling"),
        ([SPECTRUM, "--grid", "8", "--horizon", "fixed:1", "--profile-rate", "-400"],
         "profile overflows"),
        ([BESOV_BOUND, "--sobolev", "1e6"], "not a positive finite number"),
        ([INFLATION, "--sobolev", "1e6", "--deltas", "0.8", "--eps", "1"],
         "Sobolev index s = 1000000.0 overflows"),
        ([INFLATION, "--sobolev", "86", "--deltas", "0.99", "--eps", "1", "--grid", "1"],
         "Gamma(2s + 1)"),
        ([NORMALFORM, "--grid", "1"], "normalform requires grid_n >= 4"),
        ([NORMALFORM, "--grid", "2"], "normalform requires grid_n >= 4"),
        ([NORMALFORM, "--grid", "3"], "normalform requires grid_n >= 4"),
        ([SPECTRUM, "--grid", str(SPECTRUM_MAX_GRID_N + 1)],
         f"spectrum requires grid_n <= {SPECTRUM_MAX_GRID_N}"),
        ([STRICHARTZ, "--horizon=fixed:inf"], "fixed horizon value must be positive and finite"),
    ], ids=["tiny-delta", "small-delta", "large-grid", "profile-overflow", "huge-sobolev",
            "inflation-sobolev-weight", "inflation-sobolev-gamma", "normalform-grid-1",
            "normalform-grid-2", "normalform-grid-3", "spectrum-grid", "strichartz-inf-horizon"])
    def test_out_of_range_input_is_one_config_line(self, argv, message, tmp_path, capsys):
        """A band above the ceiling, a profile that overflows on its band, a
        Sobolev index whose weights overflow and a normalform band too small
        for its field exit 1 with one `config error:` line, and no warning
        (warnings are errors here) and no traceback on the way."""
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--profile", "custom", "--grid", "8"],
        ["--profile-amplitude", "1e-170", "--grid", "16"],
        ["--profile-amplitude", "1e-160", "--grid", "16"],
    ], ids=["negative-modes-only", "tiny-amplitude", "subnormal-amplitude"])
    def test_spectrum_without_a_hankel_spectrum_exits_one(self, flags, tmp_path, capsys):
        """A profile on modes -1 and -2 alone has a zero Hankel matrix, one
        of amplitude 1e-170 squared eigenvalues that underflow to 0, and one
        of amplitude 1e-160 subnormal ones, whose few digits cannot carry a
        1e-6 relative deviation: there is no spectrum to follow, so the row
        stops before stepping with one `config error:` line naming the
        profile."""
        path = tmp_path / "negative.txt"
        path.write_text("-1 1.0 0.0\n-2 0.5 0.0\n")
        argv = [SPECTRUM, *flags, "--profile-path", str(path), "--horizon", "fixed:1",
                "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped negative modes
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "profile has no Hankel spectrum" in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("argv, t_end", [
        ([BESOV_BOUND, "--horizon", "fixed:1", "--dt", "5"], 1.0),
        ([APPROXIMATION, "--horizon", "fixed:3", "--dt", "10"], 3.0),
        ([BESOV_BOUND, "--horizon", "fixed:1", "--dt", "inf"], None),
    ], ids=["besov-dt5", "approximation-dt10", "besov-dtinf"])
    def test_single_step_rows_are_never_quietly_exact(self, argv, t_end, tmp_path, capsys):
        """A dt at or above T is one step of T against two steps of T/2:
        the row reports step T and a real discrepancy, or the run exits 2
        on it.  A non-finite dt is a configuration error (exit 1)."""
        code = cli.main(argv + ["--grid", "8", "--eps", "0.5,0.25,0.125",
                                "--out", str(tmp_path)])
        if t_end is None:
            assert code == 1
            assert "dt must be positive and finite" in capsys.readouterr().err
            return
        assert code in (0, 2)
        if code == 2:
            assert "Richardson discrepancy" in capsys.readouterr().err
            return
        lines = (tmp_path / f"{argv[0]}.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["dt"]) == t_end
            assert float(row["richardson"]) > 0.0

    def test_unknown_experiment_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("experiment = warp\n")
        assert cli.main(["--config", str(cfg)]) == 1

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "experiment = spectrum\n"
            "grid = 32\n"
            "horizon = fixed:5\n"
            "# comment line\n"
            f"out = {tmp_path}\n"
        )
        code = cli.main(["--config", str(cfg), "--seed", "3"])
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["config"] == {
            "grid_n": 32,
            "eps_list": [0.2, 0.1, 0.05, 0.025],
            "delta_list": [0.4, 0.3, 0.2],
            "sobolev": 1.5,
            "horizon": {"kind": "fixed", "value": 5.0},
            "seed": 3,
            "profile": {"kind": "random_decay", "delta": 0.5, "rate": 2.5,
                        "amplitude": 0.35, "support": 12, "path": None},
            "threads": 1,
            "dt": None,
        }

    @pytest.mark.parametrize("argv", [
        ["decoupling", "--dt", "10", "--grid", "16", "--horizon", "fixed:2000",
         "--profile-amplitude", "80"],
        ["spectrum", "--dt", "10", "--profile-amplitude", "80", "--grid", "16"],
    ], ids=["decoupling", "spectrum"])
    def test_worker_blow_up_exit_two(self, tmp_path, capfd, argv):
        """A blow-up inside a pool worker reaches main as the serial run's
        numerical failure, not as a broken pool, and that line is all it
        writes, for a supremum row and for a row read at t_end.  The time
        is the last valid one of the first run to go non-finite, here the
        run at dt/2.  Warnings are errors here, so a numpy warning from the
        step would fail the run; pool workers write to fd 2, hence capfd."""
        for threads in ("1", "2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv + ["--out", str(tmp_path), "--threads", threads]) == 2
            err = capfd.readouterr().err
            assert err == "numerical failure: non-finite state after t = 5.0\n"

    def test_overflowing_state_is_one_numerical_failure_line(self, tmp_path, capsys):
        """At dt 0.35 the inflation state stays finite but its H^s norm
        overflows: one `numerical failure:` line saying the value is not
        finite, exit 2, and no numpy warning (warnings are errors here)."""
        argv = [INFLATION, "--eps", "1", "--deltas", "0.8", "--dt", "0.35",
                "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "not finite" in err

    @pytest.mark.parametrize("file_line, flags", [
        ("grid = abc", []),
        ("seed = 1.5", []),
        ("dt = fast", []),
        ("profile_support = 2.5", []),
        ("", ["--grid", "abc"]),
        ("", ["--seed", "1.5"]),
        ("", ["warp"]),
        ("", ["--warp", "9"]),
        ("", ["--grid"]),
        ("", ["--profile", "custom", "--profile-path", "{tmp}/missing.txt"]),
    ], ids=["file-grid", "file-seed", "file-dt", "file-support", "flag-grid",
            "flag-seed", "unknown-experiment", "unknown-flag", "flag-no-value",
            "missing-profile"])
    def test_malformed_input_exit_one(self, tmp_path, capsys, file_line, flags):
        """Every configuration error exits 1: a malformed value in a file
        or a flag, an unknown experiment or flag, a missing profile file."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = decoupling\nout = {tmp_path}\n{file_line}\n")
        argv = ["--config", str(cfg)] + [f.format(tmp=tmp_path) for f in flags]
        assert cli.main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        assert "--profile-path" in capsys.readouterr().out

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment spectrum\n")
        assert cli.main(["--config", str(cfg)]) == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = spectrum\nwarp = 9\n")
        assert cli.main(["--config", str(cfg)]) == 1
