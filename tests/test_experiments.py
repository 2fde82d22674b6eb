import json
import math
import warnings

import pytest

from halfwave.experiments import (
    APPROXIMATION,
    DECOUPLING,
    EXPERIMENTS,
    ExperimentConfig,
    HorizonRule,
    Profile,
    build_initial_state,
    default_config,
    fit_loglog_slope,
    run_and_write,
    run_besov_bound,
    run_decoupling,
    run_normalform_check,
    run_resonance_audit,
    run_spectrum_conservation,
    run_strichartz,
    strichartz_ratio,
)
from halfwave import GridSpec
from halfwave.norms import sobolev_norm
import halfwave.cli as cli

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
        from halfwave import EvolutionProblem, GridSpec
        from halfwave.experiments import _max_hs_gap
        from halfwave.norms import charge

        cfg = default_config(APPROXIMATION, grid_n=16, seed=2)
        grid = GridSpec.with_padding(16)
        u0 = build_initial_state(cfg, grid, normalize_sobolev=1.5)
        q0, eps, horizon, s = charge(u0), 0.2, 10.0, 1.5
        gauged = _max_hs_gap(
            EvolutionProblem.half_wave_gauged(eps, q0),
            EvolutionProblem.szego_transport(eps, q0),
            u0, horizon, s, 0.01, 10,
        )
        plain = _max_hs_gap(
            EvolutionProblem.half_wave_scaled(eps),
            EvolutionProblem.szego_transport(eps, 0.0),
            u0, horizon, s, 0.01, 10,
        )
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

    def test_csv_one_header_line(self, tmp_path):
        cfg = default_config("strichartz", output_dir=str(tmp_path))
        result = run_and_write(cfg)
        lines = (tmp_path / "strichartz.csv").read_text().splitlines()
        assert lines[0] == ",".join(README_COLUMNS["strichartz"])
        assert lines[0] == ",".join(result.columns)
        assert len(lines) == 1 + len(result.rows)
        assert set(README_COLUMNS) == set(EXPERIMENTS)

    def test_threads_bitwise_identical(self, tmp_path):
        """Rows run in worker processes give the serial run's CSV bytes."""
        for threads in (1, 2):
            run_and_write(default_config(DECOUPLING, grid_n=32, threads=threads,
                                         horizon=HorizonRule("fixed", 10.0),
                                         output_dir=str(tmp_path / str(threads))))
        serial = (tmp_path / "1" / "decoupling.csv").read_bytes()
        assert (tmp_path / "2" / "decoupling.csv").read_bytes() == serial


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = cli.main(["strichartz", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "strichartz.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_config_error_exit_one(self, capsys):
        assert cli.main(["decoupling", "--eps", "0.1,0.2"]) == 1

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

    def test_worker_blow_up_exit_two(self, tmp_path, capfd):
        """A blow-up inside a pool worker reaches main as the serial run's
        numerical failure, not as a broken pool, and that line is all it
        writes.  Warnings are errors here, so a numpy warning from the
        step would fail the run; pool workers write to fd 2, hence capfd."""
        argv = ["decoupling", "--dt", "10", "--grid", "16", "--horizon", "fixed:2000",
                "--profile-amplitude", "80", "--out", str(tmp_path)]
        for threads in ("1", "2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv + ["--threads", threads]) == 2
            err = capfd.readouterr().err
            assert err == "numerical failure: non-finite state after t = 10.0\n"

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
