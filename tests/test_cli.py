"""Tests for the command-line interface."""

import pytest

from repro.cli import _resolve_sampling_args, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_simulate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "cholesky"])
        assert args.benchmark == "cholesky"
        assert args.threads == 8
        assert args.mode == "sampled"
        # Sampling flags parse to None sentinels; the resolution step picks
        # the engine and fills in the real defaults.
        assert args.policy is None
        _resolve_sampling_args(parser, args)
        assert args.policy == "periodic"
        assert args.period == 250
        assert args.warmup == 2
        assert args.history == 4

    def test_compare_lazy_policy(self):
        args = build_parser().parse_args(
            ["compare", "dedup", "--policy", "lazy", "--threads", "4"]
        )
        assert args.policy == "lazy"
        assert args.threads == 4

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSamplingFlagValidation:
    """Satellite: sampling flags are validated at argparse time."""

    def _expect_usage_error(self, argv, capsys, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1.5", "-0.1", "abc"])
    def test_budget_out_of_range_rejected(self, value, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "stratified", "--budget", value],
            capsys, "--budget",
        )

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
    def test_error_budget_out_of_range_rejected(self, value, capsys):
        # Unlike --budget, --error-budget excludes 1: a 100% error budget
        # is meaningless.
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "fidelity",
             "--error-budget", value],
            capsys, "--error-budget",
        )

    @pytest.mark.parametrize("flag,value", [
        ("--period", "0"), ("--warmup", "-1"), ("--history", "0"),
    ])
    def test_integer_flags_below_minimum_rejected(self, flag, value, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", flag, value], capsys, flag,
        )

    def test_period_rejected_for_lazy_policy(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--policy", "lazy", "--period", "100"],
            capsys, "--period",
        )

    def test_error_budget_rejected_for_periodic_policy(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--error-budget", "0.02"],
            capsys, "--error-budget",
        )

    def test_period_rejected_for_fidelity_mode(self, capsys):
        self._expect_usage_error(
            ["compare", "swaptions", "--mode", "fidelity", "--period", "50"],
            capsys, "--period",
        )

    def test_warmup_rejected_for_stratified_mode(self, capsys):
        self._expect_usage_error(
            ["grid", "--benchmarks", "swaptions", "--mode", "stratified",
             "--warmup", "2"],
            capsys, "--warmup",
        )

    def test_sampling_flags_rejected_for_detailed_mode(self, capsys):
        self._expect_usage_error(
            ["simulate", "cholesky", "--mode", "detailed", "--period", "100"],
            capsys, "--period",
        )

    def test_conflicting_mode_and_policy_rejected(self, capsys):
        # simulate has distinct --mode and --policy flags; contradictory
        # engines are a usage error.  (On compare/grid --mode is an alias
        # of --policy, so the last spelling simply wins.)
        self._expect_usage_error(
            ["simulate", "cholesky", "--mode", "fidelity",
             "--policy", "periodic"],
            capsys, "--policy",
        )

    def test_fidelity_mode_resolves_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "swaptions", "--mode", "fidelity"])
        _resolve_sampling_args(parser, args)
        assert args.policy == "fidelity"
        assert args.error_budget == pytest.approx(0.02)
        assert args.warmup == 2

    def test_explicit_error_budget_survives_resolution(self):
        parser = build_parser()
        args = parser.parse_args(
            ["compare", "swaptions", "--mode", "fidelity",
             "--error-budget", "0.05"]
        )
        _resolve_sampling_args(parser, args)
        assert args.error_budget == pytest.approx(0.05)


class TestCommands:
    def test_list_prints_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "cholesky" in output
        assert "freqmine" in output
        assert output.count("\n") >= 20

    def test_compare_runs_small_experiment(self, capsys):
        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "execution-time error" in output
        assert "simulation speedup" in output

    def test_simulate_detailed_mode(self, capsys):
        code = main([
            "simulate", "vector-operation", "--scale", "0.004", "--threads", "2",
            "--mode", "detailed",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "total_cycles" in output

    def test_simulate_sampled_low_power(self, capsys):
        code = main([
            "simulate", "histogram", "--scale", "0.004", "--threads", "2",
            "--architecture", "low-power",
        ])
        assert code == 0
        assert "benchmark" in capsys.readouterr().out

    def test_simulate_fidelity_mode(self, capsys):
        code = main([
            "simulate", "histogram", "--scale", "0.004", "--threads", "2",
            "--mode", "fidelity", "--error-budget", "0.05",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "error budget" in output
        assert "committed types" in output

    def test_compare_fidelity_mode(self, capsys):
        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--mode", "fidelity", "--error-budget", "0.05",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "execution-time error" in output

    def test_variation_command(self, capsys):
        code = main(["variation", "swaptions", "--scale", "0.004", "--threads", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "within +/-5%" in output
        assert "simulate_swaption" in output

    def test_unknown_benchmark_exit_code(self, capsys):
        assert main(["compare", "not-a-benchmark", "--scale", "0.01"]) == 2
        assert "error" in capsys.readouterr().err

    def test_orchestrator_rejects_workers_flag(self, capsys):
        # --jobs is the one worker count of compare/grid/sweep; the old
        # --workers spelling fails loudly instead of being ignored.
        with pytest.raises(SystemExit) as exc:
            main([
                "compare", "swaptions", "--scale", "0.004", "--threads", "2",
                "--policy", "lazy", "--workers", "4",
            ])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main([
                "compare", "swaptions", "--scale", "0.004", "--threads", "2",
                "--policy", "lazy", "--jobs", jobs,
            ])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_grid_profile_flag_dumps_stats(self, tmp_path, capsys):
        import pstats

        profile_path = tmp_path / "grid.prof"
        code = main([
            "grid", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", "--profile", str(profile_path),
        ])
        assert code == 0
        assert profile_path.exists()
        stats = pstats.Stats(str(profile_path))
        # The dump covers the simulation phase: engine internals must appear.
        assert any("engine" in str(func[0]) for func in stats.stats)

    def test_sweep_profile_env_dumps_stats(self, tmp_path, monkeypatch, capsys):
        profile_path = tmp_path / "sweep.prof"
        monkeypatch.setenv("REPRO_PROFILE", str(profile_path))
        code = main([
            "sweep", "W", "--benchmarks", "swaptions", "--threads", "2",
            "--scale", "0.004", "--values", "1",
        ])
        assert code == 0
        assert profile_path.exists() and profile_path.stat().st_size > 0
