"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, context_from_args, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "E1", "--seed", "7"])
        assert args.command == "run"
        assert args.experiments == ["E1"]
        assert args.seed == 7
        assert args.paper_scale is False

    def test_run_accepts_multiple_experiments(self):
        args = build_parser().parse_args(["run", "E1", "E5", "E8"])
        assert args.experiments == ["E1", "E5", "E8"]

    def test_run_requires_at_least_one_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_all_command_with_output(self):
        args = build_parser().parse_args(["all", "--output", "report.md", "--paper-scale"])
        assert args.command == "all"
        assert args.output == "report.md"
        assert args.paper_scale is True

    def test_batch_workers_and_cache_flags(self):
        args = build_parser().parse_args(
            ["run", "E5", "--batch", "--workers", "4", "--cache-dir", "/tmp/x"]
        )
        assert args.batch is True
        assert args.workers == 4
        assert args.cache_dir == "/tmp/x"
        args = build_parser().parse_args(["all"])
        assert args.batch is False
        assert args.workers == 0
        assert args.cache_dir is None

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_simplex_lp_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "E1", "--lp-backend", "simplex"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--lp-backend" in err and "invalid choice" in err and "simplex" in err


class TestContextFromArgs:
    def test_serial_by_default(self):
        ctx = context_from_args(build_parser().parse_args(["run", "E1", "--seed", "7"]))
        assert ctx.backend == "serial"
        assert ctx.seed == 7
        assert ctx.runner is None and ctx.cache is None

    def test_batch_and_workers_build_vectorized_context_with_pool(self):
        args = build_parser().parse_args(["run", "E5", "--batch", "--workers", "3"])
        ctx = context_from_args(args)
        try:
            assert ctx.backend == "vectorized"
            assert ctx.vectorized is True
            assert ctx.runner is not None and ctx.runner.workers == 3
        finally:
            ctx.close()

    def test_workers_alone_build_process_pool_context(self):
        args = build_parser().parse_args(["run", "E5", "--workers", "2"])
        ctx = context_from_args(args)
        try:
            assert ctx.backend == "process-pool"
            assert ctx.runner is not None and ctx.runner.workers == 2
        finally:
            ctx.close()

    def test_cache_dir_attaches_persistent_cache(self, tmp_path):
        args = build_parser().parse_args(["run", "E1", "--cache-dir", str(tmp_path / "c")])
        ctx = context_from_args(args)
        assert ctx.cache is not None
        assert (tmp_path / "c").is_dir()


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E9" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "E42"])

    def test_run_multiple_experiments_prints_each(self, capsys):
        assert main(["run", "E3", "E3"]) == 0
        out = capsys.readouterr().out
        assert out.count("[E3]") == 2

    def test_cache_dir_persists_across_invocations(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        assert main(["run", "E3", "--cache-dir", str(cache_dir)]) == 0
        cache_file = cache_dir / "results-cache.json"
        assert cache_file.is_file()
        json.loads(cache_file.read_text())  # valid JSON payload
        # A second invocation reloads the persisted cache without error.
        assert main(["run", "E3", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()


class TestProfile:
    def test_profile_flags_parse(self):
        args = build_parser().parse_args(
            ["profile", "E7", "--top", "10", "--sort", "tottime", "--batch"]
        )
        assert args.command == "profile"
        assert args.target == "E7"
        assert args.top == 10 and args.sort == "tottime" and args.batch is True

    def test_shm_flag_parses_and_reaches_the_context(self):
        args = build_parser().parse_args(["run", "E1", "--workers", "2", "--shm"])
        ctx = context_from_args(args)
        try:
            assert ctx.shm is True and ctx.backend == "process-pool"
        finally:
            ctx.close()

    def test_profile_scenario_prints_table(self, tmp_path, capsys):
        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "\n".join(
                [
                    '[scenario]',
                    'name = "tiny-profile"',
                    'generator = "uniform_instances"',
                    'count = 2',
                    'policies = ["WDEQ"]',
                    '[scenario.grid]',
                    'n = [3]',
                    "",
                ]
            )
        )
        assert main(["profile", str(spec), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile of" in out
        assert "cumulative" in out

    def test_profile_dumps_raw_stats(self, tmp_path, capsys):
        import pstats

        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "\n".join(
                [
                    '[scenario]',
                    'name = "tiny-profile-dump"',
                    'generator = "uniform_instances"',
                    'count = 1',
                    'policies = ["WDEQ"]',
                    '[scenario.grid]',
                    'n = [2]',
                    "",
                ]
            )
        )
        dump = tmp_path / "profile.pstats"
        assert main(["profile", str(spec), "--profile-output", str(dump)]) == 0
        capsys.readouterr()
        pstats.Stats(str(dump))  # loads back as a valid stats file
