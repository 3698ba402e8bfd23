"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

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
        args = build_parser().parse_args(["run", "E5", "--workers", "4", "--cache-dir", "/tmp/x"])
        assert not hasattr(args, "batch")
        assert args.workers == 4
        assert args.cache_dir == "/tmp/x"
        args = build_parser().parse_args(["all"])
        assert args.workers == 0
        assert args.cache_dir is None

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_simplex_lp_backend_is_a_usage_error(self, capsys):
        # --lp-backend is gone: the problem size picks the LP solver.
        for value in ("simplex", "scipy", "auto"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["run", "E1", "--lp-backend", value])
            assert exc.value.code == 2
            assert "unrecognized arguments: --lp-backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--backend", "cluster"], "--backend cluster requires --hosts"),
            (["--workers", "-2"], "workers must be non-negative, got -2"),
            (["--cell-timeout", "0"], "cell_timeout must be positive, got 0.0"),
            (["--cluster-retries", "-1"], "cluster_retries must be non-negative, got -1"),
        ],
    )
    def test_bad_execution_flag_is_a_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", "E1", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("malleable-repro run: error: ")
        assert message in captured.err and captured.err.count("\n") == 1


TRACE_STREAM_SPEC = str(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "trace_stream.toml")


class TestUsageErrors:
    """Bad ``sweep`` / ``loadgen`` input: one ``error:`` line on stderr, exit 2."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["sweep"], "a spec (TOML path or scenario name) is required"),
            (["sweep", "no/such/spec.toml"], "cannot read spec 'no/such/spec.toml'"),
            (["sweep", "no-such-scenario"], "unknown scenario 'no-such-scenario'"),
            (["sweep", "bursty-poisson", "--count", "0"], "--count must be positive, got 0"),
            (["sweep", TRACE_STREAM_SPEC, "--stream-chunk", "-1"], "--stream-chunk must be positive, got -1"),
            (["sweep", TRACE_STREAM_SPEC, "--stream-chunk", "0"], "--stream-chunk must be positive, got 0"),
            (["sweep", "bursty-poisson", "--trace", "t.csv"], "apply only to trace_replay specs"),
            (["loadgen", "--chaos-kill-after", "1"], "--chaos-kill-after requires --spawn-server"),
        ],
        ids=[
            "no-spec",
            "missing-toml",
            "unknown-scenario",
            "count-zero",
            "negative-stream-chunk",
            "zero-stream-chunk",
            "trace-on-synthetic-spec",
            "chaos-without-spawn-server",
        ],
    )
    def test_reported_as_one_line_with_status_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"malleable-repro {argv[0]}: error: ")
        assert message in captured.err and captured.err.count("\n") == 1


    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("[scenario\n", "Expected ']'"),
            ('[scenario]\nname = "x"\ngenerator = "uniform_instances"\ncount = 0\n', "count must be positive"),
            ('[scenario]\nname = "x"\ngenerator = "nope"\n', "unknown workload generator 'nope'"),
        ],
        ids=["malformed-toml", "invalid-spec", "unknown-generator"],
    )
    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.toml"
        spec.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(spec)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"malleable-repro sweep: error: invalid spec '{spec}': ")
        assert message in err and err.count("\n") == 1


class TestContextFromArgs:
    def test_serial_by_default(self):
        ctx = context_from_args(build_parser().parse_args(["run", "E1", "--seed", "7"]))
        assert ctx.backend == "serial"
        assert ctx.seed == 7
        assert ctx._local_nodes == 0 and ctx.cache is None

    def test_removed_batch_flag_is_a_usage_error(self, capsys):
        # --batch only picked the LP solver, which the problem size picks
        # now; --backend no longer offers its "vectorized" backend either.
        for argv, message in (
            (["run", "E5", "--batch", "--workers", "3"], "unrecognized arguments: --batch"),
            (["sweep", "bursty-poisson", "--batch"], "unrecognized arguments: --batch"),
            (["run", "E5", "--backend", "vectorized"], "invalid choice: 'vectorized'"),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_workers_alone_build_process_pool_context(self):
        args = build_parser().parse_args(["run", "E5", "--workers", "2"])
        ctx = context_from_args(args)
        try:
            assert ctx.backend == "process-pool"
            assert ctx._local_nodes == 2
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
            ["profile", "E7", "--top", "10", "--sort", "tottime", "--workers", "2"]
        )
        assert args.command == "profile"
        assert args.target == "E7"
        assert args.top == 10 and args.sort == "tottime" and args.workers == 2

    def test_shm_flag_is_a_usage_error(self, capsys):
        # Pooled batch maps always use shared memory; the switch is gone.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "E1", "--workers", "2", "--shm"])
        assert exc.value.code == 2
        assert "--shm" in capsys.readouterr().err

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
