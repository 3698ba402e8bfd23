"""Command-line interface: list and run the paper's experiments.

Examples
--------
List the available experiments::

    malleable-repro list

Run one experiment with the quick (default) parameters::

    malleable-repro run E1

Run several experiments in one invocation::

    malleable-repro run E1 E5 E8

Run everything and regenerate the Markdown report::

    malleable-repro all --output EXPERIMENTS.md

Run everything sharded over 8 worker processes, with results cached across
invocations::

    malleable-repro all --workers 8 --cache-dir .repro-cache

Run a declarative scenario sweep (a committed TOML spec or a registry
name), preview its grid, and persist the results store::

    malleable-repro sweep scenarios/poisson_bursts.toml --dry-run
    malleable-repro sweep bursty-poisson --output-dir results/
    malleable-repro sweep --list

Find the hot paths of an experiment or sweep before optimising it::

    malleable-repro profile E7 --top 30
    malleable-repro profile e7-solver-scaling --sort tottime

Serve the online scheduler (newline-delimited JSON over TCP, with
``/metrics`` and ``/health`` HTTP endpoints on the same port), and replay a
synthetic open-loop workload against it::

    malleable-repro serve --port 7461 -P 16 --policy wdeq
    malleable-repro loadgen --port 7461 --clients 50 --tasks 40
    malleable-repro loadgen --spawn-server --clients 200 --min-rps 1000

Serve durably (write-ahead journal + snapshots, crash recovery on
restart), inspect the journal, and crash-test the whole stack by killing
and restarting the server mid-run::

    malleable-repro serve --port 7461 --journal-dir ./journal --fsync interval
    malleable-repro journal ./journal --verify --tail 5
    malleable-repro loadgen --spawn-server --retries 5 --chaos-kill-after 2

Launch cluster worker nodes and shard a sweep over them::

    malleable-repro workers --port 7500 --count 3
    malleable-repro sweep bursty-poisson --backend cluster \
        --hosts 127.0.0.1:7500,127.0.0.1:7501,127.0.0.1:7502

Every execution flag maps onto one :class:`repro.exec.ExecutionContext`
that is handed to every experiment and sweep — the CLI contains no
per-experiment execution wiring.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Sequence

from repro.exec import BACKENDS, ExecutionContext
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import render_markdown_report, run_all
from repro.viz.tables import format_table

__all__ = ["main", "build_parser", "context_from_args"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="malleable-repro",
        description=(
            "Reproduction harness for 'Minimizing Weighted Mean Completion Time for "
            "Malleable Tasks Scheduling' (IPDPS 2012)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments", nargs="+", metavar="experiment", help="experiment id(s), e.g. E1 E5 E8"
    )
    _add_execution_arguments(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    _add_execution_arguments(all_parser)
    all_parser.add_argument(
        "--output",
        default=None,
        help="write a Markdown report to this path (default: print text to stdout)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a declarative scenario sweep (TOML file or registry name)"
    )
    sweep_parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help=(
            "path to a scenario TOML file (see scenarios/*.toml) or the name of a "
            "built-in scenario (e.g. bursty-poisson; see `sweep --list`)"
        ),
    )
    sweep_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the built-in scenarios and exit",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded parameter grid without running anything",
    )
    sweep_parser.add_argument(
        "--output-dir",
        default=None,
        help=(
            "persist results to this directory (results.jsonl + summary.md) through "
            "a repro.scenarios.ResultsStore"
        ),
    )
    sweep_parser.add_argument(
        "--trace",
        default=None,
        help=(
            "trace_replay specs only: replay this CSV/JSONL trace instead of the "
            "spec's params.trace"
        ),
    )
    sweep_parser.add_argument(
        "--stream-chunk",
        type=int,
        default=None,
        metavar="N",
        help=(
            "trace_replay specs only: read the trace in N-instance chunks "
            "(sets params.chunk_size, default 4096; peak memory grows with N, "
            "never with the trace)"
        ),
    )
    sweep_parser.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help=(
            "override the spec's per-cell instance count (for trace_replay "
            "specs this caps how many instances are read from the trace)"
        ),
    )
    _add_execution_arguments(sweep_parser)

    profile_parser = subparsers.add_parser(
        "profile",
        help="run an experiment or sweep under cProfile and print the hot paths",
    )
    profile_parser.add_argument(
        "target",
        help=(
            "what to profile: an experiment id (e.g. E7), a built-in scenario "
            "name (e.g. e7-solver-scaling) or a scenario TOML path"
        ),
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="number of rows of the profile table to print (default 25)",
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort order for the table (default cumulative)",
    )
    profile_parser.add_argument(
        "--profile-output",
        default=None,
        metavar="PATH",
        help="also dump the raw cProfile stats to PATH (for snakeviz etc.)",
    )
    _add_execution_arguments(profile_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the online scheduling service (NDJSON over TCP + HTTP /metrics, /health)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=7461, help="TCP port (0 picks an ephemeral port)"
    )
    serve_parser.add_argument(
        "-P", "--processors", type=float, default=8.0, help="processor count of the live system"
    )
    serve_parser.add_argument(
        "--policy",
        default="wdeq",
        choices=_service_policy_names(),
        help="allocation policy driving the incremental simulation",
    )
    serve_parser.add_argument(
        "--max-live-tasks",
        type=int,
        default=10_000,
        help="admission-control cap on concurrently live tasks",
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client token-bucket refill rate in requests/s (0 disables)",
    )
    serve_parser.add_argument(
        "--rate-burst", type=float, default=100.0, help="per-client token-bucket burst size"
    )
    serve_parser.add_argument(
        "--virtual-time",
        action="store_true",
        help="honour client-supplied `now` timestamps instead of the wall clock",
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds to wait for open connections on SIGTERM before stopping",
    )
    serve_parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable durable state: append accepted submits/cancels to a "
            "CRC-framed write-ahead journal in DIR and recover (snapshot + "
            "replay) from it on startup"
        ),
    )
    serve_parser.add_argument(
        "--fsync",
        default="interval",
        choices=("always", "interval", "off"),
        help=(
            "journal fsync policy: 'always' per record, 'interval' at most "
            "every --fsync-interval seconds, 'off' page-cache durability only"
        ),
    )
    serve_parser.add_argument(
        "--fsync-interval",
        type=float,
        default=0.05,
        help="max seconds between fsyncs under --fsync interval",
    )
    serve_parser.add_argument(
        "--snapshot-every",
        type=int,
        default=1000,
        help=(
            "write a full state snapshot (and compact covered journal "
            "segments) every N journaled records (0 disables)"
        ),
    )
    serve_parser.add_argument(
        "--segment-bytes",
        type=int,
        default=4 * 1024 * 1024,
        help="journal segment rotation threshold in bytes",
    )

    journal_parser = subparsers.add_parser(
        "journal",
        help="inspect a service journal directory (read-only; never truncates)",
    )
    journal_parser.add_argument(
        "directory", help="journal directory (as given to `serve --journal-dir`)"
    )
    journal_parser.add_argument(
        "--verify",
        action="store_true",
        help="CRC-scan every segment (default: only the tail segment is decoded)",
    )
    journal_parser.add_argument(
        "--tail",
        type=int,
        default=0,
        metavar="N",
        help="also print the last N decoded records",
    )
    journal_parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print the full report as JSON instead of a table",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="replay a synthetic open-loop workload against a running service",
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1", help="service address")
    loadgen_parser.add_argument("--port", type=int, default=7461, help="service port")
    loadgen_parser.add_argument(
        "--spawn-server",
        action="store_true",
        help=(
            "start an in-process service on an ephemeral port for the duration of "
            "the run (ignores --host/--port); single-command smoke test"
        ),
    )
    loadgen_parser.add_argument("--clients", type=int, default=10, help="concurrent clients")
    loadgen_parser.add_argument(
        "--tasks", type=int, default=20, help="task submissions per client"
    )
    loadgen_parser.add_argument(
        "--arrival",
        default="poisson",
        choices=("none", "poisson", "bursty-poisson"),
        help="inter-submission arrival process (repro.scenarios families)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=200.0, help="per-client arrival rate in submissions/s"
    )
    loadgen_parser.add_argument(
        "--query-ratio", type=float, default=0.25, help="share queries issued per submission"
    )
    loadgen_parser.add_argument(
        "--cancel-ratio", type=float, default=0.05, help="cancellations issued per submission"
    )
    loadgen_parser.add_argument("--seed", type=int, default=0, help="workload seed")
    loadgen_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "per-request reconnect-and-retry attempts with exponential "
            "backoff; mutations get idempotency keys so retries apply "
            "exactly once against a durable server (0 fails fast)"
        ),
    )
    loadgen_parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help=(
            "with --spawn-server: make the spawned server durable (defaults "
            "to a temporary directory under --chaos-kill-after)"
        ),
    )
    loadgen_parser.add_argument(
        "--chaos-kill-after",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "with --spawn-server: run the server as a subprocess, SIGKILL it "
            "after SECONDS mid-run and restart it from its journal "
            "(0 disables)"
        ),
    )
    loadgen_parser.add_argument(
        "--chaos-no-restart",
        action="store_true",
        help="with --chaos-kill-after: leave the server dead instead of restarting it",
    )
    loadgen_parser.add_argument(
        "--min-rps",
        type=float,
        default=0.0,
        help="fail (exit 1) when the measured request throughput is below this",
    )
    loadgen_parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print the full report as JSON instead of a table",
    )

    workers_parser = subparsers.add_parser(
        "workers",
        help="launch cluster worker node(s) for the --backend cluster sweeps",
    )
    workers_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    workers_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help=(
            "base TCP port; node i listens on port+i (0 picks ephemeral ports — "
            "each node prints its bound address)"
        ),
    )
    workers_parser.add_argument(
        "--count", type=int, default=1, help="number of worker node processes to launch"
    )
    workers_parser.add_argument(
        "--chaos-delay",
        type=float,
        default=0.0,
        help="fault injection: sleep this many seconds before every job (straggler)",
    )
    workers_parser.add_argument(
        "--chaos-die-after",
        type=int,
        default=0,
        help=(
            "fault injection: die with os._exit on the N-th job to arrive — "
            "mid-job, no reply, no cleanup (0 disables)"
        ),
    )
    return parser


def _service_policy_names() -> tuple[str, ...]:
    from repro.service.state import POLICY_NAMES

    return POLICY_NAMES


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``run`` and ``all``; they populate one ExecutionContext."""
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's instance counts (much slower)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "shard per-instance work over this many worker processes "
            "(0 = serial in-process execution)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist the result cache to this directory so repeated runs with "
            "identical parameters skip recomputation across invocations"
        ),
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=("auto",) + BACKENDS,
        help=(
            "execution backend; 'auto' (default) infers it from --workers, "
            "'cluster' shards cells over the worker nodes named by --hosts "
            "(launch them with `malleable-repro workers`)"
        ),
    )
    parser.add_argument(
        "--hosts",
        default=None,
        help="cluster worker addresses as host:port[,host:port...] (with --backend cluster)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=120.0,
        help=(
            "cluster backend: seconds one job may take on a remote worker before "
            "the worker is declared dead and the job is reassigned"
        ),
    )
    parser.add_argument(
        "--cluster-retries",
        type=int,
        default=2,
        help="bound on re-executions per job on worker nodes before the run fails",
    )


def context_from_args(args: argparse.Namespace) -> ExecutionContext:
    """Build the ExecutionContext the parsed execution flags describe.

    Flags the context rejects are a usage error, as argparse reports one:
    one line on stderr and exit status 2, no traceback.
    """
    try:
        return ExecutionContext.from_options(
            seed=args.seed,
            paper_scale=args.paper_scale,
            workers=args.workers,
            cache_dir=args.cache_dir,
            backend=getattr(args, "backend", "auto"),
            hosts=getattr(args, "hosts", None),
            cell_timeout=getattr(args, "cell_timeout", 120.0),
            cluster_retries=getattr(args, "cluster_retries", 2),
        )
    except ValueError as exc:
        _usage_error(args, str(exc))


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    """Report a usage error as argparse does: one stderr line, exit status 2."""
    print(f"malleable-repro {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _resolve_spec(args: argparse.Namespace, reference: str):
    """A scenario spec from a TOML path or a registry name (a usage error if neither)."""
    from repro.scenarios import ScenarioSpec, get_scenario

    try:
        if reference.endswith(".toml") or os.sep in reference or os.path.isfile(reference):
            return ScenarioSpec.from_toml(reference)
        return get_scenario(reference)
    except OSError as exc:
        _usage_error(args, f"cannot read spec {reference!r}: {exc.strerror or exc}")
    except KeyError as exc:
        _usage_error(args, exc.args[0])
    except ValueError as exc:  # malformed TOML, or a spec that fails validation
        _usage_error(args, f"invalid spec {reference!r}: {exc}")


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: expand, execute, persist, print."""
    from repro.scenarios import ResultsStore, SweepRunner

    if args.list_scenarios:
        from repro.scenarios import SCENARIOS

        rows = [[spec.name, spec.pipeline, spec.description] for spec in SCENARIOS.values()]
        print(format_table(["name", "pipeline", "description"], sorted(rows)))
        return 0
    if args.spec is None:
        _usage_error(args, "a spec (TOML path or scenario name) is required unless --list")

    spec = _resolve_spec(args, args.spec)
    trace = getattr(args, "trace", None)
    stream_chunk = getattr(args, "stream_chunk", None)
    if trace is not None or stream_chunk is not None:
        if spec.generator != "trace_replay":
            _usage_error(
                args,
                f"--trace/--stream-chunk apply only to trace_replay specs; "
                f"{spec.name!r} uses generator {spec.generator!r}",
            )
        overrides: dict = {}
        if trace is not None:
            overrides["trace"] = os.path.abspath(trace)
        if stream_chunk is not None:
            if stream_chunk <= 0:
                _usage_error(args, f"--stream-chunk must be positive, got {stream_chunk}")
            overrides["chunk_size"] = stream_chunk
        spec = spec.with_overrides(params=overrides)
    count = getattr(args, "count", None)
    if count is not None:
        if count <= 0:
            _usage_error(args, f"--count must be positive, got {count}")
        spec = spec.with_overrides(count=count)
    with context_from_args(args) as ctx:
        runner = SweepRunner(spec, ctx)
        if args.dry_run:
            headers, rows = runner.dry_run_table()
            print(f"sweep {spec.name!r}: {len(rows)} cell(s), pipeline {spec.pipeline!r}")
            print(format_table(headers, rows))
            return 0
        store = ResultsStore(args.output_dir) if args.output_dir else None
        result = runner.run(store=store)
    print(f"sweep {spec.name!r}: {len(result.records)} record(s)")
    print(result.to_text())
    if store is not None:
        print(f"wrote {store.records_path} and {store.summary_path}")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: cProfile one experiment or sweep.

    Future performance work starts here instead of with ad-hoc scripts:
    ``malleable-repro profile E7`` runs the target under
    :mod:`cProfile` with the same execution flags as ``run`` / ``sweep``
    and prints the top-N cumulative table (plus an optional raw stats dump
    for flame-graph viewers).
    """
    import cProfile
    import pstats

    target = args.target
    experiment_ids = set(EXPERIMENTS)

    profiler = cProfile.Profile()
    with context_from_args(args) as ctx:
        if target in experiment_ids:
            spec = get_experiment(target)
            profiler.enable()
            spec.run(ctx=ctx)
            profiler.disable()
        else:
            from repro.scenarios import SweepRunner

            runner = SweepRunner(_resolve_spec(args, target), ctx)
            profiler.enable()
            runner.run()
            profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print(f"profile of {target!r} (sorted by {args.sort}, top {args.top}):")
    stats.print_stats(args.top)
    if args.profile_output:
        stats.dump_stats(args.profile_output)
        print(f"wrote raw profile stats to {args.profile_output}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the asyncio scheduling service."""
    import asyncio

    from repro.service import SchedulerService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        P=args.processors,
        policy=args.policy,
        max_live_tasks=args.max_live_tasks,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        virtual_time=args.virtual_time,
        drain_grace=args.drain_grace,
        journal_dir=args.journal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        snapshot_every=args.snapshot_every,
        segment_bytes=args.segment_bytes,
    )
    service = SchedulerService(config)

    async def _serve() -> None:
        await service.start()
        host, port = service.address
        banner = service.recovery_banner()
        if banner:
            print(f"  {banner}", flush=True)
        print(f"malleable-repro service listening on {host}:{port}", flush=True)
        print(f"  P={config.P} policy={config.policy} max_live_tasks={config.max_live_tasks}")
        if config.journal_dir:
            print(
                f"  durable: journal at {config.journal_dir} "
                f"(fsync={config.fsync}, snapshot every {config.snapshot_every})"
            )
        print("  NDJSON requests on the socket; GET /metrics and /health over HTTP")
        await service.serve_forever(install_signals=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _pick_free_port(host: str) -> int:
    """Reserve a port number a restarted server subprocess can rebind."""
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


async def _spawn_serve_subprocess(args: argparse.Namespace, port: int, journal_dir: str):
    """Launch `serve` as a killable subprocess; returns once it is listening."""
    import asyncio

    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        args.host,
        "--port",
        str(port),
        "--journal-dir",
        journal_dir,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
        env=env,
    )
    assert process.stdout is not None
    while True:
        line = await process.stdout.readline()
        if not line:
            raise SystemExit("loadgen: the spawned server exited before listening")
        if b"listening on" in line:
            return process


async def _chaos_cycle(
    holder: dict, args: argparse.Namespace, port: int, journal_dir: str
) -> None:
    """SIGKILL the server subprocess mid-run, then (optionally) restart it.

    SIGKILL gives the server no chance to flush or snapshot — the journal
    tail may tear mid-record, which is exactly the recovery path the
    restarted process must absorb.
    """
    import asyncio
    import contextlib

    await asyncio.sleep(args.chaos_kill_after)
    process = holder["process"]
    with contextlib.suppress(ProcessLookupError):
        process.kill()
    await process.wait()
    holder["killed"] = True
    if not args.chaos_no_restart:
        holder["process"] = await _spawn_serve_subprocess(args, port, journal_dir)
        holder["restarted"] = True


def _run_loadgen(args: argparse.Namespace) -> int:
    """The ``loadgen`` subcommand: replay an open-loop workload, print a report."""
    import asyncio
    import contextlib
    import json
    import tempfile

    from repro.service import LoadgenConfig, SchedulerService, ServiceConfig, run_loadgen_async

    chaos = args.chaos_kill_after > 0
    if chaos and not args.spawn_server:
        _usage_error(args, "--chaos-kill-after requires --spawn-server")
    holder: dict = {"process": None, "killed": False, "restarted": False}

    async def _run():
        service = None
        killer = None
        tmpdir = None
        host, port = args.host, args.port
        if args.spawn_server and chaos:
            # The server must live in its own process so SIGKILL is a real
            # crash, and on a pre-picked port so the restart is reachable at
            # the same address the clients retry against.
            journal_dir = args.journal_dir
            if journal_dir is None:
                tmpdir = tempfile.TemporaryDirectory(prefix="repro-journal-")
                journal_dir = tmpdir.name
            host, port = args.host, _pick_free_port(args.host)
            holder["process"] = await _spawn_serve_subprocess(args, port, journal_dir)
            killer = asyncio.ensure_future(_chaos_cycle(holder, args, port, journal_dir))
        elif args.spawn_server:
            service = SchedulerService(
                ServiceConfig(port=0, journal_dir=args.journal_dir)
            )
            await service.start()
            host, port = service.address
        try:
            config = LoadgenConfig(
                host=host,
                port=port,
                clients=args.clients,
                tasks_per_client=args.tasks,
                arrival=args.arrival,
                rate=args.rate,
                query_ratio=args.query_ratio,
                cancel_ratio=args.cancel_ratio,
                seed=args.seed,
                retries=args.retries,
            )
            return await run_loadgen_async(config)
        finally:
            if killer is not None:
                killer.cancel()
                with contextlib.suppress(asyncio.CancelledError, SystemExit):
                    await killer
            process = holder["process"]
            if process is not None:
                with contextlib.suppress(ProcessLookupError):
                    process.kill()
                await process.wait()
            if service is not None:
                await service.shutdown()
            if tmpdir is not None:
                tmpdir.cleanup()

    report = asyncio.run(_run())
    if args.json_output:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            ["requests", str(report.requests)],
            ["replies", str(report.replies)],
            ["submitted", str(report.submitted)],
            ["queries", str(report.queries)],
            ["cancels", str(report.cancels)],
            ["errors", str(report.errors)],
            ["protocol errors", str(report.protocol_errors)],
            ["retried", str(report.retried)],
            ["deduplicated", str(report.deduplicated)],
            ["unavailable", str(report.unavailable)],
            ["duration (s)", f"{report.duration:.3f}"],
            ["requests/s", f"{report.rps:.1f}"],
            ["latency p50 (ms)", f"{report.latency.get('p50', 0.0) * 1e3:.3f}"],
            ["latency p99 (ms)", f"{report.latency.get('p99', 0.0) * 1e3:.3f}"],
        ]
        print(format_table(["metric", "value"], rows))
    if chaos:
        # Keep stdout machine-readable under --json: the summary is diagnostic.
        chaos_out = sys.stderr if args.json_output else sys.stdout
        if holder["killed"]:
            outcome = "restarted" if holder["restarted"] else "left dead"
            print(
                f"chaos: server killed after {args.chaos_kill_after:.1f}s and {outcome}; "
                f"{report.retried} retried, {report.deduplicated} deduplicated, "
                f"{report.unavailable} unavailable",
                file=chaos_out,
            )
        else:
            print(
                f"chaos: run finished before the {args.chaos_kill_after:.1f}s "
                "kill fired (nothing was injected)",
                file=chaos_out,
            )
    if report.protocol_errors:
        print("ERROR: protocol errors during load generation")
        return 1
    if args.min_rps and report.rps < args.min_rps:
        print(f"ERROR: throughput {report.rps:.1f} req/s is below --min-rps {args.min_rps:.1f}")
        return 1
    return 0


def _run_journal(args: argparse.Namespace) -> int:
    """The ``journal`` subcommand: describe a journal directory, read-only."""
    import json

    from repro.service import inspect_journal

    report = inspect_journal(args.directory, verify=args.verify, tail=args.tail)
    if args.json_output:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if "error" in report:
            print(f"journal {report['directory']}: {report['error']}")
            return 1
        rows = []
        for segment in report["segments"]:
            rows.append(
                [
                    segment["file"],
                    str(segment["bytes"]),
                    "-".join(str(s) for s in segment.get("seq_range", [])) or "?",
                    str(segment.get("records", "?")),
                    str(segment.get("corrupt_bytes", segment.get("torn_tail_bytes", 0))),
                ]
            )
        print(f"journal {report['directory']}: {len(report['segments'])} segment(s)")
        if rows:
            print(format_table(["segment", "bytes", "seqs", "records", "bad bytes"], rows))
        for snapshot in report["snapshots"]:
            validity = "ok" if snapshot["valid"] else "INVALID"
            print(f"snapshot {snapshot['file']}: seq {snapshot['seq']} ({validity})")
        if report["torn_tail_bytes"]:
            print(
                f"torn tail: {report['torn_tail_bytes']} bytes (normal after a "
                "crash; the next recovering server truncates them)"
            )
        if args.tail and report.get("tail"):
            print(f"last {len(report['tail'])} record(s):")
            for record in report["tail"]:
                print(f"  {json.dumps(record, sort_keys=True)}")
    corrupt = any("corrupt_bytes" in segment for segment in report["segments"])
    if corrupt:
        print("ERROR: corrupt bytes inside a sealed segment")
        return 1
    return 0


def _run_workers(args: argparse.Namespace) -> int:
    """The ``workers`` subcommand: launch cluster worker node process(es).

    A single node runs in this process; ``--count N`` forks N child
    processes, one node each on consecutive ports (or ephemeral ports with
    ``--port 0``).  Every node prints its bound address on a line of the
    form ``cluster worker <id> listening on <host>:<port>`` (flushed), so
    launchers — the chaos test harness, the cluster benchmark, shell
    scripts — can discover the addresses.  ``SIGTERM`` drains gracefully:
    in-flight cells finish and reply before the node exits.
    """
    from repro.exec.cluster import run_worker_node

    if args.count <= 1:
        return run_worker_node(
            host=args.host,
            port=args.port,
            chaos_delay=args.chaos_delay,
            chaos_die_after=args.chaos_die_after,
        )

    import multiprocessing
    import signal as signal_module

    processes = []
    for index in range(args.count):
        port = 0 if args.port == 0 else args.port + index
        process = multiprocessing.Process(
            target=run_worker_node,
            kwargs={
                "host": args.host,
                "port": port,
                "worker_id": f"w{index}",
                "chaos_delay": args.chaos_delay,
                "chaos_die_after": args.chaos_die_after,
            },
        )
        process.start()
        processes.append(process)

    def _forward(signum: int, frame: object) -> None:
        for process in processes:
            if process.is_alive():
                process.terminate()  # SIGTERM -> each node's drain handler

    signal_module.signal(signal_module.SIGTERM, _forward)
    signal_module.signal(signal_module.SIGINT, _forward)
    for process in processes:
        process.join()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``malleable-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        rows = [
            [spec.experiment_id, spec.title, spec.paper_artifact]
            for spec in sorted(EXPERIMENTS.values(), key=lambda s: s.experiment_id)
        ]
        print(format_table(["id", "title", "paper artifact"], rows))
        return 0

    if args.command == "run":
        # Resolve every id before running anything, so a typo in the second
        # id does not waste the first experiment's compute.
        specs = [get_experiment(experiment_id) for experiment_id in args.experiments]
        with context_from_args(args) as ctx:
            for i, spec in enumerate(specs):
                result = spec.run(ctx=ctx)
                if i:
                    print()
                print(result.to_text())
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "profile":
        return _run_profile(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "loadgen":
        return _run_loadgen(args)

    if args.command == "journal":
        return _run_journal(args)

    if args.command == "workers":
        return _run_workers(args)

    if args.command == "all":
        with context_from_args(args) as ctx:
            results = run_all(ctx=ctx)
        if args.output:
            report = render_markdown_report(results)
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
            print(f"wrote {args.output}")
        else:
            for result in results:
                print(result.to_text())
                print()
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
