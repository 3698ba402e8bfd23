"""Fault-injection harness for the cluster and service chaos tests.

Spawns *real* ``malleable-repro workers`` / ``serve`` subprocesses on
localhost ports, parses the addresses they print, and provides the murder
weapons the chaos suite needs: ``SIGKILL`` a node mid-sweep, launch a
straggler that sleeps past the coordinator's cell timeout
(``chaos_delay``), a node that dies with ``os._exit`` on the N-th job
to arrive (``chaos_die_after`` — counted on arrival, not completion, so
``1`` dies on the first job of its own shard before a sibling can steal
it: deterministic mid-cell loss, no reply, no cleanup), or a durable
scheduling server that can be SIGKILLed mid-journal-write and restarted
on the same port from the same journal (:class:`ServerProcess`).
Everything is bounded by timeouts so a regression hangs for seconds, not
forever.

Usage::

    with WorkerFleet(count=3) as fleet:
        ctx = ExecutionContext(backend="cluster", hosts=fleet.hosts)
        ...
        fleet.kill(0)           # SIGKILL one node

    with ServerProcess(journal_dir) as server:
        ...                      # NDJSON clients against server.port
        server.kill()            # SIGKILL: torn journal tails are fair game
        server.start()           # restart: recovers snapshot + journal
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["WorkerFleet", "ServerProcess", "spawn_worker", "free_port", "REPO_SRC"]

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

_ADDRESS_RE = re.compile(r"cluster worker (\S+) listening on (\S+:\d+)")

#: Generous per-operation bound: chaos tests must fail, not hang.
START_TIMEOUT = 30.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_worker(
    count: int = 1,
    chaos_delay: float = 0.0,
    chaos_die_after: int = 0,
) -> "tuple[subprocess.Popen, list[str]]":
    """Launch one ``workers`` subprocess; returns (process, addresses).

    The process hosts ``count`` worker nodes on ephemeral ports (children of
    the subprocess when ``count > 1``); addresses are parsed from its
    stdout.  Chaos knobs apply to every node in the process.
    """
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "workers",
        "--port",
        "0",
        "--count",
        str(count),
    ]
    if chaos_delay:
        command += ["--chaos-delay", str(chaos_delay)]
    if chaos_die_after:
        command += ["--chaos-die-after", str(chaos_die_after)]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=_worker_env()
    )
    addresses: "list[str]" = []
    deadline = time.monotonic() + START_TIMEOUT
    assert process.stdout is not None
    while len(addresses) < count:
        if time.monotonic() > deadline:
            process.kill()
            raise TimeoutError(
                f"worker process printed {len(addresses)}/{count} addresses "
                f"within {START_TIMEOUT}s"
            )
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker process exited early (rc={process.poll()}) after "
                f"{len(addresses)}/{count} addresses"
            )
        match = _ADDRESS_RE.search(line)
        if match:
            addresses.append(match.group(2))
    return process, addresses


class WorkerFleet:
    """A disposable fleet of localhost worker processes (context manager).

    One subprocess per node so a single node can be killed without touching
    its siblings.  Per-node chaos knobs: ``delays[i]`` /
    ``die_after[i]`` map onto ``--chaos-delay`` / ``--chaos-die-after`` of
    node ``i``.
    """

    def __init__(
        self,
        count: int = 2,
        delays: "dict[int, float] | None" = None,
        die_after: "dict[int, int] | None" = None,
    ):
        self.count = count
        self.delays = dict(delays or {})
        self.die_after = dict(die_after or {})
        self.processes: "list[subprocess.Popen]" = []
        self.hosts: "list[str]" = []

    def __enter__(self) -> "WorkerFleet":
        try:
            for index in range(self.count):
                process, addresses = spawn_worker(
                    count=1,
                    chaos_delay=self.delays.get(index, 0.0),
                    chaos_die_after=self.die_after.get(index, 0),
                )
                self.processes.append(process)
                self.hosts.extend(addresses)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def kill(self, index: int) -> None:
        """``SIGKILL`` node ``index`` — the hardest crash available."""
        self.processes[index].kill()
        self.processes[index].wait(timeout=START_TIMEOUT)

    def terminate(self, index: int) -> int:
        """``SIGTERM`` node ``index`` (graceful drain); returns its exit code."""
        self.processes[index].terminate()
        return self.processes[index].wait(timeout=START_TIMEOUT)

    def alive(self, index: int) -> bool:
        return self.processes[index].poll() is None

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
        for process in self.processes:
            try:
                process.wait(timeout=START_TIMEOUT)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                pass
            if process.stdout is not None:
                process.stdout.close()
        self.processes.clear()
        self.hosts.clear()


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve a port number a (re)started server can bind."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


class ServerProcess:
    """A killable, restartable ``malleable-repro serve`` subprocess.

    The port is pre-picked so a restarted server is reachable at the same
    address the clients keep retrying against, and the journal directory is
    reused across restarts — :meth:`kill` followed by :meth:`start` is the
    crash-recovery cycle the durability tests drive.  ``--virtual-time`` is
    on by default so trajectories are deterministic functions of the
    requests, not of wall-clock race outcomes.
    """

    def __init__(
        self,
        journal_dir: "str | os.PathLike[str]",
        port: "int | None" = None,
        virtual_time: bool = True,
        extra_args: "tuple[str, ...]" = (),
    ):
        self.journal_dir = str(journal_dir)
        self.port = free_port() if port is None else int(port)
        self.virtual_time = virtual_time
        self.extra_args = list(extra_args)
        self.process: "subprocess.Popen | None" = None

    def start(self) -> "ServerProcess":
        """Launch the server; blocks until it prints its listening banner."""
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(self.port),
            "--journal-dir",
            self.journal_dir,
        ]
        if self.virtual_time:
            command.append("--virtual-time")
        command += self.extra_args
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=_worker_env()
        )
        deadline = time.monotonic() + START_TIMEOUT
        assert self.process.stdout is not None
        while True:
            if time.monotonic() > deadline:
                self.process.kill()
                raise TimeoutError(f"server not listening within {START_TIMEOUT}s")
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited early (rc={self.process.poll()})"
                )
            if "listening on" in line:
                return self

    def kill(self) -> None:
        """``SIGKILL`` — no flush, no snapshot, torn journal tails welcome."""
        assert self.process is not None
        self.process.kill()
        self.process.wait(timeout=START_TIMEOUT)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def close(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.kill()
        self.process = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
