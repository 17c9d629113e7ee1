"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.pipeline import compile_c, explore_c, run_c


@pytest.fixture
def counters():
    """The counters of everything the test runs from here on, read
    from the one counter channel, an :func:`repro.obs.collecting`
    registry: ``counters()`` is its :func:`repro.farm.pool.task_stats`
    table (translations, compile-cache and store hits, explore
    resumes, ... — what the CLI's ``explore store:`` line, a task's
    ``stats`` and a campaign's ``cache`` read), and
    ``counters.registry`` is the registry itself, for a counter outside
    that table (``store.evictions``, the ``statics`` kind, ...)."""
    from repro import obs
    from repro.farm.pool import task_stats
    with obs.collecting() as registry:
        def read():
            return task_stats(registry.to_dict())
        read.registry = registry
        yield read


class FarmDaemon:
    """One real ``cerberus-py serve`` subprocess on a temp unix socket
    — the E2E server harness (tests/test_farm_server.py and
    tests/test_server_conformance.py drive lifecycle, dedup, quota,
    malformed-input, and kill-9/restart scenarios through it).

    The daemon runs in its own session (process group) so
    :meth:`kill9` can take the pre-forked pool workers down with it —
    exactly what a machine crash does to a real deployment.  Socket
    paths live under a short ``/tmp`` dir (``AF_UNIX`` paths cap at
    ~104 bytes; deep pytest tmp paths overflow it)."""

    def __init__(self, workers: int = 1, store: str = None,
                 socket_path: str = None, extra_args=(),
                 boot_timeout: float = 60.0):
        self.tmp = tempfile.mkdtemp(prefix="cerb-srv-")
        self.socket_path = socket_path or os.path.join(self.tmp,
                                                       "d.sock")
        self.store = store or os.path.join(self.tmp, "store")
        self.stderr_path = os.path.join(self.tmp, "stderr.log")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep \
            + env.get("PYTHONPATH", "")
        with open(self.stderr_path, "ab") as errf:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--socket", self.socket_path, "--store", self.store,
                 "--workers", str(workers), *extra_args],
                env=env, stdout=subprocess.DEVNULL, stderr=errf,
                start_new_session=True)
        try:
            self.client().wait_healthy(boot_timeout)
        except Exception:
            self.cleanup(remove_tmp=False)
            raise RuntimeError(
                f"farm daemon failed to boot:\n{self.stderr()}")

    def client(self, **kw):
        from repro.farm.client import FarmClient
        return FarmClient(self.socket_path, **kw)

    def stderr(self) -> str:
        with open(self.stderr_path) as f:
            return f.read()

    def kill9(self) -> None:
        """SIGKILL the whole daemon process group — no drain, no
        persistence flush beyond what already hit the store."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)

    def terminate(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        return self.proc.wait(timeout=60)

    def cleanup(self, remove_tmp: bool = True) -> None:
        if self.proc.poll() is None:
            self.kill9()
        if remove_tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


@pytest.fixture
def farm_daemon():
    """Factory fixture: boot real farm daemons; every one (and its
    worker process group) is torn down at test end no matter how the
    test exits."""
    daemons = []

    def _boot(**kw):
        daemon = FarmDaemon(**kw)
        daemons.append(daemon)
        return daemon

    yield _boot
    for daemon in daemons:
        daemon.cleanup()


@pytest.fixture
def farm_in_process():
    """Factory fixture: ``serve(store, requests, **kw)`` starts a
    :class:`~repro.farm.server.FarmServer` in this process on
    ``store`` (a handle, so a test can stand in another build or a
    byte budget), answers each request dict in turn, then shuts it
    down without draining; returns ``(resumed, replies)``.  A job
    still queued or running at the shutdown stays queued."""
    import asyncio
    import json
    from repro.farm.server import FarmServer
    tmp = tempfile.mkdtemp(prefix="cerb-ip-")

    def serve(store, requests, **kw):
        async def main():
            server = FarmServer(os.path.join(tmp, "s.sock"), store, **kw)
            try:
                resumed = await server.start()
                replies = [await server._dispatch(json.dumps(r).encode())
                           for r in requests]
                await server._dispatch(b'{"op": "shutdown", "drain": false}')
                await server._stopped.wait()
            finally:
                if server._pool is not None:
                    server._pool.shutdown()
            return resumed, replies
        return asyncio.run(main())

    yield serve
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture
def run():
    """Run a C program on a model; returns the Outcome."""

    def _run(source, model="provenance", **kw):
        return run_c(source, model=model, **kw)

    return _run


@pytest.fixture
def run_ok():
    """Run a C program expecting normal termination; returns stdout."""

    def _run(source, model="provenance", **kw):
        out = run_c(source, model=model, **kw)
        assert out.status in ("done", "exit"), \
            f"expected success, got {out.status}: {out.ub} " \
            f"{out.ub_detail} {out.error}"
        return out

    return _run


@pytest.fixture
def expect_ub():
    """Run a C program expecting a specific UB name."""

    def _run(source, ub_name=None, model="provenance", **kw):
        out = run_c(source, model=model, **kw)
        assert out.status == "ub", \
            f"expected UB, got {out.status} (stdout={out.stdout!r})"
        if ub_name is not None:
            assert out.ub is not None and out.ub.name == ub_name, \
                f"expected {ub_name}, got {out.ub}"
        return out

    return _run


@pytest.fixture
def explore():
    def _explore(source, model="provenance", **kw):
        return explore_c(source, model=model, **kw)

    return _explore


@pytest.fixture
def compile_only():
    def _compile(source, **kw):
        return compile_c(source, **kw)

    return _compile
