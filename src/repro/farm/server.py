"""Semantics-as-a-service: the long-lived farm daemon.

The batch tool this repo grew up as pays its startup cost — process
boot, imports, cold caches — on every invocation.  :class:`FarmServer`
is the service seam the ROADMAP (and PRs 2 and 5) named next: one
persistent asyncio daemon owns one :class:`~repro.farm.store.
ArtifactStore` — compiled artifacts, exploration records, job results
— plus a :class:`~repro.farm.pool.WorkerPool` whose forked
workers each hold one handle on it for life, and serves C-semantics
verdicts over a small JSON protocol on a unix socket.  Clients POST C
source, the job envelope (impl, models, mode, lint) and the fields of one
:class:`~repro.spec.ExploreSpec`, and get campaign-report payloads
back.

Robustness properties
=====================

* **In-flight dedup** — every request is content-addressed by its
  *semantic* identity (:meth:`JobSpec.job_id`, hashed with
  :func:`repro.obs.run_id_for` exactly like trace run ids): the
  envelope + every spec field, with client names, labels, wait flags,
  and any output/cache paths excluded.  Two identical
  submissions — concurrent or not — coalesce into **one**
  computation; later waiters attach to the in-flight job
  (``server.dedup_coalesced``), and finished payloads are persisted
  so re-submissions are served from the result record
  (``server.result_cache_hits``) without touching the pool — but
  only a payload no clock shaped: a worker's (never the daemon's
  ``job-timeout``/``job-failed``), every exploration exhausted or at
  ``max_paths``.  Anything else runs again, resuming its record.
* **Crash-safe queue** — accepting a job writes its request (the
  :class:`JobSpec` the id hashes) atomically to
  ``<store>/queue/<job id>.json`` *before* the submit response, and
  the file goes once the payload is stored as a ``"jobresult"``
  record.  The queue is not a cache: no eviction ever drops a job.
  A killed ``-9`` server restarted on the same store re-enqueues
  every file left (``server.resumed``), so clients that re-connect
  and poll ``result`` get the answer of every job that had not
  finished.  A finished job's answer is served only while its
  ``"jobresult"`` record, a cache entry, survives eviction; after
  that, polling it is ``unknown-job``.  Job explorations persist
  their records in the same store, so a restart also rides the
  frontier/record resume: per-model cells finished before the kill
  are never re-explored.
* **Quotas** — at most ``quota`` unfinished jobs *accepted* per
  client name (attaching to an in-flight duplicate is free);
  exceeding it is a structured ``quota-exceeded`` error.
* **Two-level timeouts** — a cooperative per-job wall-clock deadline
  travels into the worker (``job_timeout``: exploration stops at the
  deadline exactly like farm tasks), and past the hard
  ``hard_timeout`` (from when a worker takes the job) only that
  worker is killed and replaced and the job is ``job-timeout``.
* **Graceful drain** — SIGTERM or the ``shutdown`` op stops
  accepting submissions (``shutting-down``), waits up to
  ``drain_timeout`` for in-flight jobs and exits; what it cut off
  stays in the queue, so nothing accepted is ever lost.

Observability: the daemon counts in one :mod:`repro.obs` scope kept
installed for its life (chained to a ``cerberus-py serve --trace``
scope, so a trace sees every count once): ``server.*`` counters, a
``server.queue_depth`` gauge, one ``server.job`` span per executed
job, its own store accesses, and every worker payload's merged
``metrics``.  The ``stats`` reply reads that scope, so it counts the
daemon and its workers.

The JSON protocol (version 1)
=============================

Transport: a unix stream socket; one JSON object per ``\\n``-
terminated line per request, one JSON object line in response.
Connections may be reused sequentially.  A request line longer than
``max_request_bytes`` is answered with an ``oversized`` error and the
connection is closed (the stream cannot be resynchronised).

Every request carries ``"op"`` and optionally ``"v"`` (the protocol
version, default 1 — any other value is a ``protocol-version``
error).  Unknown fields are **rejected** (``unknown-field``), not
ignored: a typo'd knob must not silently change a job's semantics.

Requests::

    {"op": "submit", "v": 1, "source": "int main(void){...}",
     "name": "t.c", "impl": "LP64", "models": ["concrete", ...]|"all",
     "mode": "run"|"explore", "lint": false,
     "backend": "compiled"|"tree", "seed": null, "max_steps": 500000,
     "options": null, "exact_equality": false, "strategy": "dfs",
     "por": false, "static_prune": false, "entry": "main",
     "max_paths": 500,
     "client": "ci", "label": "anything", "wait": true}
    {"op": "status", "job": JOB_ID}
    {"op": "result", "job": JOB_ID}
    {"op": "stats"}
    {"op": "health"}
    {"op": "shutdown", "drain": true}

``submit`` takes the request framing (``op``, ``v``, ``client``,
``label``, ``wait``), the job envelope (:data:`ENVELOPE_FIELDS`:
``source``, ``name``, ``impl``, ``models``, ``mode``, ``lint``), and
exactly the fields of :class:`repro.spec.ExploreSpec` (shown above
with their defaults; a run job reads only the
:class:`~repro.spec.RunSpec` ones).  An omitted field takes its
``ExploreSpec`` default in both modes: ``max_steps`` is 500000 for a
run job too, not ``RunSpec``'s 2000000 (``cerberus-py submit``
always sends its ``--max-steps``, 2000000 unless given).
``options`` is null or a
:class:`~repro.memory.base.MemoryOptions` field map meaning
``MemoryOptions(**map)``, as in the library.  Everything but the
framing forms the job identity; only ``source`` is required.
Responses (success)::

    submit, wait=false: {"ok": true, "job": ID, "state": "queued"|
                         "running"|"done"|"failed",
                         "coalesced": bool, "cached": bool}
    submit, wait=true:  {"ok": true, "job": ID, "state": ...,
                         "coalesced": ..., "cached": ...,
                         "report": PAYLOAD}
    status:             {"ok": true, "job": ID, "state": ...,
                         "wall_s": seconds-since-accept}
    result:             {"ok": true, "job": ID, "state": "done"|
                         "failed", "report": PAYLOAD}
    stats:              {"ok": true, "protocol": 1, "server": {...},
                         "store": {...}}
    health:             {"ok": true, "protocol": 1, "status":
                         "serving"|"draining", "pid": N}
    shutdown:           {"ok": true, "draining": true, "inflight": N}

The ``stats`` op's ``server.counters`` lists :data:`SERVER_COUNTERS`;
its ``store`` object is :func:`~repro.farm.pool.store_stats` of the
daemon's scope (flat and per-kind hits/misses/stores/corrupt,
evictions) plus the entry count and size in bytes.

``PAYLOAD`` is the JSON form of one farm
:class:`~repro.farm.pool.TaskResult`
(:func:`~repro.farm.pool.task_result_to_json`): ``ok`` / ``error`` /
``timed_out`` / ``wall_s`` / ``verdicts`` ({model: verdict}) or
``explorations`` ({model: {paths, exhausted, behaviours, ...}}) /
the worker's ``metrics`` snapshot / ``stats``, the job's
compile/store counters, derived from ``metrics``
(:func:`~repro.farm.pool.task_stats`).  A job whose program raised is
``ok: false`` with the exception named in ``error``, the same text
the CLI's ``--models`` prints.
``explorations[*].behaviours`` is byte-identical to the direct
:func:`repro.pipeline.explore_many` behaviour set — pinned by
``tests/test_server_conformance.py`` against the golden suite.

Errors are structured, never tracebacks::

    {"ok": false, "error": {"code": CODE, "detail": "...",
                            "field": OPTIONAL}}

with distinct codes: ``bad-json`` (unparsable line), ``bad-request``
(not a JSON object / missing op), ``protocol-version``,
``unknown-op``, ``unknown-field``, ``missing-field``, ``bad-field``
(wrong type or value, named in ``field``), ``oversized`` (request
line or source over the cap), ``unknown-job``, ``pending`` (result
requested before completion), ``quota-exceeded``, ``shutting-down``,
``job-failed``, ``job-timeout``, and ``internal``.

Versioning: ``PROTOCOL_VERSION`` gates the wire schema (bump on
incompatible request/response changes — old clients get a
``protocol-version`` error, not garbage).  Like every store record, a
``"jobresult"`` is keyed on the build, so a new build recomputes a
resubmitted job an older one finished; queue files hold only
requests, so it resumes what an older one accepted, under new code.

Entry points: ``cerberus-py serve --socket S --store DIR`` /
``cerberus-py submit file.c --socket S ...`` (:mod:`repro.cli`),
:class:`repro.farm.client.FarmClient`, and
:func:`repro.farm.campaign.sweep_campaign(server=...)
<repro.farm.campaign.sweep_campaign>`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from .. import obs
from ..obs.trace import run_id_for
from ..spec import ExploreSpec, SpecError
from .pool import (
    SweepTask, WorkerPool, execute_task, store_stats,
    task_result_to_json,
)
from .store import as_store, write_atomic

#: Wire-protocol version: folded into every health/stats response and
#: checked against each request's ``v`` field.
PROTOCOL_VERSION = 1

#: The store record kind of a finished job's payload.
RESULT_RECORD_KIND = "jobresult"

_DEFAULT_MAX_REQUEST = 8 * 1024 * 1024

#: The ``server.*`` counters the ``stats`` reply lists.
SERVER_COUNTERS = ("requests", "submits", "accepted", "dedup_coalesced",
                   "result_cache_hits", "jobs_executed", "jobs_completed",
                   "jobs_failed", "jobs_timeout", "resumed", "rejects")


class ProtocolError(Exception):
    """A structured request rejection: becomes the JSON error payload
    (code + human detail + optionally the offending field), never a
    server-side traceback."""

    def __init__(self, code: str, detail: str,
                 field: Optional[str] = None):
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.field = field

    def to_json(self) -> dict:
        error = {"code": self.code, "detail": self.detail}
        if self.field is not None:
            error["field"] = self.field
        return {"ok": False, "error": error}


def error_payload(code: str, detail: str,
                  field: Optional[str] = None) -> dict:
    return ProtocolError(code, detail, field).to_json()


# -- request identity ----------------------------------------------------------

#: The job envelope: the program and models a spec applies to, the
#: job's mode, and its lint flag.  With the :class:`ExploreSpec`
#: fields it forms the job identity; the request framing (``op``,
#: ``v``, ``client``, ``label``, ``wait``) never does, so two clients
#: differing only in who they are or where they want their trace
#: written coalesce to one computation.
ENVELOPE_FIELDS = ("source", "name", "impl", "models", "mode", "lint")


@dataclass(frozen=True)
class JobSpec:
    """The validated, semantic-only content of one submission."""

    source: str
    name: str = "<submit>"
    impl: str = "LP64"
    models: Tuple[str, ...] = ()
    mode: str = "run"
    lint: bool = False
    spec: ExploreSpec = ExploreSpec()

    def job_id(self) -> str:
        """Hashed like trace run ids (:func:`repro.obs.run_id_for`)
        from every envelope and spec field — never from client names,
        wait flags, output paths, or cache directories."""
        return run_id_for("\x00".join([
            "farm-job", str(PROTOCOL_VERSION),
            json.dumps(self.to_dict(), sort_keys=True)]))

    def to_dict(self) -> dict:
        return {"source": self.source, "name": self.name,
                "impl": self.impl, "models": list(self.models),
                "mode": self.mode, "lint": self.lint,
                **self.spec.to_json()}

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        d = dict(d)
        envelope = {k: d.pop(k) for k in ENVELOPE_FIELDS if k in d}
        envelope["models"] = tuple(envelope.get("models") or ())
        return cls(spec=ExploreSpec.from_json(d), **envelope)


# -- request validation --------------------------------------------------------

def _field(msg: dict, name: str, types, default,
           choices=None, required: bool = False):
    """One validated request field: wrong type or value is a
    ``bad-field`` error naming the field, absence of a required field
    is ``missing-field``."""
    if name not in msg:
        if required:
            raise ProtocolError("missing-field",
                                f"{name!r} is required", name)
        return default
    value = msg[name]
    type_tuple = types if isinstance(types, tuple) else (types,)
    ok = isinstance(value, type_tuple)
    if ok and isinstance(value, bool) and bool not in type_tuple:
        ok = False   # JSON true/false is not an acceptable integer
    if not ok:
        raise ProtocolError(
            "bad-field", f"{name!r} has the wrong type "
            f"({type(value).__name__})", name)
    if choices is not None and value not in choices:
        raise ProtocolError(
            "bad-field",
            f"{name!r} must be one of {sorted(choices)}, "
            f"got {value!r}", name)
    return value


_SUBMIT_FIELDS = frozenset(ENVELOPE_FIELDS) \
    | ExploreSpec.field_names() | {"op", "v", "client", "label", "wait"}
_OP_FIELDS = {
    "submit": _SUBMIT_FIELDS,
    "status": frozenset({"op", "v", "job"}),
    "result": frozenset({"op", "v", "job"}),
    "stats": frozenset({"op", "v"}),
    "health": frozenset({"op", "v"}),
    "shutdown": frozenset({"op", "v", "drain"}),
}


def _check_fields(msg: dict, op: str) -> None:
    """Unknown protocol fields are rejected, not ignored — a typo'd
    semantic knob must never silently change what a job means."""
    unknown = sorted(set(msg) - _OP_FIELDS[op])
    if unknown:
        raise ProtocolError(
            "unknown-field",
            f"unknown field(s) for {op!r}: {', '.join(unknown)}",
            unknown[0])


def validate_submit(msg: dict, max_source_bytes: int) -> JobSpec:
    """The full submit schema check: types, value domains, the source
    size cap, and unknown-field rejection — every failure a distinct
    structured error code.  The spec fields are checked by
    :meth:`ExploreSpec.from_json <repro.spec.RunSpec.from_json>`'s
    walk over the spec's field types."""
    from ..pipeline import MODELS
    _check_fields(msg, "submit")
    source = _field(msg, "source", str, None, required=True)
    if len(source.encode("utf-8", "surrogateescape")) \
            > max_source_bytes:
        raise ProtocolError(
            "oversized", f"source exceeds {max_source_bytes} bytes",
            "source")
    models = msg.get("models", "all")
    if models == "all":
        models = sorted(MODELS)
    if not isinstance(models, list) or not models \
            or not all(isinstance(m, str) for m in models):
        raise ProtocolError("bad-field", "'models' must be 'all' or "
                            "a non-empty list of model names",
                            "models")
    unknown = sorted(set(models) - set(MODELS))
    if unknown:
        raise ProtocolError(
            "bad-field", f"unknown model(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(MODELS))})", "models")
    try:
        spec = ExploreSpec.from_json(
            {k: v for k, v in msg.items()
             if k in ExploreSpec.field_names()})
    except SpecError as exc:
        raise ProtocolError("bad-field", str(exc), exc.field) from None
    return JobSpec(
        source=source,
        name=_field(msg, "name", str, "<submit>"),
        impl=_field(msg, "impl", str, "LP64",
                    choices={"LP64", "ILP32"}),
        models=tuple(models),
        mode=_field(msg, "mode", str, "run",
                    choices={"run", "explore"}),
        lint=_field(msg, "lint", bool, False),
        spec=spec)


# -- the worker side -----------------------------------------------------------

def _reusable(payload: dict, spec: JobSpec) -> bool:
    """Whether a finished payload may answer a new submission of
    ``spec``: a worker produced it (the daemon's own errors are
    structured objects) and no deadline cut an exploration short."""
    return not isinstance(payload.get("error"), dict) and all(
        e["exhausted"] or e["paths_run"] >= spec.spec.max_paths
        for e in (payload.get("explorations") or {}).values())


def _execute_job(spec_dict: dict, explore_dir: Optional[str],
                 deadline_s: Optional[float]) -> dict:
    """Run one job in a pool worker: exactly the farm task recipe
    (:func:`repro.farm.pool.execute_task`), so server-path verdicts
    ride the same ``run_many`` / ``explore_many`` seams as the direct
    API, with the job's explorations persisted as records in the
    daemon's store — that persistence is what makes a SIGKILL'd
    campaign resumable.  The job uses the handle its pool worker
    installed for life and opens none: ``explore_dir`` only names that
    store's directory, and stays a positional parameter because
    tracing wrappers hook this function by position."""
    job = JobSpec.from_dict(spec_dict)
    from ..ctypes.implementation import ILP32, LP64
    task = SweepTask(
        index=0, name=job.name, kind=job.mode, source=job.source,
        models=job.models,
        impl=LP64 if job.impl == "LP64" else ILP32,
        spec=job.spec, lint=job.lint, deadline_s=deadline_s)
    return task_result_to_json(execute_task(task))


# -- the daemon ----------------------------------------------------------------

@dataclass
class Job:
    """One accepted job's in-memory state (its spec stays in the queue
    directory until its payload is stored as a result record)."""

    spec: JobSpec
    job_id: str
    state: str = "queued"            # queued | running | done | failed
    accepted_m: float = 0.0
    payload: Optional[dict] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    clients: Set[str] = field(default_factory=set)


class FarmServer:
    """The long-lived daemon.  Construct, then ``await serve()``."""

    def __init__(self, socket_path, store, workers: int = 2,
                 quota: int = 16,
                 job_timeout: Optional[float] = None,
                 hard_timeout: Optional[float] = None,
                 drain_timeout: float = 30.0,
                 max_request_bytes: int = _DEFAULT_MAX_REQUEST):
        self.socket_path = str(socket_path)
        self.store = as_store(store)
        self.workers = max(1, int(workers))
        self.quota = int(quota)
        self.job_timeout = job_timeout
        # The hard backstop must strictly dominate the cooperative
        # deadline or it would fire first on healthy jobs.
        if hard_timeout is None and job_timeout is not None:
            hard_timeout = 4.0 * job_timeout + 30.0
        self.hard_timeout = hard_timeout
        self.drain_timeout = drain_timeout
        self.max_request_bytes = int(max_request_bytes)
        self._jobs: Dict[str, Job] = {}
        self._client_jobs: Dict[str, Set[str]] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._draining = False       # refuse new submissions
        self._drain_started = False  # drain() re-entry guard
        self._started_m = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._pool: Optional[WorkerPool] = None
        self.obs: Optional[obs.ObsContext] = None   # set by start()
        self._obs_scope = contextlib.ExitStack()
        self._queue = self.store.root / "queue"
        self._queue.mkdir(exist_ok=True)

    # -- counters -------------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        self.obs.inc(f"server.{name}", n)

    def counter_table(self) -> Dict[str, int]:
        """Every :data:`SERVER_COUNTERS` name and its count so far."""
        counters = self.obs.metrics.counters
        return {name: counters.get(f"server.{name}", 0)
                for name in SERVER_COUNTERS}

    def _queue_depth(self) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.state in ("queued", "running"))

    def _gauge_depth(self) -> None:
        self.obs.gauge("server.queue_depth", self._queue_depth())

    # -- crash-safe queue -----------------------------------------------------

    def _queued(self, job_id: str) -> Path:
        return self._queue / f"{job_id}.json"

    def _result_key(self, job_id: str) -> str:
        return self.store.record_key(RESULT_RECORD_KIND, job_id)

    def _recover_queue(self) -> int:
        """Re-enqueue every job a previous incarnation, of any build,
        accepted but never finished, unless its result was stored
        before the crash (then it answers) or its file does not parse
        as a job of this build (then it fails ``job-failed``)."""
        resumed = 0
        for path in sorted(self._queue.glob("*.json")):
            job_id = path.stem
            try:
                spec = JobSpec.from_dict(json.loads(path.read_bytes()))
            except (ValueError, TypeError, OSError) as exc:
                # A field this build lacks, not a job object, or not
                # readable: answered, never skipped.
                self._answered(JobSpec(source=""), job_id, error_payload(
                    "job-failed", f"unreadable queued job: {exc}"))
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
                continue
            payload = self.store.get_record(self._result_key(job_id),
                                            dict,
                                            kind=RESULT_RECORD_KIND)
            if payload is not None:
                self._answered(spec, job_id, payload)
                path.unlink(missing_ok=True)
            else:
                job = Job(spec, job_id, accepted_m=time.monotonic())
                self._jobs[job_id] = job
                self._spawn(job)
                resumed += 1
        if resumed:
            self._inc("resumed", resumed)
        return resumed

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> int:
        """Install the daemon's metrics scope, fork the worker pool,
        bind the socket, recover the persisted queue; returns the
        number of resumed jobs."""
        parent = obs.active()
        self.obs = self._obs_scope.enter_context(obs.install(
            obs.ObsContext(tracer=getattr(parent, "tracer", None),
                           parent=parent)))
        self._stopped = asyncio.Event()
        # Workers run the module's _execute_job as it is now, so a
        # wrapper installed before start() runs in them; they inherit
        # the explorer, whose result is also the record type, so no
        # job imports it.
        from ..dynamics import explore  # noqa: F401
        self._pool = WorkerPool(_execute_job, self.workers, self.store)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path,
            limit=self.max_request_bytes + 1024)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain()))
            except (NotImplementedError, RuntimeError):
                pass
        return self._recover_queue()

    async def serve(self, on_listening=None) -> None:
        """start + run until drained (``cerberus-py serve``), calling
        ``on_listening(resumed)`` once bound.  Every way out kills the
        workers (what still runs stays queued), so exit never waits."""
        try:
            resumed = await self.start()
            if on_listening is not None:
                on_listening(resumed)
            await self._stopped.wait()
        finally:
            if self._pool is not None:
                self._pool.shutdown()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new submissions, wait (bounded)
        for in-flight jobs, close; serve() then kills the workers, so
        a job still running stays queued."""
        if self._drain_started:
            return
        self._drain_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._tasks:
            await asyncio.wait(set(self._tasks),
                               timeout=self.drain_timeout)
        if self._server is not None:
            await self._server.wait_closed()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._obs_scope.close()
        self._stopped.set()

    # -- connection handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(writer, error_payload(
                        "oversized",
                        f"request line exceeds "
                        f"{self.max_request_bytes} bytes"))
                    break    # stream unsynchronised: drop it
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                close = response.pop("_close", False)
                await self._reply(writer, response)
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _reply(self, writer: asyncio.StreamWriter,
                     response: dict) -> None:
        writer.write(json.dumps(response).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(self, line: bytes) -> dict:
        self._inc("requests")
        try:
            try:
                msg = json.loads(line)
            except ValueError:
                raise ProtocolError("bad-json",
                                    "request is not valid JSON")
            if not isinstance(msg, dict):
                raise ProtocolError("bad-request",
                                    "request must be a JSON object")
            version = msg.get("v", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    "protocol-version",
                    f"server speaks protocol {PROTOCOL_VERSION}, "
                    f"request says {version!r}", "v")
            op = msg.get("op")
            if not isinstance(op, str):
                raise ProtocolError("bad-request",
                                    "request needs a string 'op'")
            if op not in _OP_FIELDS:
                raise ProtocolError("unknown-op",
                                    f"unknown op {op!r}", "op")
            _check_fields(msg, op)
            handler = getattr(self, f"_op_{op}")
            return await handler(msg)
        except ProtocolError as exc:
            self._inc("rejects")
            self._inc(f"errors.{exc.code}")
            return exc.to_json()
        except Exception as exc:   # never a traceback on the wire
            self._inc("rejects")
            return error_payload("internal",
                                 f"{type(exc).__name__}: {exc}")

    # -- ops ------------------------------------------------------------------

    async def _op_submit(self, msg: dict) -> dict:
        self._inc("submits")
        if self._draining:
            raise ProtocolError("shutting-down",
                                "server is draining; resubmit to the "
                                "next incarnation")
        spec = validate_submit(msg, self.max_request_bytes)
        client = _field(msg, "client", str, "anon")
        wait = _field(msg, "wait", bool, True)
        _field(msg, "label", str, None)   # type-checked, non-semantic
        job_id = spec.job_id()
        coalesced = cached = False

        job = self._jobs.get(job_id)
        if job is not None and job.state in ("queued", "running"):
            coalesced = True
            self._inc("dedup_coalesced")
        else:
            payload = job.payload if job is not None \
                else self.store.get_record(self._result_key(job_id),
                                           dict,
                                           kind=RESULT_RECORD_KIND)
            if payload is not None and _reusable(payload, spec):
                cached = True
                self._inc("result_cache_hits")
                if job is None:
                    job = self._answered(spec, job_id, payload)
            else:
                active = self._client_jobs.setdefault(client, set())
                active &= {j for j in active
                           if self._unfinished(j)}
                if self.quota and len(active) >= self.quota:
                    raise ProtocolError(
                        "quota-exceeded",
                        f"client {client!r} already has "
                        f"{len(active)} unfinished jobs "
                        f"(quota {self.quota})")
                job = Job(spec, job_id, accepted_m=time.monotonic())
                job.clients.add(client)
                active.add(job_id)
                self._jobs[job_id] = job
                # Queue BEFORE acknowledging: once the client sees
                # the job id, a kill -9 cannot lose the job.
                write_atomic(self._queued(job_id), json.dumps(
                    spec.to_dict()).encode("utf-8"))
                self._inc("accepted")
                self._spawn(job)
        self._gauge_depth()
        response = {"ok": True, "job": job_id, "state": job.state,
                    "coalesced": coalesced, "cached": cached}
        if wait:
            await job.done.wait()
            response["state"] = job.state
            response["report"] = job.payload
        return response

    def _unfinished(self, job_id: str) -> bool:
        job = self._jobs.get(job_id)
        return job is not None and job.state in ("queued", "running")

    async def _op_status(self, msg: dict) -> dict:
        job = self._lookup(msg)
        return {"ok": True, "job": job.job_id, "state": job.state,
                "wall_s": round(time.monotonic() - job.accepted_m, 4)}

    async def _op_result(self, msg: dict) -> dict:
        job = self._lookup(msg)
        if job.state in ("queued", "running"):
            raise ProtocolError(
                "pending", f"job {job.job_id} is {job.state}; poll "
                f"again", "job")
        return {"ok": True, "job": job.job_id, "state": job.state,
                "report": job.payload}

    def _lookup(self, msg: dict) -> Job:
        job_id = _field(msg, "job", str, None, required=True)
        job = self._jobs.get(job_id)
        if job is None:
            # Maybe a previous incarnation finished it.
            payload = self.store.get_record(
                self._result_key(job_id), dict,
                kind=RESULT_RECORD_KIND)
            if payload is None:
                raise ProtocolError("unknown-job",
                                    f"unknown job {job_id!r}", "job")
            job = self._answered(JobSpec(source=""), job_id, payload)
        return job

    def _answered(self, spec: JobSpec, job_id: str,
                  payload: dict) -> Job:
        """Register a job a known ``payload`` already finished."""
        job = Job(spec, job_id, accepted_m=time.monotonic(),
                  state="done" if payload.get("ok") else "failed",
                  payload=payload)
        job.done.set()
        self._jobs[job_id] = job
        return job

    async def _op_stats(self, msg: dict) -> dict:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True, "protocol": PROTOCOL_VERSION,
            "server": {
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self._started_m,
                                  3),
                "draining": self._draining,
                "workers": self.workers,
                "quota": self.quota,
                "queue_depth": self._queue_depth(),
                "jobs": states,
                "counters": self.counter_table(),
            },
            "store": dict(store_stats(self.obs.metrics.to_dict()),
                          **self.store.stats()),
        }

    async def _op_health(self, msg: dict) -> dict:
        return {"ok": True, "protocol": PROTOCOL_VERSION,
                "status": "draining" if self._draining
                else "serving",
                "pid": os.getpid()}

    async def _op_shutdown(self, msg: dict) -> dict:
        drain = _field(msg, "drain", bool, True)
        inflight = self._queue_depth()
        self._draining = True
        if not drain:
            for task in self._tasks:
                task.cancel()
        asyncio.ensure_future(self.drain())
        return {"ok": True, "draining": True, "inflight": inflight,
                "_close": True}

    # -- job execution --------------------------------------------------------

    def _spawn(self, job: Job) -> None:
        task = asyncio.ensure_future(self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        self._inc("jobs_executed")
        self._gauge_depth()
        ctx = self.obs
        t0 = ctx.tracer.now() if ctx.tracer is not None else 0.0
        w0 = time.perf_counter()
        try:
            payload = await asyncio.wrap_future(self._pool.submit(
                job.spec.to_dict(), str(self.store.root),
                self.job_timeout, timeout=self.hard_timeout))
        except asyncio.CancelledError:
            # Shutdown cut the job off: its queue file stays for the
            # next incarnation.
            job.state = "queued"
            job.done.set()
            return
        except TimeoutError:
            payload = dict(error_payload(
                "job-timeout",
                f"job exceeded the {self.hard_timeout:g}s hard "
                f"backstop"), timed_out=True)
            self._inc("jobs_timeout")
        except Exception as exc:
            payload = error_payload(
                "job-failed", f"worker failure: "
                f"{type(exc).__name__}: {exc}")
        job.payload = payload
        job.state = "done" if payload.get("ok") else "failed"
        if job.state == "done":
            self._inc("jobs_completed")
        elif not payload.get("timed_out"):
            self._inc("jobs_failed")   # timeouts counted above
        wall = time.perf_counter() - w0
        ctx.merge(payload.get("metrics"))
        ctx.observe("span.server.job", wall)
        if ctx.tracer is not None:
            ctx.tracer.emit_span(
                "server.job", t0, wall, 0.0, 0,
                {"job": job.job_id, "name": job.spec.name,
                 "mode": job.spec.mode, "state": job.state})
        # Store the result, then dequeue: a crash in between leaves a
        # queued job that recovery answers from the stored result.
        self.store.put_record(self._result_key(job.job_id),
                              job.payload, kind=RESULT_RECORD_KIND)
        self._queued(job.job_id).unlink(missing_ok=True)
        for client in job.clients:
            self._client_jobs.get(client, set()).discard(job.job_id)
        self._gauge_depth()
        job.done.set()

