"""Parallel sweep execution: one worker pool over compiled-artifact
tasks.

One task = one program swept across a list of memory object models
(via :func:`repro.pipeline.run_many` / ``explore_many``), or one shard
of a split frontier, or one test suite entry.  :func:`run_tasks` ->
:func:`execute_task` is the one place a batch is executed, reported
and counted — every CLI verdict (a single-model run is a one-model
batch), the campaigns, farm-sharded exploration and the daemon's
worker all come through it:

* **one failure boundary** — any exception a task raises becomes a
  failed :class:`TaskResult` whose ``error`` names it, with the same
  text in-process, in a forked worker and in the daemon;
* **one counter channel** — each task runs in its own
  :func:`repro.obs.collecting` scope and ships the snapshot back in
  ``data["metrics"]``; ``TaskResult.stats`` is a table over those
  counters (:func:`task_stats`), and :func:`run_tasks` merges every
  snapshot into the caller's active observability context once;
* **sharding** is a pure function of the task list —
  :func:`shard_select` keeps every item whose position is congruent to
  ``shard_index`` modulo ``shard_count``, so ``N`` campaign workers
  started with ``--shard 0/N`` … ``--shard N-1/N`` partition a corpus
  exactly, with no coordination;
* **aggregation** is order-independent — results come back in task
  order, so a parallel sweep reports in the same order as a serial
  one;
* **timeouts** are two-level — a cooperative wall-clock deadline
  inside the worker (exploration stops at the deadline, single runs
  are bounded by ``max_steps``), and a hard limit per call in
  :class:`WorkerPool`: a task that overruns it is reported timed out,
  and only the worker running it is killed and replaced.

``jobs=1`` runs the same tasks serially in-process; otherwise a forked
:class:`WorkerPool`, the daemon's pool too, runs them.  A batch has one store:
:func:`run_tasks` installs its :class:`~repro.farm.store.ArtifactStore`
handle in-process or once in each worker, and every task uses that
handle for every record kind — compiled artifacts, exploration
records, static analyses — and opens none of its own.  A warm store
makes a parallel sweep execution-only: zero front-end translations.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from fnmatch import fnmatchcase
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..ctypes.implementation import Implementation, LP64
from ..errors import CerberusError
from ..pipeline import (
    MODELS, clear_compile_cache, explore_many, get_artifact_store,
    run_many, set_artifact_store,
)
from ..spec import ExploreSpec
from .store import as_store

#: ``TaskResult.stats``: each key and the metric counter it reads
#: (``*`` matches any record kind).
_STATS = {
    "translations": "pipeline.translations",
    "memory_hits": "pipeline.cache_hits",
    "memory_misses": "pipeline.cache_misses",
    "store_hits": "store.compiled.hits",
    "store_misses": "store.compiled.misses",
    "store_puts": "store.compiled.stores",
    "store_corrupt": "store.*.corrupt",
    "explore_hits": "store.exploration.hits",
    "explore_misses": "store.exploration.misses",
    "explore_puts": "store.exploration.stores",
    "explore_resumes": "explore.resumes",
    "explore_live_paths": "explore.live_paths",
}


@dataclass
class Verdict:
    """The observable result of one run, stripped for IPC (no trace)."""

    status: str
    exit_code: Optional[int] = None
    stdout: str = ""
    ub: Optional[str] = None
    ub_detail: str = ""
    error: str = ""
    ub_loc: str = ""

    @classmethod
    def from_outcome(cls, o) -> "Verdict":
        return cls(o.status, o.exit_code, o.stdout,
                   o.ub.name if o.ub else None, o.ub_detail, o.error,
                   str(o.loc) if o.ub and o.loc.line > 0 else "")

    def summary(self) -> str:
        """The behaviour's line, as :meth:`Outcome.summary
        <repro.dynamics.driver.Outcome.summary>` prints it."""
        from ..dynamics.driver import format_behaviour
        return format_behaviour(self.status, self.exit_code, self.stdout,
                                self.ub, self.ub_loc, self.error)


@dataclass
class ExploreSummary:
    """An :class:`~repro.dynamics.explore.ExplorationResult`
    stripped for IPC: distinct behaviours only, no traces."""

    paths_run: int
    exhausted: bool
    behaviours: List[str]
    has_ub: bool
    pruned: int = 0
    diverged: int = 0
    abandoned: int = 0

    @classmethod
    def from_result(cls, r) -> "ExploreSummary":
        return cls(r.paths_run, r.exhausted, r.behaviours(), r.has_ub(),
                   r.pruned, r.diverged, r.abandoned)

    def summary(self) -> str:
        """The line ``--models``, ``submit`` and ``farm sweep`` print."""
        return f"{self.paths_run:4d} paths  " + " | ".join(self.behaviours)


@dataclass
class SweepTask:
    """One unit of farm work under one :class:`~repro.spec.ExploreSpec`
    (``run`` tasks read only its run fields).  ``kind`` selects one of
    four worker recipes:

    * ``"run"`` — run ``source`` once per model (:func:`run_many`);
    * ``"explore"`` — explore per model, publishing, reusing and
      resuming per-model exploration records in the batch's store
      (the handle :func:`run_tasks` installed; without one the
      exploration is storeless);
    * ``"explore_shard"`` — explore only the subtree rooted at the
      oracle choice ``prefix`` (with its POR ``sleep`` set) under
      ``models[0]`` — one shard of a farm-split frontier, returning
      the slim :class:`~repro.dynamics.explore.ExplorationResult` of
      the subtree (its unexplored remainder included, the form the
      store persists) in ``data["shard"]`` for
      :func:`~repro.farm.frontier.explore_farm` to merge;
    * ``"suite"`` — the named de facto test-suite entry across models
      (explored without a store).
    """

    index: int
    name: str
    kind: str = "run"
    source: str = ""
    models: Tuple[str, ...] = ()
    impl: Implementation = LP64
    spec: ExploreSpec = ExploreSpec()
    deadline_s: Optional[float] = None  # cooperative in-task deadline
    prefix: Tuple[int, ...] = ()        # explore_shard: subtree root
    sleep: Tuple = ()                   # explore_shard: POR sleep set
    # explore_shard: requeue deadline-aborted paths uncounted — the
    # value explore_space hands the walk (a store is given).
    requeue_interrupted: bool = False
    # run/explore/suite: attach static lint findings to the result
    # ("lint" data key; the analysis is cached in the batch's store);
    # campaign layers use definite findings as a pre-exploration
    # filter.
    lint: bool = False
    # time.monotonic() at submission, stamped by run_tasks; the worker
    # reports the queue wait (start - submitted) in the result.
    submitted_m: Optional[float] = None


class TaskFailure(Exception):
    """A task whose work raised, re-raised by an owner that cannot
    report a partial batch (:func:`~repro.farm.frontier.explore_farm`
    for a shard whose program raised): its text is the task's
    ``error``, ``"<exception type>: <message>"``."""


@dataclass
class TaskResult:
    index: int
    name: str
    kind: str
    ok: bool = True
    error: str = ""
    timed_out: bool = False
    wall_s: float = 0.0
    # seconds the task sat between submission and a worker picking it
    # up (0.0 when the submission time was not stamped)
    queue_wait_s: float = 0.0
    # the compile/store counters of this task (task_stats over
    # data["metrics"])
    stats: Dict[str, int] = field(default_factory=dict)
    # kind-specific payload: "verdicts" ({model: Verdict}),
    # "explorations" ({model: ExploreSummary}), "shard"
    # (ExplorationResult), "results" (List[TestResult]), "lint"
    # (finding dicts), and for every executed task "metrics" (its
    # repro.obs snapshot)
    data: Dict[str, object] = field(default_factory=dict)


def task_result_to_json(result: TaskResult) -> dict:
    """The wire form of one :class:`TaskResult` — what the farm
    server ships to clients (and persists as ``"jobresult"``
    records).  ``verdicts`` / ``explorations`` dataclasses flatten to
    dicts; ``lint`` / ``metrics`` / ``lint_filtered`` are already
    JSON-able; anything else in ``data`` (e.g. suite ``TestResult``
    lists) is dropped — server jobs only ever carry run/explore
    payloads."""
    from dataclasses import asdict
    data: Dict[str, object] = {}
    if "verdicts" in result.data:
        data["verdicts"] = {m: asdict(v) for m, v
                            in result.data["verdicts"].items()}
    if "explorations" in result.data:
        data["explorations"] = {m: asdict(e) for m, e
                                in result.data["explorations"].items()}
    for key in ("lint", "lint_filtered", "metrics"):
        if key in result.data:
            data[key] = result.data[key]
    return {"index": result.index, "name": result.name,
            "kind": result.kind, "ok": result.ok,
            "error": result.error, "timed_out": result.timed_out,
            "wall_s": result.wall_s,
            "queue_wait_s": result.queue_wait_s,
            "stats": dict(result.stats), **data}


def task_result_from_json(payload: dict,
                          index: Optional[int] = None) -> TaskResult:
    """Rebuild a :class:`TaskResult` from its wire form, so
    server-backed campaigns flow through the exact same
    :class:`~repro.farm.campaign.CampaignReport` aggregation as local
    pool sweeps."""
    result = TaskResult(
        index=payload.get("index", 0) if index is None else index,
        name=payload.get("name", ""),
        kind=payload.get("kind", "run"),
        ok=payload.get("ok", False),
        error=_error_text(payload),
        timed_out=payload.get("timed_out", False),
        wall_s=payload.get("wall_s", 0.0),
        queue_wait_s=payload.get("queue_wait_s", 0.0),
        stats=dict(payload.get("stats", {})))
    if "verdicts" in payload:
        result.data["verdicts"] = {
            m: Verdict(**v) for m, v in payload["verdicts"].items()}
    if "explorations" in payload:
        result.data["explorations"] = {
            m: ExploreSummary(**e)
            for m, e in payload["explorations"].items()}
    for key in ("lint", "lint_filtered", "metrics"):
        if key in payload:
            result.data[key] = payload[key]
    return result


def _error_text(payload: dict) -> str:
    """A payload's error as a flat string: worker errors arrive as
    plain text, server-side rejections as structured
    ``{"code", "detail"}`` objects."""
    error = payload.get("error", "")
    if isinstance(error, dict):
        code = error.get("code", "error")
        detail = error.get("detail", "")
        return f"{code}: {detail}" if detail else code
    return error or ""


def shard_select(items: Sequence, shard_index: int,
                 shard_count: int) -> list:
    """The deterministic ``shard_index``-th of ``shard_count``
    partitions: item ``i`` belongs to shard ``i % shard_count``."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} not in "
                         f"[0, {shard_count})")
    return [item for i, item in enumerate(items)
            if i % shard_count == shard_index]


# -- counters ------------------------------------------------------------------

def task_stats(metrics: Optional[dict]) -> Dict[str, int]:
    """The compile/store counter table of a metrics snapshot — one
    task's ``data["metrics"]``, or a merge of many (a campaign's
    ``cache``)."""
    counters = (metrics or {}).get("counters", {})

    def count(pattern: str) -> int:
        if "*" not in pattern:
            return counters.get(pattern, 0)
        return sum(n for name, n in counters.items()
                   if fnmatchcase(name, pattern))

    return {key: count(pattern) for key, pattern in _STATS.items()}


def store_stats(metrics: Optional[dict]) -> Dict[str, object]:
    """The store table of a metrics snapshot (the daemon's ``stats``
    reply): ``by_kind`` hits/misses/stores/corrupt, their totals (the
    ``compiled`` kind's bare, other kinds' as ``record_*``), and
    ``evictions``."""
    counters = (metrics or {}).get("counters", {})
    events = ("hits", "misses", "stores", "corrupt")
    by_kind: Dict[str, Dict[str, int]] = {}
    for name, n in counters.items():
        family, _, rest = name.partition(".")
        kind, _, event = rest.rpartition(".")
        if family == "store" and kind and event in events:
            by_kind.setdefault(kind, dict.fromkeys(events, 0))[event] += n
    table = dict.fromkeys(("hits", "misses", "stores", "record_hits",
                           "record_misses", "record_stores"), 0)
    table.update(evictions=counters.get("store.evictions", 0), corrupt=0)
    for kind, per in by_kind.items():
        for event, n in per.items():
            bare = kind == "compiled" or event == "corrupt"
            table[event if bare else "record_" + event] += n
    return dict(table, by_kind=dict(sorted(by_kind.items())))


# -- the worker ---------------------------------------------------------------

def execute_task(task: SweepTask) -> TaskResult:
    """Run one task in the current process: the one executor of every
    batch (serial sweeps, forked workers and the daemon's worker all
    come through here) and its one failure boundary.  The task runs
    inside an isolated :func:`repro.obs.collecting` scope whose
    snapshot ships back in ``data["metrics"]`` — :func:`run_tasks`
    merges it into the caller's context, so a parallel sweep's metric
    totals equal a serial one's — and ``stats`` is read from it."""
    with obs.collecting() as registry:
        result = _execute_task(task)
        ctx = obs.active()
        ctx.inc("farm.tasks")
        if not result.ok:
            ctx.inc("farm.task_failures")
        ctx.observe("farm.task_s", result.wall_s)
        if result.queue_wait_s:
            ctx.observe("farm.queue_wait_s", result.queue_wait_s)
    result.data["metrics"] = registry.to_dict()
    result.stats = task_stats(result.data["metrics"])
    return result


def _execute_task(task: SweepTask) -> TaskResult:
    start = time.perf_counter()
    result = TaskResult(task.index, task.name, task.kind)
    if task.submitted_m is not None:
        result.queue_wait_s = max(0.0,
                                  time.monotonic() - task.submitted_m)
    try:
        if task.kind == "run":
            outcomes = run_many(task.source, task.models, task.impl,
                                task.spec, name=task.name)
            result.data["verdicts"] = {
                m: Verdict.from_outcome(o) for m, o in outcomes.items()}
            if task.lint:
                result.data["lint"] = _lint_findings(task)
        elif task.kind == "explore":
            findings = []
            if task.lint:
                findings = _lint_findings(task)
                result.data["lint"] = findings
            if any(f["severity"] == "definite" for f in findings):
                # Pre-exploration filter: a definite static finding
                # already names a guaranteed behaviour — skip the
                # (possibly expensive) path enumeration entirely.
                result.data["lint_filtered"] = True
                result.data["explorations"] = {}
            else:
                explorations = explore_many(
                    task.source, task.models, task.impl, task.spec,
                    name=task.name, deadline_s=task.deadline_s,
                    store=get_artifact_store())
                result.data["explorations"] = {
                    m: ExploreSummary.from_result(r)
                    for m, r in explorations.items()}
        elif task.kind == "explore_shard":
            result.data["shard"] = _explore_shard(task)
        elif task.kind == "suite":
            from ..testsuite.programs import TESTS
            from ..testsuite.runner import run_test_many
            results = run_test_many(TESTS[task.name], list(task.models),
                                    max_steps=task.spec.max_steps)
            result.data["results"] = results
            if task.lint:
                lint_task = SweepTask(task.index, task.name,
                                      source=TESTS[task.name].source,
                                      impl=task.impl)
                result.data["lint"] = _lint_findings(lint_task)
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
    except Exception as exc:
        # The batch must keep running: the task fails, named by its
        # exception, and the traceback goes to the module's logger
        # (imported here: a cold CLI run must not pay for it).
        import logging
        logging.getLogger(__name__).debug("task %r failed", task.name,
                                          exc_info=True)
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - start
    return result


def _lint_findings(task: SweepTask):
    """The slim lint payload of one task: finding dicts, IPC-safe
    (the analysis is cached in the batch's store)."""
    from ..pipeline import compile_c
    try:
        program = compile_c(task.source, task.impl, name=task.name)
        findings = program.lint(get_artifact_store(), name=task.name)
    except CerberusError:
        return []
    return [f.to_dict() for f in findings]


def _explore_shard(task: SweepTask):
    """Worker recipe for one frontier shard: compile (store-warm),
    explore the subtree rooted at the task's prefix under
    ``task.spec``, and answer with the slim
    :class:`~repro.dynamics.explore.ExplorationResult` of the walk —
    distinct outcomes with traces stripped, plus the frontier a budget
    or deadline left, so :func:`~repro.farm.frontier.explore_farm` can
    merge the result and persist a resumable frontier."""
    from ..dynamics.explore import Explorer, PathNode, driver_factory
    from ..pipeline import compile_for_model
    model = task.models[0]
    program = compile_for_model(task.source, model, task.impl,
                                name=task.name)
    return Explorer(
        driver_factory(program.core,
                       lambda: program.make_model(model, task.spec),
                       task.spec),
        task.spec, task.deadline_s,
        [PathNode(tuple(task.prefix), tuple(task.sleep))],
        requeue_interrupted=task.requeue_interrupted).run().slim()


class WorkerPool:
    """Forked workers that each hold ``store`` for life and run ``fn``
    one call at a time over their own pipe, fed by one thread each.  A
    call past its ``timeout`` (counted from when a worker takes it)
    fails with :class:`TimeoutError` and only its worker is SIGKILLed
    and replaced; a worker that dies fails only its own call.  Workers
    ignore SIGINT and SIGTERM: a signal drains through the owner."""

    def __init__(self, fn, workers: int, store=None):
        import queue
        self._fn, self._store = fn, store
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._lock, self._closed = threading.Lock(), False
        self._workers = [self._spawn() for _ in range(max(1, workers))]
        self._threads = [threading.Thread(target=self._feed, args=(i,),
                                          daemon=True)
                         for i in range(len(self._workers))]
        for thread in self._threads:
            thread.start()
        atexit.register(self.shutdown)  # exit must not join a live worker

    def submit(self, *args, timeout: Optional[float] = None):
        """Queue ``fn(*args)``; its Future is cancelled at shutdown."""
        from concurrent.futures import Future
        future = Future()
        with self._lock:
            if self._closed:
                future.cancel()
            else:
                self._calls.put((future, args, timeout))
        return future

    def _spawn(self):
        import multiprocessing
        mp = multiprocessing.get_context("fork")
        conn, child = mp.Pipe()
        proc = mp.Process(target=_serve,
                          args=(child, self._fn, self._store))
        proc.start()
        child.close()
        return proc, conn

    def _feed(self, i: int) -> None:
        """Worker ``i``'s thread: run the queued calls on it in turn."""
        from concurrent.futures import InvalidStateError
        for future, args, timeout in iter(self._calls.get, None):
            if self._closed or future.cancelled():
                future.cancel()
                continue
            proc, conn = self._workers[i]
            try:
                conn.send(args)
                if not conn.poll(timeout):
                    raise TimeoutError("call overran its hard timeout")
                ok, value = conn.recv()
            except (EOFError, OSError) as exc:  # it overran, or it died
                with self._lock:
                    proc.kill()
                    proc.join()
                    conn.close()
                    if not self._closed:
                        self._workers[i] = self._spawn()
                ok, value = False, exc if isinstance(exc, TimeoutError) \
                    else RuntimeError(f"worker process died (exit code "
                                      f"{proc.exitcode})")
            except Exception as exc:    # the arguments do not pickle
                ok, value = False, exc
            try:
                if self._closed:        # shutdown killed its worker
                    future.cancel()
                elif ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
            except InvalidStateError:   # its owner cancelled it
                pass

    def shutdown(self) -> None:
        """Cancel every unfinished call and SIGKILL the workers."""
        atexit.unregister(self.shutdown)
        with self._lock:
            self._closed = True
            for proc, _ in self._workers:
                proc.kill()
        for _ in self._threads:         # each cancels what it meets
            self._calls.put(None)
        for thread, (proc, conn) in zip(self._threads, self._workers):
            thread.join()
            proc.join()
            conn.close()


def _exit_when_orphaned(owner: int) -> None:
    """Exit the worker, even mid-call, once it outlives ``owner`` (an
    owner killed before ``shutdown()``): nobody reads its answer."""
    while os.getppid() == owner:
        time.sleep(0.5)
    os._exit(1)


def _serve(conn, fn, store) -> None:
    """A pool worker's life: start cold (no compile cache, no inherited
    trace to double-write), install ``store`` once (its first write is
    its only directory scan), and answer each call on ``conn`` with
    ``(ok, result or exception)`` until the owner hangs up or dies."""
    import multiprocessing
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    threading.Thread(target=_exit_when_orphaned, daemon=True,
                     args=(multiprocessing.parent_process().pid,)).start()
    obs.reset()
    clear_compile_cache()
    set_artifact_store(store)
    while True:
        try:
            args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:        # the result does not pickle
            conn.send((False, RuntimeError(
                f"unpicklable result: {type(exc).__name__}: {exc}")))


def run_tasks(tasks: Sequence[SweepTask], jobs: int = 1,
              store=None,
              task_timeout: Optional[float] = None) -> List[TaskResult]:
    """Execute tasks and return results in task order.

    ``store`` (a handle or a directory, normalised by
    :func:`~repro.farm.store.as_store`) is the batch's one store:
    ``jobs=1`` installs it in this process for the duration; ``jobs>1``
    forks a :class:`WorkerPool` and installs it once in each worker.
    Tasks use it for every record kind and open no handle of their
    own.  ``store=None`` falls back to the globally installed artifact
    store, so ``set_artifact_store`` + farm runs compose.

    ``task_timeout`` bounds each task's wall-clock.  In worker mode it
    is a hard limit from when a worker takes the task: a task that
    exceeds it is reported ``timed_out`` and only its worker is
    replaced.  In serial mode the limit is cooperative only —
    exploration stops at the deadline; a single non-terminating run is
    bounded by ``max_steps``, not wall-clock.

    Every task's metrics snapshot is merged into the active
    :mod:`repro.obs` context (a ``--trace``/``--metrics`` scope
    around the batch) exactly once, whichever way the tasks ran."""
    tasks = list(tasks)
    submitted = time.monotonic()
    for t in tasks:
        if task_timeout is not None and t.deadline_s is None:
            t.deadline_s = task_timeout
        if t.submitted_m is None:
            t.submitted_m = submitted
    store = as_store(store) if store is not None \
        else get_artifact_store()
    if jobs <= 1 or len(tasks) <= 1:
        previous = set_artifact_store(store)
        try:
            results = [execute_task(t) for t in tasks]
        finally:
            set_artifact_store(previous)
    else:
        pool = WorkerPool(execute_task, min(jobs, len(tasks)), store)
        try:
            futures = [pool.submit(t, timeout=task_timeout)
                       for t in tasks]
            results = []
            for t, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # a hard timeout, a dead worker
                    late = isinstance(exc, TimeoutError)
                    results.append(TaskResult(
                        t.index, t.name, t.kind, ok=False, timed_out=late,
                        error=f"task exceeded {task_timeout:g}s wall-clock"
                        if late else f"worker failure: "
                        f"{type(exc).__name__}: {exc}"))
        finally:
            pool.shutdown()
    ctx = obs.active()
    if ctx is not None:
        for r in results:
            ctx.merge(r.data.get("metrics"))
    return results


def sweep(programs: Iterable, models: Optional[Iterable[str]] = None,
          jobs: int = 1,
          impl: Implementation = LP64,
          mode: str = "run",
          spec: ExploreSpec = ExploreSpec(),
          store=None,
          shard_index: int = 0, shard_count: int = 1,
          lint: bool = False,
          task_timeout: Optional[float] = None) -> List[TaskResult]:
    """Sweep a corpus of C programs across memory object models under
    one ``spec``.

    ``programs`` is an iterable of ``(name, source)`` pairs (bare
    source strings get positional names).  Returns one
    :class:`TaskResult` per (sharded) program, in corpus order.
    ``store`` is the batch's store (see :func:`run_tasks`): with
    ``mode="explore"`` it also holds the exploration records tasks
    publish, reuse and resume; ``lint`` attaches the static findings
    to each task result."""
    model_list = tuple(MODELS) if models is None else tuple(models)
    named = []
    for i, entry in enumerate(programs):
        if isinstance(entry, str):
            named.append((f"program-{i}", entry))
        else:
            name, source = entry
            named.append((str(name), source))
    named = shard_select(named, shard_index, shard_count)
    tasks = [SweepTask(index=i, name=name, kind=mode, source=source,
                       models=model_list, impl=impl, spec=spec,
                       lint=lint)
             for i, (name, source) in enumerate(named)]
    return run_tasks(tasks, jobs=jobs, store=store,
                     task_timeout=task_timeout)
