"""Per-layer tracing from outside the package.

A traced run wraps the public functions at each layer boundary of
``repro`` with spans recorded by this module.  A span is ``[name,
start, end, parent, agg, attrs]``: ``parent`` indexes the enclosing
span, ``agg`` folds hot calls (memory actions) into ``{name: [count,
seconds]}`` instead of one span each, ``attrs`` holds counts.  Spans
stay in memory until the run ends; a CLI child or the daemon dumps
its spans to a file when it exits, and the daemon's forked pool worker
ships a per-task summary back inside the payload's ``metrics`` block.
Times are ``time.monotonic()``, one clock for every process on the
host.  A layer's self time is its span minus its child spans and
folded calls; a job's unaccounted time is the job minus its top-level
spans, so a layer the wrappers miss shows as a gap.

Each layer, its metrics, and the end-to-end metric it should move (on
which workload):

* start-up (``repro.cli`` import): ``cli.import_ms`` -- ``cli_cold``
  ``job_p50_ms`` and ``jobs_per_s``; ``serve_mixed`` ``setup_s``.
* front end (``cpp``, ``cparser``, ``ail``, ``typing``, ``elab``,
  ``core``): ``cpp.preprocess_ms``, ``cparser.parse_ms``,
  ``ail.desugar_ms``, ``typing.typecheck_ms``, ``elab.elaborate_ms``,
  ``core.check_ms``, ``pipeline.translations`` -- ``cli_cold``
  ``job_tail_ms`` and ``job_p50_ms``; ``serve_mixed`` ``job_p50_ms``
  (fresh run jobs); no work on ``explore_deep``.
* lowering (``dynamics.compile``): ``compile.lower_ms``,
  ``compile.lowerings`` -- ``cli_cold`` ``job_p50_ms``, ``job_tail_ms``.
* single runs (``dynamics.driver``): ``driver.run_ms``,
  ``driver.steps`` -- ``cli_cold`` and ``serve_mixed`` ``job_p50_ms``;
  no work on ``explore_deep``.
* memory models (``memory``): ``memory.model_new_ms``,
  ``memory.actions``, ``memory.action_ms`` -- ``explore_deep``
  ``job_p50_ms`` (a fresh model per path); ``serve_mixed``
  ``job_tail_ms``.
* explorer (``dynamics.explore``): ``explore.paths``, ``.path_ms``,
  ``.self_ms``, ``.branch_ms``, ``.children``, ``.frontier_peak``,
  ``.replay_ratio`` -- ``explore_deep`` ``jobs_per_s``,
  ``job_p50_ms``, and ``peak_rss_mb`` (through the children and the
  frontier); ``serve_mixed`` ``job_tail_ms`` (many short paths); no
  work on ``cli_cold``.
* stores (``farm.store``, ``farm.explorestore``): ``store.stats_ms``,
  ``.stats_calls``, ``.get_ms``, ``.put_ms``, ``.entries`` --
  ``serve_mixed`` ``job_p50_ms``, ``job_tail_ms``, ``jobs_per_s``.
* worker (``farm.pool``): ``pool.task_ms`` -- ``serve_mixed``
  ``job_p50_ms``.
* daemon (``farm.server``, ``farm.client``): ``server.overhead_ms``,
  ``.persist_ms``, ``.cache_hit_share`` -- ``serve_mixed``
  ``job_p50_ms``, ``jobs_per_s``, ``peak_rss_mb``.
* the whole job: ``job.unaccounted_ms`` -- any gap the wrappers miss.

Units: ``*_ms`` are mean milliseconds per job of the layer's self time
at reference speed (scaled by the traced jobs' median factor, see
:mod:`hostspeed`),
except ``cli.import_ms`` (per import), ``explore.path_ms`` (per
explored path, whole path) and ``pool.task_ms`` / ``server.overhead_ms``
(per computed job).  Counts are means per job; ``explore.frontier_peak``
is the mean over exploring jobs of their largest frontier;
``explore.replay_ratio`` is replayed steps over all steps of explored
paths (a path replays its prefix from ``main``); ``store.entries`` is
the store's size when the run ends; ``server.persist_ms`` is the
daemon's own store writes (the worker's are ``store.put_ms``).
"""

from __future__ import annotations

import bisect
import functools
import json
import time

now = time.monotonic

#: The per-layer metrics a traced run reports, with their units.
UNITS = {
    "cli.import_ms": "ms",
    "cpp.preprocess_ms": "ms", "cparser.parse_ms": "ms",
    "ail.desugar_ms": "ms", "typing.typecheck_ms": "ms",
    "elab.elaborate_ms": "ms", "core.check_ms": "ms",
    "pipeline.translations": "count",
    "compile.lower_ms": "ms", "compile.lowerings": "count",
    "driver.run_ms": "ms", "driver.steps": "count",
    "memory.model_new_ms": "ms", "memory.actions": "count",
    "memory.action_ms": "ms",
    "explore.paths": "count", "explore.path_ms": "ms",
    "explore.self_ms": "ms", "explore.branch_ms": "ms",
    "explore.children": "count", "explore.frontier_peak": "count",
    "explore.replay_ratio": "ratio",
    "store.stats_ms": "ms", "store.stats_calls": "count",
    "store.get_ms": "ms", "store.put_ms": "ms", "store.entries": "count",
    "pool.task_ms": "ms",
    "server.overhead_ms": "ms", "server.persist_ms": "ms",
    "server.cache_hit_share": "ratio",
    "job.unaccounted_ms": "ms",
    "trace.overhead.job_p50_ms": "ms",
    "trace.overhead.job_tail_ms": "ms",
    "trace.overhead.jobs_per_s": "1/s",
}

#: Span name of each front-end, lowering and store metric.
SELF_TIMES = {
    "cpp.preprocess_ms": "cpp.preprocess",
    "cparser.parse_ms": "cparser.parse",
    "ail.desugar_ms": "ail.desugar",
    "typing.typecheck_ms": "typing.typecheck",
    "elab.elaborate_ms": "elab.elaborate",
    "core.check_ms": "core.check",
    "compile.lower_ms": "compile.lower",
    "driver.run_ms": "driver.run",
    "memory.model_new_ms": "memory.model_new",
    "explore.self_ms": "explore",
    "explore.branch_ms": "explore.branch",
    "store.stats_ms": "store.stats",
    "store.get_ms": "store.get",
    "store.put_ms": "store.put",
    "server.persist_ms": "server.persist",
}

NAME, T0, T1, PARENT, AGG, ATTRS = range(6)


class Tracer:
    """An in-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.explore = None        # frontier state of the open explore
        self.driver = None         # the driver whose run is open
        self.replay_mark = 0       # its steps when the prefix ran out

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, now(), 0.0, parent, None, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[T1] = now()
        if attrs:
            span[ATTRS] = attrs
        self.stack.pop()

    def fold(self, name: str, seconds: float) -> None:
        """Add one hot call to the innermost open span."""
        if not self.stack:
            return
        span = self.spans[self.stack[-1]]
        agg = span[AGG]
        if agg is None:
            agg = span[AGG] = {}
        entry = agg.get(name)
        if entry is None:
            agg[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


# -- summaries ----------------------------------------------------------------


def empty_summary() -> dict:
    return {"self": {}, "dur": {}, "agg": {}, "attr": {}, "max": {},
            "top": 0.0}


def _add(table: dict, name: str, count: float, seconds: float) -> None:
    entry = table.get(name)
    if entry is None:
        table[name] = [count, seconds]
    else:
        entry[0] += count
        entry[1] += seconds


def summarize(spans, keep=None) -> dict:
    """Fold a span list into per-name self time, duration, folded
    calls and counts.  ``keep`` selects span indices (all by default);
    a kept span whose parent is not kept counts as top-level."""
    indices = range(len(spans)) if keep is None else keep
    kept = set(indices)
    child = {}
    for i in kept:
        parent = spans[i][PARENT]
        if parent in kept:
            child[parent] = child.get(parent, 0.0) + \
                spans[i][T1] - spans[i][T0]
    out = empty_summary()
    for i in indices:
        name, t0, t1, parent, agg, attrs = spans[i]
        dur = t1 - t0
        folded = 0.0
        for key, (count, seconds) in (agg or {}).items():
            _add(out["agg"], key, count, seconds)
            folded += seconds
        _add(out["self"], name, 1, dur - child.get(i, 0.0) - folded)
        _add(out["dur"], name, 1, dur)
        for key, value in (attrs or {}).items():
            if key.endswith("_peak"):
                out["max"][key] = max(out["max"].get(key, 0), value)
            else:
                out["attr"][key] = out["attr"].get(key, 0) + value
        if parent not in kept:
            out["top"] += dur
    return out


def merge(a: dict, b: dict) -> dict:
    for table in ("self", "dur", "agg"):
        for name, (count, seconds) in b[table].items():
            _add(a[table], name, count, seconds)
    for key, value in b["attr"].items():
        a["attr"][key] = a["attr"].get(key, 0) + value
    for key, value in b["max"].items():
        a["max"][key] = max(a["max"].get(key, 0), value)
    a["top"] += b["top"]
    return a


# -- wrappers -----------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


def install(tracer: Tracer, daemon: bool = False) -> None:
    """Wrap every layer boundary of the imported ``repro`` package.

    With ``daemon`` the store and worker boundaries are wrapped too:
    in the forked worker each task is a ``pool.task`` span whose
    summary rides back in the payload."""
    import repro.cpp.preprocessor as cpp
    import repro.dynamics.compile.lower as lower
    import repro.dynamics.driver as driver
    import repro.dynamics.explore.engine as engine
    import repro.pipeline as pipeline

    cpp.preprocess = _spanned(tracer, "cpp.preprocess", cpp.preprocess)
    for attr, name in (("parse_tokens", "cparser.parse"),
                       ("desugar", "ail.desugar"),
                       ("typecheck", "typing.typecheck"),
                       ("elaborate", "elab.elaborate"),
                       ("typecheck_program", "core.check")):
        setattr(pipeline, attr,
                _spanned(tracer, name, getattr(pipeline, attr)))
    lower.lower_program = _spanned(tracer, "compile.lower",
                                   lower.lower_program)
    program_cls = pipeline.CompiledProgram
    program_cls.make_model = _spanned(tracer, "memory.model_new",
                                      program_cls.make_model)

    run = driver.Driver.run

    @functools.wraps(run)
    def driver_run(self, entry="main", args=None):
        state = tracer.explore
        outer, tracer.driver = tracer.driver, self
        tracer.replay_mark = 0
        index = tracer.begin("explore.path" if state is not None
                             else "driver.run")
        try:
            return run(self, entry, args)
        finally:
            if state is None:
                tracer.end(index, steps=self.steps)
            else:
                replayed = tracer.replay_mark if self.oracle.path else 0
                tracer.end(index, path_steps=self.steps,
                           replayed_steps=replayed)
                state[0] -= 1          # the explorer popped this node
            tracer.driver = outer

    driver.Driver.run = driver_run

    do_action = driver.Driver._do_action

    @functools.wraps(do_action)
    def action(self, request, thread):
        t0 = now()
        try:
            return do_action(self, request, thread)
        finally:
            tracer.fold("memory.action", now() - t0)

    driver.Driver._do_action = action

    choose = driver.Oracle.choose

    @functools.wraps(choose)
    def oracle_choose(self, tag, n, meta=None):
        if len(self.trace) == len(self.path) - 1 \
                and tracer.driver is not None:
            tracer.replay_mark = tracer.driver.steps
        return choose(self, tag, n, meta)

    driver.Oracle.choose = oracle_choose

    explorer_run = engine.Explorer.run

    @functools.wraps(explorer_run)
    def explore(self):
        outer = tracer.explore
        roots = len(self.initial or ()) or 1
        state = tracer.explore = [roots, roots]   # frontier size, peak
        index = tracer.begin("explore")
        try:
            return explorer_run(self)
        finally:
            tracer.end(index, frontier_peak=state[1])
            tracer.explore = outer

    engine.Explorer.run = explore

    branches = engine.generate_branches

    @functools.wraps(branches)
    def generate_branches(*args, **kwargs):
        index = tracer.begin("explore.branch")
        points = []
        try:
            points = branches(*args, **kwargs)
            return points
        finally:
            children = sum(len(point) for point in points)
            tracer.end(index, children=children)
            state = tracer.explore
            if state is not None:
                state[0] += children
                state[1] = max(state[1], state[0])

    engine.generate_branches = generate_branches

    if daemon:
        _install_daemon(tracer)


def _install_daemon(tracer: Tracer) -> None:
    import repro.farm.server as server
    import repro.farm.store as store

    cls = store.ArtifactStore
    cls.stats = _spanned(tracer, "store.stats", cls.stats)
    cls.get = _spanned(tracer, "store.get", cls.get)
    cls.get_record = _spanned(tracer, "store.get", cls.get_record)
    cls.put = _spanned(tracer, "store.put", cls.put)
    cls.put_record = _spanned(tracer, "store.put", cls.put_record)

    execute = server._execute_job

    @functools.wraps(execute)
    def execute_job(spec_dict, explore_dir, deadline_s):
        # Runs in the forked worker: its spans are summarized per task
        # into the payload.
        tracer.reset()
        index = tracer.begin("pool.task")
        try:
            payload = execute(spec_dict, explore_dir, deadline_s)
        finally:
            tracer.end(index)
        payload.setdefault("metrics", {})["perfbench"] = \
            summarize(tracer.spans)
        tracer.reset()
        return payload

    server._execute_job = execute_job


# -- per-layer metrics of a traced run ----------------------------------------


def attribute(spans, results) -> None:
    """Merge a daemon's spans into the jobs whose client-side window
    (submit to reply) contains them; spans between jobs belong to
    none."""
    if not spans:
        return
    for span in spans:
        if span[NAME] == "store.put":
            span[NAME] = "server.persist"   # the daemon's own writes
    windows = sorted((r.extra["window"][0], r.extra["window"][1], k)
                     for k, r in enumerate(results))
    starts = [w[0] for w in windows]
    roots, owned = [], {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(i if parent is None else roots[parent])
        if parent is None:
            j = bisect.bisect_right(starts, span[T0]) - 1
            if j >= 0 and span[T1] <= windows[j][1]:
                owned[i] = windows[j][2]
    per_job = {}
    for i, root in enumerate(roots):
        if root in owned:
            per_job.setdefault(owned[root], []).append(i)
    for k, indices in per_job.items():
        merge(results[k].summary, summarize(spans, keep=indices))


def layer_metrics(workload, results) -> dict:
    """Means per job of every layer's self time and counts (see the
    module docstring for the units)."""
    for r in results:
        if r.summary is None:
            r.summary = empty_summary()
    daemon = getattr(workload, "spans", None) or []
    attribute(daemon, results)
    n = len(results)
    total = empty_summary()
    for r in results:
        merge(total, r.summary)

    def per_job(table, name, index):
        return total[table].get(name, [0, 0.0])[index] / n

    imports = [s[T1] - s[T0] for s in daemon if s[NAME] == "cli.import"]
    count, seconds = total["dur"].get("cli.import", [0, 0.0])
    if getattr(workload, "import_s", None) is not None:
        imports.append(workload.import_s)
    metrics = {"cli.import_ms": 1000.0 * (seconds + sum(imports))
               / max(1, count + len(imports))}
    for metric, name in SELF_TIMES.items():
        metrics[metric] = 1000.0 * per_job("self", name, 1)
    paths, path_s = total["dur"].get("explore.path", [0, 0.0])
    exploring = [r.summary["max"]["frontier_peak"] for r in results
                 if "frontier_peak" in r.summary["max"]]
    steps = total["attr"].get("path_steps", 0)
    computed = [r for r in results if r.extra.get("task_s") is not None]
    metrics.update({
        "pipeline.translations": per_job("dur", "cpp.preprocess", 0),
        "compile.lowerings": per_job("dur", "compile.lower", 0),
        "driver.steps": total["attr"].get("steps", 0) / n,
        "memory.actions": per_job("agg", "memory.action", 0),
        "memory.action_ms": 1000.0 * per_job("agg", "memory.action", 1),
        "explore.paths": paths / n,
        "explore.path_ms": 1000.0 * path_s / paths if paths else 0.0,
        "explore.children": total["attr"].get("children", 0) / n,
        "explore.frontier_peak": sum(exploring) / len(exploring)
        if exploring else 0.0,
        "explore.replay_ratio": total["attr"].get("replayed_steps", 0)
        / steps if steps else 0.0,
        "store.stats_calls": per_job("dur", "store.stats", 0),
        "store.entries": getattr(workload, "entries", 0),
        "pool.task_ms": 1000.0 * sum(r.extra["task_s"] for r in computed)
        / len(computed) if computed else 0.0,
        "server.overhead_ms": 1000.0 * sum(
            r.latency_s - r.extra["task_s"] for r in computed)
        / len(computed) if computed else 0.0,
        "server.cache_hit_share": sum(bool(r.extra.get("cached"))
                                      for r in results) / n,
        "job.unaccounted_ms": 1000.0 * sum(
            r.latency_s - r.summary["top"] for r in results) / n,
    })
    return metrics
