"""``repro.obs`` — the observability spine: metrics, tracing, and
profiling hooks across the pipeline, the explorer, the stores, and
the farm.

The ROADMAP's next perf items (an order-of-magnitude step-loop
speedup, a long-lived farm server) need measurement the repo did not
have: where wall-clock goes per pipeline phase, what the store hit
rates are, how many paths/sec the explorer sustains.  This module is
that measurement layer, built on PR 6's proven zero-cost gating
pattern: every instrumented site decides *once* whether anyone is
listening (:func:`active` returning ``None``) and does no other work
when nobody is — ``benchmarks/bench_obs_overhead.py`` pins the
disabled-mode overhead at <= 5% and trips a tripwire if any
instrumentation site records while disabled.

Usage::

    import repro.obs as obs

    with obs.tracing("run.jsonl", identity=source) as ctx:
        repro.run_c(source)          # spans + metrics recorded
    # => run.jsonl (JSON lines), summarise with `cerberus-py stats`

    with obs.collecting() as registry:   # metrics only, no file
        repro.explore_c(source)
    registry.to_dict()

CLI seams: ``cerberus-py file.c --trace FILE --metrics``,
``cerberus-py farm sweep ... --trace FILE``, ``--profile DIR`` (per-
phase cProfile captures), and ``cerberus-py stats FILE`` to render a
trace.  Campaign JSON reports carry the same data as a unified
``metrics`` block.

Trace schema (one JSON object per line, ``"run"`` on every record —
a deterministic hash of the invocation's *identity*, never clock or
RNG, so identical runs produce diffable traces):

* ``{"type": "meta", "schema": 1, "tool": "cerberus-py", "run": R}``
  — first line;
* ``{"type": "span", "name": N, "depth": D, "t0": T, "wall_s": W,
  "cpu_s": C, "attrs": {...}, "run": R}`` — one closed span: ``t0``
  is the start offset from trace start (monotonic), ``wall_s`` /
  ``cpu_s`` the elapsed wall and CPU time, ``depth`` the nesting
  level.  Span names: ``cli.import`` (from when the ``repro``
  package started executing to the end of ``repro.cli``'s import,
  where ``main()`` starts: it began before the trace did, so its
  ``t0`` is negative), ``pipeline.lex`` / ``pipeline.parse`` /
  ``pipeline.desugar`` / ``pipeline.typecheck`` /
  ``pipeline.elaborate`` / ``pipeline.check_core`` /
  ``pipeline.statics`` (front-end phases), ``explore`` (one
  state-space enumeration; attrs carry strategy/por/paths/pruned),
  ``explore_farm`` (a farm-sharded enumeration), ``campaign`` (a
  whole farm campaign);
* ``{"type": "timeline", "name": "explore.paths", "points":
  [[t, n], ...], "run": R}`` — cumulative paths over time, sampled
  while exploring (the paths/sec curve);
* ``{"type": "metrics", "metrics": {"counters": ..., "gauges": ...,
  "histograms": ...}, "run": R}`` — final snapshot, including
  worker-side metrics the farm merged in.  Counter families:
  ``driver.*`` (runs, steps), ``explore.*`` (paths, pruned,
  diverged, abandoned, requeued, choice_points,
  static_prune_skips, resumes, live_paths, shards),
  ``store.<kind>.*`` (hits/misses/stores/corrupt per record kind:
  compiled / exploration / statics), ``store.evictions``,
  ``pipeline.*`` (translations, cache_hits, cache_misses),
  ``farm.*`` (tasks, timeouts, failures), ``server.*`` (the farm
  daemon's ``SERVER_COUNTERS`` and ``errors.<code>``; the daemon
  always counts, its workers' metrics merged in).  A count lives
  nowhere else: the compile cache, the artifact store and the daemon
  keep no tables of their own.  Histograms named
  ``span.<name>`` aggregate span wall-clock (``.cpu`` suffix for CPU
  time) — they carry phase timings across the farm's process
  boundary, where workers collect metrics but do not write trace
  files.

Reading ``cerberus-py stats FILE``: the *phases* table aggregates
span records and ``span.*`` histograms (count / total / mean / max
wall seconds per phase — the biggest ``total`` is where the
wall-clock goes); *stores* shows per-kind hit rates and corruption
counts (a warm campaign shows ``compiled`` and ``exploration`` hit
rates near 1.0); *explorer* shows paths, pruned/diverged/abandoned
accounting, and sustained paths/sec and steps/sec (the step-loop
optimisation target); *timeline* (with ``--json``) is the raw
paths-over-time curve."""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, Optional

from .metrics import MetricsRegistry, merge_metric_dicts
from .trace import TRACE_SCHEMA, Tracer, read_trace, run_id_for

__all__ = [
    "MetricsRegistry", "ObsContext", "Tracer", "TRACE_SCHEMA",
    "active", "collecting", "install", "maybe_span",
    "merge_metric_dicts", "read_trace", "run_id_for", "tracing",
]

#: The active observability context, or ``None`` (the default:
#: instrumentation sites must do no work beyond observing the None).
_ACTIVE: Optional["ObsContext"] = None


def active() -> Optional["ObsContext"]:
    """The installed :class:`ObsContext`, or ``None`` when
    observability is off.  Instrumented sites call this once per
    *coarse* unit of work (a compile phase, a driver run, an
    exploration) — never per step — and bail on ``None``; that check
    is the whole disabled-mode cost."""
    return _ACTIVE


class ObsContext:
    """One observability scope: a metrics registry, optionally a
    tracer (JSON-lines file) and a cProfile capture directory.

    Contexts nest: metric writes propagate to the ``parent`` chain,
    so a farm task's scoped registry feeds the campaign-level
    context too (and the campaign's trace file sees the totals)."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profile_dir=None,
                 parent: Optional["ObsContext"] = None):
        self.tracer = tracer
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.profile_dir = str(profile_dir) \
            if profile_dir is not None else None
        self.parent = parent

    # -- metric emission (propagates up the parent chain) ---------------------

    def inc(self, name: str, n: int = 1) -> None:
        ctx = self
        while ctx is not None:
            ctx.metrics.inc(name, n)
            ctx = ctx.parent

    def gauge(self, name: str, value: float) -> None:
        ctx = self
        while ctx is not None:
            ctx.metrics.gauge(name, value)
            ctx = ctx.parent

    def observe(self, name: str, value: float) -> None:
        ctx = self
        while ctx is not None:
            ctx.metrics.observe(name, value)
            ctx = ctx.parent

    def merge(self, metric_dict: Optional[dict]) -> None:
        """Fold a worker's metrics snapshot into this scope (and its
        parents): the farm's worker-to-parent merge."""
        if not metric_dict:
            return
        ctx = self
        while ctx is not None:
            ctx.metrics.merge_dict(metric_dict)
            ctx = ctx.parent

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, profile: bool = False, **attrs):
        """Measure a named region: wall (``perf_counter``) + CPU
        (``process_time``), recorded as a trace span (when tracing)
        and a ``span.<name>`` histogram (always).  ``profile=True``
        additionally captures a cProfile of the region when the
        context has a ``profile_dir`` — the opt-in per-phase
        profiling hook (``--profile DIR``)."""
        prof = None
        if profile and self.profile_dir is not None:
            import cProfile
            prof = cProfile.Profile()
        depth = None
        t0_rel = 0.0
        if self.tracer is not None:
            depth = self.tracer.depth
            self.tracer.depth += 1
            t0_rel = self.tracer.now()
        w0 = time.perf_counter()
        c0 = time.process_time()
        if prof is not None:
            prof.enable()
        try:
            yield self
        finally:
            if prof is not None:
                prof.disable()
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            self.observe(f"span.{name}", wall)
            self.observe(f"span.{name}.cpu", cpu)
            if self.tracer is not None:
                self.tracer.depth = depth
                self.tracer.emit_span(name, t0_rel, wall, cpu, depth,
                                      attrs or None)
            if prof is not None:
                self._dump_profile(name, prof)

    def add_span(self, name: str, start: float, wall: float,
                 cpu: float) -> None:
        """Record a region measured before this scope opened: it began
        at ``start`` (``perf_counter``), so its trace ``t0`` is
        negative."""
        self.observe(f"span.{name}", wall)
        self.observe(f"span.{name}.cpu", cpu)
        if self.tracer is not None:
            t0_rel = self.tracer.now() - (time.perf_counter() - start)
            self.tracer.emit_span(name, t0_rel, wall, cpu,
                                  self.tracer.depth, None)

    def _dump_profile(self, name: str, prof) -> None:
        """Persist one phase capture: binary ``.pstats`` (load with
        :mod:`pstats`) plus a human-readable top-25-by-cumulative
        ``.txt`` next to it, numbered after the captures already in the
        directory (the scopes that share it never overwrite one)."""
        import io
        import pstats
        from pathlib import Path
        directory = Path(self.profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in name)
        seq = len(list(directory.glob("*.pstats"))) + 1
        base = directory / f"{seq:03d}-{safe}"
        prof.dump_stats(str(base) + ".pstats")
        out = io.StringIO()
        stats = pstats.Stats(prof, stream=out)
        stats.sort_stats("cumulative").print_stats(25)
        (Path(str(base) + ".txt")).write_text(out.getvalue())


@contextlib.contextmanager
def install(ctx: ObsContext) -> Iterator[ObsContext]:
    """Make ``ctx`` the active context for the ``with`` block (the
    farm daemon keeps its one scope installed for its whole life)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = previous


@contextlib.contextmanager
def tracing(path=None, identity: str = "",
            profile_dir=None) -> Iterator[ObsContext]:
    """Install an observability context for the duration of the
    ``with`` block: metrics always collected; ``path`` additionally
    writes a JSON-lines trace there (closed with a final metrics
    record); ``profile_dir`` turns on per-phase cProfile captures.
    ``identity`` should name the invocation's *content* (source text
    + semantic flags) — the trace run id is a hash of it, so
    identical invocations produce diffable traces.  Nested uses chain
    (metrics propagate to the outer scope)."""
    tracer = Tracer(path, identity) if path is not None else None
    ctx = ObsContext(tracer=tracer, profile_dir=profile_dir,
                     parent=_ACTIVE)
    try:
        with install(ctx):
            yield ctx
    finally:
        if tracer is not None:
            tracer.close(ctx.metrics.to_dict())


@contextlib.contextmanager
def collecting() -> Iterator[MetricsRegistry]:
    """Install a scope with its own metrics and yield its registry —
    the farm uses this around each task to collect the per-task
    metrics it ships back to the parent.  The metrics are *isolated*
    (writes do not propagate to any enclosing context): the snapshot
    travels to the parent explicitly — over IPC for farm workers, via
    :meth:`ObsContext.merge` in the campaign — so serial and forked
    execution produce identical totals, counted once.  The enclosing
    scope's tracer and profile directory carry over: a task run
    in-process writes its spans and captures where its invocation
    does (a forked worker starts with :func:`reset`)."""
    registry, outer = MetricsRegistry(), _ACTIVE
    ctx = ObsContext(metrics=registry)
    if outer is not None:
        ctx.tracer, ctx.profile_dir = outer.tracer, outer.profile_dir
    with install(ctx):
        yield registry


def reset() -> None:
    """Drop any installed context (forked farm workers call this so a
    child never inherits — and double-writes — the parent's trace)."""
    global _ACTIVE
    _ACTIVE = None


def maybe_span(ctx: Optional[ObsContext], name: str,
               profile: bool = False, **attrs):
    """``ctx.span(...)`` when observability is on, a no-op context
    otherwise — lets instrumentation sites stay one-liners."""
    if ctx is None:
        return contextlib.nullcontext()
    return ctx.span(name, profile=profile, **attrs)
