"""The exploration engine: stateless replay over a strategy-ordered
frontier of oracle choice prefixes.

Each popped :class:`~repro.dynamics.explore.por.PathNode` is re-run on
a fresh driver (and fresh memory model) with an
:class:`~repro.dynamics.driver.Oracle` replaying its prefix; sibling
prefixes come from the run's choice trace
(:func:`~repro.dynamics.explore.por.generate_branches`), all of them
sharing one tuple of the run's choices, so a child costs O(1).  The
per-action event log belongs to POR: the oracle records it only when
``spec.por`` is on.  The engine adds, on top of the historical
replay-DFS:

* pluggable :class:`~repro.dynamics.explore.strategies.SearchStrategy`
  frontier orderings (``dfs``/``bfs``/``random``/``coverage``);
* optional sleep-set partial-order reduction (``por=True``) — runs the
  sleep-aware scheduler aborts are counted as ``pruned``;
* replay-divergence discarding — a run whose replayed prefix no longer
  matches the choice-point arities is counted ``diverged`` and its
  outcome dropped instead of silently mis-replayed;
* a cooperative wall-clock deadline threaded *into* the driver step
  loop, so one long path returns ``status="timeout"`` at the deadline
  instead of blowing a farm task budget;
* mid-flight frontier handoff (``frontier_target``) — the seeding
  phase of farm-sharded exploration stops once the frontier is wide
  enough, and its result's ``frontier`` holds the remaining nodes;
* one record lifecycle (:func:`explore_space`) for every exploration:
  given an artifact store it serves a complete ``"exploration"``
  record with zero paths re-run, resumes a partial one from its
  persisted frontier, and publishes what the walk leaves — an
  unchanged program is never re-explored and an interrupted campaign
  resumes exactly where it stopped (``requeue_interrupted`` puts a
  deadline-aborted path back on the frontier uncounted, keeping
  resumed accounting equal to an uninterrupted run's).  The
  in-process walk (one :class:`Explorer`,
  :meth:`repro.pipeline.CompiledProgram.explore`) and the sharded one
  (:func:`repro.farm.frontier.explore_farm`) differ only in how they
  walk a list of roots.

Every walk returns one :class:`ExplorationResult` carrying the
frontier it left, so a result is never exhausted while nodes remain.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional, Sequence

from ... import obs
from ...spec import ExploreSpec
from ..driver import Driver, Oracle
from .por import PathNode, generate_branches
from .result import ExplorationResult
from .strategies import make_strategy

#: The record kind folded into every exploration content address.
RECORD_KIND = "exploration"


class Explorer:
    """One exploration campaign over a single program + model."""

    def __init__(self, make_driver: Callable[[Oracle], Driver],
                 spec: ExploreSpec = ExploreSpec(),
                 deadline_s: Optional[float] = None,
                 initial: Optional[Sequence[PathNode]] = None,
                 frontier_target: Optional[int] = None,
                 requeue_interrupted: bool = False):
        self.make_driver = make_driver
        self.spec = spec
        self.deadline_s = deadline_s
        self.strategy = make_strategy(spec.strategy, spec.seed)
        self.initial = list(initial) if initial is not None else None
        self.frontier_target = frontier_target
        # Resumable-interruption mode: a path the wall-clock deadline
        # aborted *mid-run* is put back on the frontier uncounted
        # instead of surfacing as a "timeout" outcome, so a later run
        # resuming from the result's frontier replays it in full and
        # the merged accounting equals an uninterrupted run's.
        self.requeue_interrupted = requeue_interrupted
        #: The largest frontier of the last :meth:`run`.
        self.frontier_peak = 0

    def _push_branches(self, node, log, completed, ctx) -> None:
        points = generate_branches(node, log, self.spec.por, completed)
        if ctx is not None and points:
            ctx.inc("explore.choice_points", len(points))
        for point in reversed(points):
            for child in point:
                self.strategy.push(child)

    def run(self) -> ExplorationResult:
        """One enumeration.  With observability on, the whole run is
        an ``explore`` span, per-enumeration counters (paths, pruned,
        diverged, abandoned, requeued, choice points) are recorded,
        the largest frontier of the run is observed
        (``explore.frontier_peak``), and — when tracing to a file — a
        cumulative paths-over-time timeline is sampled (the paths/sec
        curve)."""
        ctx = obs.active()
        if ctx is None:
            return self._run(None)
        with ctx.span("explore", por=self.spec.por,
                      strategy=type(self.strategy).__name__):
            result = self._run(ctx)
        ctx.inc("explore.paths", result.paths_run)
        ctx.inc("explore.pruned", result.pruned)
        ctx.inc("explore.diverged", result.diverged)
        ctx.inc("explore.abandoned", result.abandoned)
        ctx.observe("explore.frontier_peak", self.frontier_peak)
        return result

    def _run(self, ctx) -> ExplorationResult:
        result = ExplorationResult()
        tracer = ctx.tracer if ctx is not None else None
        timeline: List[tuple] = []
        last_sample = -1.0
        deadline = (time.monotonic() + self.deadline_s
                    if self.deadline_s is not None else None)
        roots = self.initial if self.initial is not None \
            else [PathNode()]
        for node in roots:
            if not isinstance(node, PathNode):
                node = PathNode(tuple(node))
            self.strategy.push(node)
        por = self.spec.por
        witnessed = set()           # behaviour keys holding a trace
        self.frontier_peak = len(self.strategy)
        while len(self.strategy):
            if result.paths_run >= self.spec.max_paths or \
                    (deadline is not None and
                     time.monotonic() >= deadline):
                break
            if self.frontier_target is not None and \
                    result.paths_run > 0 and \
                    len(self.strategy) >= self.frontier_target:
                # Wide enough: hand the rest to the caller (the farm
                # dispatches it across shards).
                break
            node = self.strategy.pop()
            oracle = Oracle(node.choices, sleep=node.sleep if por else (),
                            record_events=por)
            driver = self.make_driver(oracle)
            if deadline is not None:
                driver.deadline = deadline   # cooperative in-path stop
            outcome = driver.run(self.spec.entry)
            if (self.requeue_interrupted
                    and outcome.status == "timeout"
                    and deadline is not None
                    and time.monotonic() >= deadline):
                # The deadline fired inside this path: the aborted
                # attempt is not a behaviour.  Normally the node is
                # requeued uncounted so a resumed run replays it from
                # scratch (a genuine max_steps timeout straddling the
                # deadline is re-produced deterministically by the
                # resume).  But when not even one path fit this
                # invocation's deadline, requeueing would livelock
                # every same-deadline resume on the node — instead
                # the path is *abandoned*: counted (progress), no
                # outcome recorded (a deadline-dependent "timeout" is
                # not a behaviour of the program and must never enter
                # a deadline-independent record), its subtree
                # unexplored, the exploration permanently
                # non-exhausted.
                if result.paths_run > 0:
                    result.frontier = self.strategy.drain_interrupted(node)
                    if ctx is not None:
                        ctx.inc("explore.requeued")
                    if tracer is not None and timeline:
                        tracer.emit_timeline("explore.paths", timeline)
                    return result
                result.paths_run += 1
                result.abandoned += 1
                continue
            result.paths_run += 1
            if tracer is not None:
                now = tracer.now()
                if now - last_sample >= 0.05:
                    timeline.append((now, result.paths_run))
                    last_sample = now
            if outcome.diverged:
                # The replayed prefix no longer matches the program's
                # choice arities: the path is stale, not a behaviour —
                # and its subtree is abandoned, so the exploration is
                # no longer complete.
                result.diverged += 1
                continue
            if outcome.status == "pruned":
                result.pruned += 1
            else:
                # Only the first outcome of a behaviour keeps its
                # trace: that behaviour's replayable witness.
                key = ExplorationResult.behaviour_key(outcome)
                if key in witnessed:
                    outcome.trace = []
                else:
                    witnessed.add(key)
                result.outcomes.append(outcome)
            # Deepest point first, alternatives in order: under the
            # LIFO dfs strategy the earliest flip pops next — exactly
            # the historical DFS order.
            self._push_branches(node, oracle.events if por
                                else oracle.trace,
                                outcome.status in ("done", "exit"), ctx)
            if len(self.strategy) > self.frontier_peak:
                self.frontier_peak = len(self.strategy)
        result.frontier = self.strategy.drain()
        if tracer is not None:
            now = tracer.now()
            if not timeline or timeline[-1][1] != result.paths_run:
                timeline.append((now, result.paths_run))
            tracer.emit_timeline("explore.paths", timeline)
        return result


#: ``walk(make_driver, spec, deadline_s, roots, requeue)`` explores the
#: subtrees rooted at ``roots`` (``None``: the whole space) on drivers
#: from ``make_driver``, within ``spec``'s path budget and the
#: wall-clock ``deadline_s``, requeueing a deadline-aborted path when
#: ``requeue``; it returns the result of the walk, frontier included.
Walk = Callable[[Callable[[Oracle], Driver], ExploreSpec,
                 Optional[float], Optional[List[PathNode]], bool],
                ExplorationResult]


def walk_in_process(make_driver: Callable[[Oracle], Driver],
                    spec: ExploreSpec, deadline_s: Optional[float],
                    roots: Optional[List[PathNode]],
                    requeue: bool) -> ExplorationResult:
    """The :data:`Walk` of one in-process :class:`Explorer`."""
    return Explorer(make_driver, spec, deadline_s, roots,
                    requeue_interrupted=requeue).run()


def exploration_key(store, source: str, impl, model: str,
                    name: str = "<string>",
                    spec: ExploreSpec = ExploreSpec()) -> str:
    """The content address of one exploration *space* in ``store``:
    the program (source, implementation, name — source locations
    embed it), the memory model, and :meth:`ExploreSpec.key
    <repro.spec.RunSpec.key>` — every spec field except the path
    budget.  The budget (like ``deadline_s``) decides how much of the
    space one invocation walks, and lives in the record as accounting
    instead.  ``static_prune`` and ``backend`` change which choice
    points exist and who replays them, so a frontier persisted under
    one is never resumed under the other."""
    return store.record_key(RECORD_KIND, source, repr(impl), model,
                            name, spec.key())


def explore_space(program, model: str,
                  spec: ExploreSpec = ExploreSpec(), *,
                  store=None, name: str = "<string>",
                  deadline_s: Optional[float] = None,
                  walk: Walk = walk_in_process) -> ExplorationResult:
    """Explore ``program`` (a :class:`~repro.pipeline.CompiledProgram`)
    under ``model`` and ``spec`` through ``walk`` — the one owner of
    the exploration-record lifecycle.

    Without ``store`` this is one walk of the whole space.  With an
    :class:`~repro.farm.store.ArtifactStore` handle (or a directory to
    open one on) the enumeration is incremental under the space's
    :func:`exploration_key` — this is the only reader and writer of
    ``"exploration"`` records, each the :meth:`ExplorationResult.slim`
    copy of a result:

    * a complete record (no frontier) within the budget is returned
      as-is, **zero** paths re-run;
    * a record covering *more* paths than ``spec.max_paths`` is
      ignored (a warm hit would return behaviours a cold bounded run
      cannot see): the request is walked live, and the fuller record
      is left intact — not clobbered by the smaller result;
    * a partial record is resumed: the walk restarts from its
      persisted frontier with the budget that remains, and the merged
      result (behaviour set *and* accounting) equals an uninterrupted
      run's.  When the record already spends the budget it is
      returned as it stands, exactly like the equivalent cold
      budget-truncated run;
    * whatever was walked is counted (the ``explore.live_paths``
      metric; a resume ticks ``explore.resumes``) and published.

    A walk spends at most ``spec.max_paths`` paths.  A deadline-aborted
    path is requeued exactly when a store is given: only a persisted
    frontier can replay it.  ``name`` is folded into the record key
    (source locations embed it)."""
    base: Optional[ExplorationResult] = None
    roots: Optional[List[PathNode]] = None
    publish = store is not None
    ctx = obs.active()
    if store is not None:
        from ...farm.store import as_store
        store = as_store(store)
        key = exploration_key(store, program.source, program.impl,
                              model, name, spec)
        rec = store.get_record(key, ExplorationResult, kind=RECORD_KIND)
        if rec is not None and rec.paths_run > spec.max_paths:
            rec, publish = None, False
        if rec is not None:
            if not rec.frontier or rec.paths_run >= spec.max_paths:
                return rec
            base = rec
            roots, base.frontier = base.frontier, []
            if ctx is not None:
                ctx.inc("explore.resumes")
        if spec.static_prune:
            # Attach (store-cached) footprint annotations ahead of
            # the driver factory's own ensure_annotated fallback.
            program.statics(store, name=name)
    make_driver = driver_factory(
        program.core, lambda: program.make_model(model, spec), spec)
    budget = spec if base is None \
        else replace(spec, max_paths=spec.max_paths - base.paths_run)
    result = walk(make_driver, budget, deadline_s, roots,
                  store is not None)
    if store is None:
        return result
    if ctx is not None:
        ctx.inc("explore.live_paths", result.paths_run)
    if base is not None:
        result = ExplorationResult.merge([base, result])
    if publish:
        store.put_record(key, result.slim(), kind=RECORD_KIND)
    return result


def driver_factory(program, make_model: Callable[[], object],
                   spec: ExploreSpec) -> Callable[[Oracle], Driver]:
    """Fresh drivers of a *pre-compiled* Core program under ``spec``:
    each call builds a fresh memory model (``make_model()``) and a
    driver with the spec's step budget, back end and static pruning
    (whose :mod:`repro.statics` annotations are attached first)."""
    if spec.static_prune:
        from ...statics import ensure_annotated
        ensure_annotated(program)

    def make_driver(oracle: Oracle) -> Driver:
        return Driver(program, make_model(), oracle, spec)

    return make_driver
