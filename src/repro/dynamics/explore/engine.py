"""The exploration engine: stateless replay over a strategy-ordered
frontier of oracle choice prefixes.

Each popped :class:`~repro.dynamics.explore.por.PathNode` is re-run on
a fresh driver (and fresh memory model) with an
:class:`~repro.dynamics.driver.Oracle` replaying its prefix; sibling
prefixes are generated from the run's recorded choice/action event log
(:func:`~repro.dynamics.explore.por.generate_branches`).  The engine
adds, on top of the historical replay-DFS:

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
  enough and exposes the remaining nodes via :attr:`Explorer.pending`;
* incremental re-exploration (``store=``/``resume=``/``cache_key=`` on
  :func:`explore_all`/:func:`explore_program`, implemented by
  :mod:`repro.farm.explorestore`) — completed results and interrupted
  frontiers persist in the artifact store, so an unchanged program is
  never re-explored and an interrupted campaign resumes exactly where
  it stopped (``requeue_interrupted`` puts a deadline-aborted path
  back on the frontier uncounted, keeping resumed accounting equal to
  an uninterrupted run's).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from ... import obs
from ...spec import ExploreSpec
from ..driver import Driver, Oracle
from .por import PathNode, generate_branches
from .result import ExplorationResult
from .strategies import make_strategy


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
        # resuming from :attr:`pending` replays it in full and the
        # merged accounting equals an uninterrupted run's.
        self.requeue_interrupted = requeue_interrupted
        self._pending: List[PathNode] = []
        # (node, events, completed) of a last path whose siblings are
        # built only when ``pending`` is read.
        self._deferred: Optional[tuple] = None

    @property
    def pending(self) -> List[PathNode]:
        """Nodes left unexplored after :meth:`run` — empty unless a
        budget/deadline was hit or ``frontier_target`` stopped the
        loop for a farm handoff."""
        if self._deferred is not None:
            self._push_branches(*self._deferred, None)
            self._deferred = None
            self._pending = self.strategy.drain()
        return self._pending

    @pending.setter
    def pending(self, nodes: List[PathNode]) -> None:
        self._pending = nodes

    def _push_branches(self, node, events, completed, ctx) -> None:
        points = generate_branches(node, events, self.spec.por,
                                   completed)
        if ctx is not None and points:
            ctx.inc("explore.choice_points", len(points))
        for point in reversed(points):
            for child in point:
                self.strategy.push(child)

    def run(self) -> ExplorationResult:
        """One enumeration.  With observability on, the whole run is
        an ``explore`` span, per-enumeration counters (paths, pruned,
        diverged, abandoned, requeued, choice points) are recorded,
        and — when tracing to a file — a cumulative paths-over-time
        timeline is sampled (the paths/sec curve)."""
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
        while len(self.strategy):
            if result.paths_run >= self.spec.max_paths or \
                    (deadline is not None and
                     time.monotonic() >= deadline):
                result.exhausted = False
                break
            if self.frontier_target is not None and \
                    result.paths_run > 0 and \
                    len(self.strategy) >= self.frontier_target:
                # Wide enough: hand the rest to the caller (the farm
                # dispatches it across shards), exhausted untouched.
                break
            node = self.strategy.pop()
            oracle = Oracle(list(node.choices),
                            sleep=node.sleep if self.spec.por else (),
                            record_events=True)
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
                    result.exhausted = False
                    self.pending = self.strategy.drain_interrupted(node)
                    if ctx is not None:
                        ctx.inc("explore.requeued")
                    if tracer is not None and timeline:
                        tracer.emit_timeline("explore.paths", timeline)
                    return result
                result.paths_run += 1
                result.abandoned += 1
                result.exhausted = False
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
                result.exhausted = False
                continue
            if outcome.status == "pruned":
                result.pruned += 1
            else:
                result.outcomes.append(outcome)
            # Deepest point first, alternatives in order: under the
            # LIFO dfs strategy the earliest flip pops next — exactly
            # the historical DFS order.
            completed = outcome.status in ("done", "exit")
            if result.paths_run >= self.spec.max_paths \
                    and not self.spec.por:
                # The budget is spent, so this path's siblings only
                # matter to a reader of ``pending``: build them then
                # (a deep path has O(depth**2) prefix entries).
                # Without POR every choice point of arity > 1 yields
                # siblings.
                self._deferred = (node, oracle.events, completed)
                fresh = oracle.trace[len(node.choices):]
                if ctx is not None and fresh:
                    ctx.inc("explore.choice_points", len(fresh))
                if any(n > 1 for _tag, n, _c in fresh):
                    result.exhausted = False
                continue
            self._push_branches(node, oracle.events, completed, ctx)
        if self._deferred is None:
            self.pending = self.strategy.drain()
        if tracer is not None:
            now = tracer.now()
            if not timeline or timeline[-1][1] != result.paths_run:
                timeline.append((now, result.paths_run))
            tracer.emit_timeline("explore.paths", timeline)
        return result


def explore_all(make_driver: Callable[[Oracle], Driver],
                spec: ExploreSpec = ExploreSpec(),
                deadline_s: Optional[float] = None,
                initial: Optional[Sequence[PathNode]] = None,
                store=None,
                resume: bool = True,
                cache_key: Optional[str] = None) -> ExplorationResult:
    """Run ``make_driver`` over every oracle path ``spec`` admits (up
    to ``spec.max_paths``, in ``spec.strategy`` order, with sleep-set
    partial-order reduction when ``spec.por``).

    ``make_driver`` must build a *fresh* driver (and fresh memory
    model) for the given oracle — runs are independent replays.
    ``deadline_s`` is a cooperative wall-clock budget for the whole
    enumeration *and* for each path inside it, and ``initial``
    restricts the search to the subtrees rooted at the given prefixes
    (farm shards).

    ``store`` (anything :func:`repro.farm.explorestore.ExploreStore`
    wraps — an ``ExploreStore``, an ``ArtifactStore``, or a directory
    path) plus a ``cache_key`` (see ``ExploreStore.key``) make the
    enumeration *incremental*: a complete record for the key is
    returned with zero paths re-run, an interrupted enumeration
    persists its frontier, and — with ``resume=True`` — a later call
    picks up exactly where it stopped."""
    if store is not None and cache_key is not None:
        if initial is not None:
            raise ValueError("store-backed exploration owns the "
                             "frontier; initial= cannot be combined "
                             "with store=/cache_key=")
        from ...farm.explorestore import ExploreStore, cached_explore
        return cached_explore(make_driver, spec,
                              store=ExploreStore.wrap(store),
                              key=cache_key, resume=resume,
                              deadline_s=deadline_s)
    return Explorer(make_driver, spec, deadline_s=deadline_s,
                    initial=initial).run()


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


def explore_program(program, make_model: Callable[[], object],
                    spec: ExploreSpec = ExploreSpec(),
                    deadline_s: Optional[float] = None,
                    initial: Optional[Sequence[PathNode]] = None,
                    store=None,
                    resume: bool = True,
                    cache_key: Optional[str] = None
                    ) -> ExplorationResult:
    """Enumerate oracle paths of a *pre-compiled* Core program.

    ``program`` is an elaborated :class:`repro.core.ast.Program` and
    ``make_model()`` builds a fresh memory model per path — so path
    enumeration replays execution only; the front end never re-runs.
    ``store``/``resume``/``cache_key`` thread the incremental
    re-exploration seam through (see :func:`explore_all`); the Core
    program itself carries no content address, so the caller supplies
    the key (:meth:`repro.pipeline.CompiledProgram.explore` does).
    ``spec.static_prune`` consumes :mod:`repro.statics` footprint
    annotations: statically-commuting ``unseq`` nodes are never
    branched and sleep sets are seeded from precomputed footprint
    hulls where the event log has no exact transition.
    """
    return explore_all(driver_factory(program, make_model, spec), spec,
                       deadline_s=deadline_s, initial=initial,
                       store=store, resume=resume, cache_key=cache_key)
