"""Farm-sharded frontier exploration: one program's state space split
across worker processes.

Exploration is a tree of oracle choice prefixes, and every subtree is
independent — a prefix fully determines its replay.  So the frontier
parallelises the same way corpora do:

1. a *seeding* phase runs the explorer in-process with the ``bfs``
   strategy until the frontier is wide enough (``jobs *
   frontier_factor`` pending prefixes), producing balanced, shallow
   subtrees;
2. each pending :class:`~repro.dynamics.explore.PathNode` (prefix +
   POR sleep set — plain picklable tuples) becomes an
   ``"explore_shard"`` :class:`~repro.farm.pool.SweepTask` dispatched
   through :func:`~repro.farm.pool.run_tasks`, sharing the artifact
   store so workers skip the front end;
3. shard results merge into one
   :class:`~repro.dynamics.explore.ExplorationResult`:
   outcomes concatenate (each shard pre-deduplicates and strips
   traces), ``paths_run``/``pruned``/``diverged`` sum — seeding plus
   shards pop exactly the nodes a serial run would, so when no budget
   is hit the totals equal a serial exploration's — and the merge is
   ``exhausted`` only when the seed phase and every shard were, with
   no worker failures.

The global ``max_paths`` budget is split evenly across shards
(ceiling), which bounds the merged total near the serial budget but
makes the split a *per-shard* budget: one unbalanced subtree can hit
its slice (marking the merge non-exhausted) while sibling shards
leave theirs unused — unlike a serial run, which would have spent the
idle budget on the deep subtree.  When an exploration comes back
non-exhausted with ``paths_run`` well under ``max_paths``, re-run
with a larger budget (or more ``frontier_factor`` subtrees, which
shrinks and rebalances the slices).  ``deadline_s`` is likewise one
wall-clock budget: shards receive only what the seeding phase left.

``explore_store=`` makes the whole farm exploration incremental
(:mod:`repro.farm.explorestore`): a complete record for the program's
exploration space returns with **zero** paths re-run; an interrupted
campaign — deadline, per-shard budget, worker timeout or kill —
persists the surviving frontier (un-mined shard roots plus every
shard's unexplored remainder) together with the accounting so far;
and with ``resume=True`` a later call skips seeding entirely and
dispatches the persisted frontier straight to the shards, merging to
exactly what an uninterrupted serial run would have produced.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

from .. import obs
from ..ctypes.implementation import Implementation, LP64
from ..dynamics.explore import (
    ExplorationResult, Explorer, PathNode, driver_factory,
)
from ..pipeline import compile_for_model
from ..spec import ExploreSpec
from .explorestore import (
    ExplorationRecord, ExploreStore, plan_cached,
)
from .pool import SweepTask, run_tasks


def explore_farm(source: str,
                 model: str = "provenance",
                 impl: Implementation = LP64,
                 spec: ExploreSpec = ExploreSpec(),
                 jobs: int = 1,
                 store=None,
                 explore_store=None,
                 resume: bool = True,
                 deadline_s: Optional[float] = None,
                 frontier_factor: int = 4,
                 name: str = "<string>",
                 task_timeout: Optional[float] = None
                 ) -> ExplorationResult:
    """Explore one program's state space under ``spec`` across
    ``jobs`` farm workers.

    ``jobs <= 1`` degrades to a plain in-process
    :meth:`~repro.pipeline.CompiledProgram.explore` — one code path
    for every caller.  Otherwise the frontier is seeded
    breadth-first, split into per-prefix shard tasks (each running
    ``spec`` on its subtree), and the shard results merged with
    correct ``exhausted``/``paths_run`` accounting.  ``store`` is the
    compiled-artifact store workers share; ``explore_store`` persists
    the exploration itself (warm hit = zero paths re-run,
    interruption = resumable frontier) under the same record key as
    the serial seam."""
    program = compile_for_model(source, model, impl, name=name)
    es = None if explore_store is None \
        else ExploreStore.wrap(explore_store)
    if jobs <= 1:
        return program.explore(model, spec, deadline_s=deadline_s,
                               store=es, resume=resume, name=name)
    key = None
    if es is not None:
        key = es.key(source, program.impl, model, name, spec)
    if spec.static_prune:
        # Seeding and shards must resolve choice points alike, or
        # replayed prefixes would diverge: the same annotations.
        program.statics(es, name=name)
    max_paths = spec.max_paths
    make_driver = driver_factory(
        program.core, lambda: program.make_model(model, spec), spec)

    ctx = obs.active()
    with obs.maybe_span(ctx, "explore_farm", jobs=jobs, model=model):
        start = time.monotonic()
        base: Optional[ExplorationResult] = None
        frontier: List[PathNode] = []
        recorded_paths = 0  # paths served from the record, not run live
        # One shared reuse rule with the serial seam: an unusable
        # fuller record is neither served nor clobbered (publish=False).
        rec, publish = plan_cached(es, key, max_paths) \
            if es is not None else (None, True)
        if rec is not None and rec.complete:
            return rec.to_result()      # zero paths re-run
        resumed = rec is not None and resume
        if resumed:
            # Skip seeding: the persisted frontier is already an exact
            # cut through the exploration tree; dispatch it straight
            # to shards.
            base = rec.to_result()
            recorded_paths = base.paths_run
            frontier = list(rec.frontier)
        else:
            seeder = Explorer(make_driver, replace(spec, strategy="bfs"),
                              deadline_s=deadline_s,
                              frontier_target=max(
                                  2, jobs * frontier_factor),
                              requeue_interrupted=es is not None)
            base = seeder.run()
            frontier = seeder.pending
            if not frontier:
                # Seeding already finished (or truncated) the space.
                if es is not None:
                    es.note_live(base.paths_run)
                    if publish:
                        es.put(key, ExplorationRecord.from_result(
                            base, budget=max_paths))
                return base

        remaining = max_paths - base.paths_run
        shard_deadline = deadline_s
        if deadline_s is not None:
            # deadline_s is one wall-clock budget for the whole
            # exploration: shards only get what seeding left of it.
            shard_deadline = deadline_s - (time.monotonic() - start)
        if remaining <= 0 or \
                (shard_deadline is not None and shard_deadline <= 0):
            # Budget spent before any shard could run.  A fresh
            # seeding phase persists its frontier (resumable) and
            # counts its live paths; a resumed record that ran nothing
            # is neither re-stored (byte-identical) nor counted as a
            # resume.
            if es is not None and not resumed:
                es.note_live(base.paths_run)
                if publish:
                    es.put(key, ExplorationRecord.from_result(
                        base, frontier, budget=max_paths))
            base.exhausted = False
            return base
        if resumed:
            es.note_resume()
        per_shard = -(-remaining // len(frontier))      # ceiling split
        shard_spec = replace(spec, max_paths=per_shard)
        tasks = [SweepTask(index=i, name=f"{name}#shard{i}",
                           kind="explore_shard", source=source,
                           models=(model,), impl=impl,
                           spec=shard_spec,
                           deadline_s=shard_deadline,
                           prefix=tuple(node.choices),
                           sleep=tuple(node.sleep),
                           requeue_interrupted=es is not None)
                 for i, node in enumerate(frontier)]
        if ctx is not None:
            ctx.inc("farm.shards", len(tasks))
        results = run_tasks(tasks, jobs=jobs, store=store,
                            task_timeout=task_timeout)
        parts: List[ExplorationResult] = [base]
        leftover: List[PathNode] = []
        all_ok = True
        for task, r in zip(tasks, results):
            shard = r.data.get("shard") if r.ok else None
            if shard is None:
                # Worker died or timed out hard: its partial work is
                # lost and uncounted, so the whole subtree root goes
                # back on the frontier — a resume re-mines it from
                # scratch.
                all_ok = False
                if ctx is not None:
                    ctx.inc("farm.shard_requeues")
                leftover.append(PathNode(tuple(task.prefix),
                                         tuple(task.sleep)))
                continue
            parts.append(shard)
            leftover.extend(
                PathNode(tuple(choices), tuple(sleep))
                for choices, sleep in r.data.get("pending", ()))
        merged = ExplorationResult.merge(parts)
        if not all_ok:
            merged.exhausted = False
        if es is not None:
            es.note_live(merged.paths_run - recorded_paths)
            if publish:
                es.put(key, ExplorationRecord.from_result(
                    merged, leftover, budget=max_paths))
        return merged
