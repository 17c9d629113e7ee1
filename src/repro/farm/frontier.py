"""Farm-sharded frontier exploration: one program's state space split
across worker processes.

Exploration is a tree of oracle choice prefixes, and every subtree is
independent — a prefix fully determines its replay.  So the frontier
parallelises the same way corpora do:

1. while there are fewer than ``jobs * FRONTIER_FACTOR`` roots (one,
   fresh; a persisted frontier, resumed), a *seeding* phase runs the
   explorer in-process with the ``bfs`` strategy from those roots
   until the frontier is that wide, producing balanced, shallow
   subtrees; a wider frontier is dispatched as it is;
2. each pending :class:`~repro.dynamics.explore.PathNode` (prefix +
   POR sleep set) becomes an ``"explore_shard"``
   :class:`~repro.farm.pool.SweepTask` dispatched through
   :func:`~repro.farm.pool.run_tasks`, sharing the caller's store so
   workers skip the front end; each shard answers with an
   :class:`~repro.farm.explorestore.ExplorationRecord` — the form
   the store persists, its unexplored remainder as
   ``PathNode`` values, flips included;
3. shard records merge into one
   :class:`~repro.dynamics.explore.ExplorationResult`:
   outcomes concatenate (each shard pre-deduplicates and strips
   traces), ``paths_run``/``pruned``/``diverged`` sum — seeding plus
   shards pop exactly the nodes a serial run would, so when no budget
   is hit the totals equal a serial exploration's — and the merge is
   ``exhausted`` only when no part lost a subtree and no node is left
   over (a shard's remainder, or the root of a shard whose worker
   died or overran its hard timeout).  A shard whose program raised
   fails the whole exploration with that error
   (:class:`~repro.farm.pool.TaskFailure`), as the same path does in
   a serial run.

The global ``max_paths`` budget is split evenly across shards
(ceiling), which bounds the merged total near the serial budget but
makes the split a *per-shard* budget: one unbalanced subtree can hit
its slice (marking the merge non-exhausted) while sibling shards
leave theirs unused — unlike a serial run, which would have spent the
idle budget on the deep subtree.  When an exploration comes back
non-exhausted with ``paths_run`` well under ``max_paths``, re-run
with a larger budget: with a store the re-run resumes the
leftover subtrees.  ``deadline_s`` is likewise one wall-clock budget:
shards receive only what the seeding phase left.

The walk runs inside :func:`repro.dynamics.explore.explore_space`,
the same record lifecycle as an in-process exploration, so
``store=`` makes the whole farm exploration incremental under the
same record key as the serial seam: a complete record
returns with **zero** paths re-run; an interrupted campaign —
deadline, per-shard budget, worker timeout or kill — persists the
surviving frontier (un-mined shard roots plus every shard's
unexplored remainder) together with the accounting so far; and a
later call resumes that frontier, merging to exactly what an
uninterrupted serial run would have produced.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

from .. import obs
from ..ctypes.implementation import Implementation, LP64
from ..dynamics.explore import (
    ExplorationResult, Explorer, PathNode, driver_factory, explore_space,
)
from ..pipeline import compile_for_model
from ..spec import ExploreSpec
from .explorestore import exploration_key
from .pool import SweepTask, TaskFailure, run_tasks
from .store import as_store

#: Seed until there are this many roots per worker.
FRONTIER_FACTOR = 4


def explore_farm(source: str,
                 model: str = "provenance",
                 impl: Implementation = LP64,
                 spec: ExploreSpec = ExploreSpec(),
                 jobs: int = 1,
                 store=None,
                 deadline_s: Optional[float] = None,
                 name: str = "<string>",
                 task_timeout: Optional[float] = None
                 ) -> ExplorationResult:
    """Explore one program's state space under ``spec`` across
    ``jobs`` farm workers.

    ``jobs <= 1`` degrades to a plain in-process
    :meth:`~repro.pipeline.CompiledProgram.explore` — one code path
    for every caller.  Otherwise the frontier is seeded
    breadth-first, split into per-prefix shard tasks (each running
    ``spec`` on its subtree), and the shard records merged with
    correct ``exhausted``/``paths_run`` accounting.  ``store`` (a
    handle or a directory) is the one store of the exploration: the
    shard workers install it for their compiled artifacts, and it
    persists the exploration itself (warm hit = zero paths re-run,
    interruption = resumable frontier) under the same record key as
    the serial seam.  Without it the shards fall back to the
    installed store (:func:`~repro.farm.pool.run_tasks`) and the
    exploration persists nothing."""
    store = as_store(store)
    program = compile_for_model(source, model, impl, name=name)
    if jobs <= 1:
        return program.explore(model, spec, deadline_s=deadline_s,
                               store=store, name=name)
    key = None
    if store is not None:
        key = exploration_key(store, source, program.impl, model, name,
                              spec)
    if spec.static_prune:
        # Seeding and shards must resolve choice points alike, or
        # replayed prefixes would diverge: the same annotations.
        program.statics(store, name=name)
    make_driver = driver_factory(
        program.core, lambda: program.make_model(model, spec), spec)
    ctx = obs.active()

    def walk(budget: ExploreSpec, roots: Optional[List[PathNode]],
             requeue: bool):
        start = time.monotonic()
        roots = roots or [PathNode()]
        seeded = ExplorationResult()
        if len(roots) < jobs * FRONTIER_FACTOR:
            seeder = Explorer(make_driver, replace(budget, strategy="bfs"),
                              deadline_s, roots,
                              frontier_target=jobs * FRONTIER_FACTOR,
                              requeue_interrupted=requeue)
            seeded = seeder.run()
            roots = seeder.pending
        remaining = budget.max_paths - seeded.paths_run
        shard_deadline = deadline_s
        if deadline_s is not None:
            # deadline_s is one wall-clock budget for the whole
            # exploration: shards only get what seeding left of it.
            shard_deadline = deadline_s - (time.monotonic() - start)
        if not roots or remaining <= 0 or \
                (shard_deadline is not None and shard_deadline <= 0):
            # Seeding finished the space, or spent the budget before
            # any shard could run.
            if roots:
                seeded.exhausted = False
            return seeded, lambda: roots
        per_shard = -(-remaining // len(roots))         # ceiling split
        shard_spec = replace(budget, max_paths=per_shard)
        # Shards compile under the program's own name: source
        # locations embed it, so a UB site reads the same in every
        # shard as in the seeding phase and a serial run.
        tasks = [SweepTask(index=i, name=name,
                           kind="explore_shard", source=source,
                           models=(model,), impl=impl,
                           spec=shard_spec,
                           deadline_s=shard_deadline,
                           prefix=tuple(node.choices),
                           sleep=tuple(node.sleep),
                           requeue_interrupted=requeue)
                 for i, node in enumerate(roots)]
        if ctx is not None:
            ctx.inc("farm.shards", len(tasks))
        results = run_tasks(tasks, jobs=jobs, store=store,
                            task_timeout=task_timeout)
        parts = [seeded]
        leftover: List[PathNode] = []
        for node, r in zip(roots, results):
            if not r.ok and "metrics" in r.data:
                # The shard ran and its program raised: the
                # exploration fails as a serial one does.  (A worker
                # that died or overran sent no metrics.)
                raise TaskFailure(r.error)
            shard = r.data.get("shard") if r.ok else None
            if shard is None:
                # Worker died or timed out hard: its partial work is
                # lost and uncounted, so the whole subtree root goes
                # back on the frontier — a resume re-mines it from
                # scratch.
                if ctx is not None:
                    ctx.inc("farm.shard_requeues")
                leftover.append(node)
                continue
            parts.append(shard.to_result())
            leftover.extend(shard.frontier)
        merged = ExplorationResult.merge(parts)
        if leftover:
            merged.exhausted = False
        return merged, lambda: leftover

    with obs.maybe_span(ctx, "explore_farm", jobs=jobs, model=model):
        return explore_space(walk, spec, store=store, key=key)
