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
2. the path budget seeding left is dealt exactly: each of the first
   ``min(roots, budget)`` pending
   :class:`~repro.dynamics.explore.PathNode` values (prefix + POR
   sleep set) becomes an ``"explore_shard"``
   :class:`~repro.farm.pool.SweepTask` with an even share of it,
   dispatched through :func:`~repro.farm.pool.run_tasks` with the
   caller's store so workers skip the front end; a root dealt no path
   stays on the frontier.  Each shard answers with the slim
   :class:`~repro.dynamics.explore.ExplorationResult` of its subtree,
   its unexplored remainder as ``PathNode`` values, flips included;
3. what the shards left unspent (a subtree smaller than its share) is
   dealt again, round after round, to the shallowest
   ``jobs * FRONTIER_FACTOR`` remainders, until the budget or the
   frontier runs out — so, as in a serial run, the exploration spends
   exactly ``max_paths`` paths unless the space or the deadline runs
   out first;
4. the parts merge into one result: outcomes concatenate (each shard
   pre-deduplicates and strips traces), ``paths_run``/``pruned``/
   ``diverged`` sum — seeding plus shards pop exactly the nodes a
   serial run would, so when no budget is hit the totals equal a
   serial exploration's — and the frontier is every node left over
   (a remainder, an undealt root, or the root of a shard whose worker
   died or overran its hard timeout, which is not dealt again within
   the call).  A shard whose program raised fails the whole
   exploration with that error
   (:class:`~repro.farm.pool.TaskFailure`), as the same path does in
   a serial run.

``deadline_s`` is likewise one wall-clock budget: each round of
shards receives only what earlier work left of it.

The walk runs inside :func:`repro.dynamics.explore.explore_space`,
the same record lifecycle as an in-process exploration, so
``store=`` makes the whole farm exploration incremental under the
same record key as the serial seam: a complete record
returns with **zero** paths re-run; an interrupted campaign —
deadline, path budget, worker timeout or kill — persists the
surviving frontier together with the accounting so far; and a later
call resumes that frontier, merging to exactly what an uninterrupted
serial run would have produced.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

from .. import obs
from ..ctypes.implementation import Implementation, LP64
from ..dynamics.explore import (
    ExplorationResult, Explorer, PathNode, explore_space,
)
from ..pipeline import compile_for_model
from ..spec import ExploreSpec
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
    breadth-first and its subtrees explored as shard tasks (each
    running ``spec`` under its share of the path budget), and the
    shard results merged with correct ``exhausted``/``paths_run``
    accounting.  ``store`` (a handle or a directory) is the one store
    of the exploration: the shard workers install it for their
    compiled artifacts, and it persists the exploration itself (warm
    hit = zero paths re-run, interruption = resumable frontier) under
    the same record key as the serial seam.  Without it the shards
    fall back to the installed store
    (:func:`~repro.farm.pool.run_tasks`) and the exploration persists
    nothing."""
    store = as_store(store)
    program = compile_for_model(source, model, impl, name=name)
    if jobs <= 1:
        return program.explore(model, spec, deadline_s=deadline_s,
                               store=store, name=name)
    ctx = obs.active()

    def walk(make_driver, budget: ExploreSpec,
             deadline_s: Optional[float],
             roots: Optional[List[PathNode]], requeue: bool
             ) -> ExplorationResult:
        start = time.monotonic()
        roots = roots or [PathNode()]
        parts: List[ExplorationResult] = []
        if len(roots) < jobs * FRONTIER_FACTOR:
            seeded = Explorer(make_driver, replace(budget, strategy="bfs"),
                              deadline_s, roots,
                              frontier_target=jobs * FRONTIER_FACTOR,
                              requeue_interrupted=requeue).run()
            roots, seeded.frontier = seeded.frontier, []
            parts.append(seeded)
        remaining = budget.max_paths - sum(p.paths_run for p in parts)
        lost: List[PathNode] = []
        shards = 0
        width = len(roots)          # the first round deals every root
        while roots and remaining > 0:
            left = None
            if deadline_s is not None:
                # deadline_s is one wall-clock budget for the whole
                # exploration: shards only get what is left of it.
                left = deadline_s - (time.monotonic() - start)
                if left <= 0:
                    break
            cut = min(width, remaining)
            dealt, roots = roots[:cut], roots[cut:]
            share, extra = divmod(remaining, len(dealt))
            # Later rounds re-deal what shards left unspent, to as
            # many remainders as seeding makes roots: the shallowest,
            # whose subtrees are the largest.
            width = jobs * FRONTIER_FACTOR
            # Shards compile under the program's own name: source
            # locations embed it, so a UB site reads the same in every
            # shard as in the seeding phase and a serial run.
            tasks = [SweepTask(index=shards + i, name=name,
                               kind="explore_shard", source=source,
                               models=(model,), impl=impl,
                               spec=replace(budget,
                                            max_paths=share + (i < extra)),
                               deadline_s=left,
                               prefix=tuple(node.choices),
                               sleep=tuple(node.sleep),
                               requeue_interrupted=requeue)
                     for i, node in enumerate(dealt)]
            shards += len(tasks)
            if ctx is not None:
                ctx.inc("farm.shards", len(tasks))
            results = run_tasks(tasks, jobs=jobs, store=store,
                                task_timeout=task_timeout)
            for node, r in zip(dealt, results):
                if not r.ok and "metrics" in r.data:
                    # The shard ran and its program raised: the
                    # exploration fails as a serial one does.  (A
                    # worker that died or overran sent no metrics.)
                    raise TaskFailure(r.error)
                if not r.ok:
                    # Worker died or timed out hard: its partial work
                    # is lost and uncounted, so the whole subtree root
                    # stays on the frontier — a resume re-mines it
                    # from scratch.
                    if ctx is not None:
                        ctx.inc("farm.shard_requeues")
                    lost.append(node)
                    continue
                shard = r.data["shard"]
                remaining -= shard.paths_run
                roots.extend(shard.frontier)
                shard.frontier = []
                parts.append(shard)
            roots.sort(key=lambda node: node.depth)
        merged = ExplorationResult.merge(parts)
        merged.frontier = roots + lost
        return merged

    with obs.maybe_span(ctx, "explore_farm", jobs=jobs, model=model):
        return explore_space(program, model, spec, store=store,
                             name=name, deadline_s=deadline_s, walk=walk)
