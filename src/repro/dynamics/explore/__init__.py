"""The state-space explorer (paper §5.1).

The paper frames execution as a sequencing monad that can "perform an
exhaustive search for all allowed executions or pseudorandomly explore
single execution paths".  This package reifies that search as a real
state-space engine over oracle choice prefixes:

:mod:`~repro.dynamics.explore.strategies`
    A :class:`SearchStrategy` frontier policy — ``dfs`` (the historical
    replay-DFS, kept as the default and the oracle-of-record), ``bfs``
    (shortest prefix first), ``random`` (seeded frontier sampling) and
    ``coverage`` (prioritise flipping never-before-flipped choice
    tags).

:mod:`~repro.dynamics.explore.por`
    Frontier nodes and sibling generation: siblings come from a run's
    choice trace, and every sibling of one run shares that run's
    choice tuple, so a child costs O(1) however deep it branches.
    With ``por=True``, sleep-set partial-order reduction at ``unseq``
    scheduling points: the evaluator tags each scheduling choice with
    its unseq frame and candidate children, the oracle logs each
    performed action with the frame chain that scheduled it (the
    event log, recorded only under POR), and the explorer prunes
    sibling orders whose next actions do not conflict (no overlapping
    :class:`~repro.memory.base.Footprint` with a write), provably
    preserving the set of distinct behaviours.

:mod:`~repro.dynamics.explore.engine`
    The replay loop — each popped path prefix is re-run on a fresh
    driver, sibling prefixes are generated from the run's choice
    trace (under POR, its event log), and the frontier can be handed
    off mid-flight for farm sharding (:mod:`repro.farm.frontier`).

:mod:`~repro.dynamics.explore.result`
    :class:`ExplorationResult` — the one exploration value: outcome
    accounting, behaviour deduplication (UB name *and* location),
    the frontier its walk left, and shard merging.  It is
    ``exhausted`` exactly when no frontier is left and no subtree was
    lost.  Only the first outcome of each behaviour keeps its choice
    trace: that behaviour's replayable witness.

The resume seam
===============

Because a :class:`PathNode` prefix fully determines its replay, a
frontier is an exact, picklable cut through the exploration tree —
so exploration persists and resumes like any other artifact.
:func:`explore_space` owns the record lifecycle for every exploration,
in-process or farm-sharded: given an artifact store it serves a
completed exploration from its stored ``"exploration"`` record (the
:meth:`~ExplorationResult.slim` copy of a result, keyed by
:func:`exploration_key`) with zero paths re-run, resumes a partial
one from its persisted frontier, and publishes what its walk leaves —
after a path budget, a wall-clock deadline or a process kill, the
frontier plus the accounting so far.  A partial record is always
resumed.  With a store a deadline-aborted path is requeued
(``Explorer(requeue_interrupted=True)``): it goes back on the
frontier uncounted, so the resumed run's merged behaviour set and
``paths_run``/``pruned``/``diverged`` accounting equal an
uninterrupted serial run's (pinned by ``tests/test_explore_resume.py``
across every strategy × POR).  ``SearchStrategy.drain`` returns the
frontier in a *restorable* order — re-pushing it reproduces the
interrupted pop order.  A storeless exploration imports no
:mod:`repro.farm` module.
"""

from __future__ import annotations

from .engine import (
    RECORD_KIND, Explorer, driver_factory, exploration_key, explore_space,
)
from .por import PathNode
from .result import ExplorationResult
from .strategies import (
    STRATEGIES, BfsStrategy, CoverageStrategy, DfsStrategy,
    RandomStrategy, SearchStrategy, make_strategy,
)

__all__ = [
    "RECORD_KIND",
    "Explorer",
    "driver_factory",
    "exploration_key",
    "explore_space",
    "PathNode",
    "ExplorationResult",
    "STRATEGIES",
    "SearchStrategy",
    "DfsStrategy",
    "BfsStrategy",
    "RandomStrategy",
    "CoverageStrategy",
    "make_strategy",
]
