"""Incremental re-exploration: persisted exploration results.

The paper's method re-runs the same de facto test programs under many
memory-object models and compares the resulting behaviour sets — and
until now every campaign re-explored every program from scratch even
when nothing changed.  This module makes exploration itself a cached,
resumable artifact, the way PR 1/2 did for translation:

* a **completed** :class:`~repro.dynamics.explore.ExplorationResult`
  (distinct behaviour set, ``paths_run``/``pruned``/``diverged``
  accounting) is persisted as an :class:`ExplorationRecord` in the
  content-addressed :class:`~repro.farm.store.ArtifactStore`, keyed on
  everything that determines the exploration — source text,
  implementation environment, memory model, every
  :class:`~repro.spec.ExploreSpec` field but the path budget, and the
  build that computed it.  A warm hit returns the recorded result with
  **zero** paths re-run;
* an **interrupted** exploration (wall-clock deadline, path budget,
  task kill) persists its live frontier — the picklable
  :class:`~repro.dynamics.explore.PathNode` prefixes (+ sleep sets)
  the engine had not yet expanded — together with the accounting so
  far.  A later run under the same key *resumes* from that frontier:
  the merged result's behaviour set and accounting equal an
  uninterrupted serial run's, because exploration is a tree of
  independent subtrees and the frontier is an exact cut through it.

Keying deliberately excludes the wall-clock deadline and the path
budget: they bound *how much* of the state space one invocation walks,
not *which* state space it walks, so a campaign interrupted under one
budget can be finished under another.

The lifecycle — look up, serve, resume, walk, count, publish — is
one function, :func:`repro.dynamics.explore.explore_space`, the only
reader and writer of ``"exploration"`` records; this module holds
what it persists (:class:`ExplorationRecord`, also the payload of a
farm ``explore_shard`` task) and the record's address
(:func:`exploration_key`).  Records live in the one
:class:`~repro.farm.store.ArtifactStore` handle of the process, beside
compiled artifacts and static analyses: every seam takes it as its
``store`` argument — :meth:`repro.pipeline.CompiledProgram.explore`,
``explore_many``, :func:`repro.farm.frontier.explore_farm`, ``explore``
tasks (the batch's store) and the CLI's ``--store DIR``.  A partial
record is always resumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..dynamics.explore import ExplorationResult, PathNode
from ..spec import ExploreSpec
from .store import ArtifactStore

#: The record kind folded into every exploration content address.
RECORD_KIND = "exploration"


@dataclass
class ExplorationRecord:
    """One persisted exploration: either a finished result, or the
    accounting-so-far of an interrupted one plus the frontier needed
    to finish it.

    ``outcomes`` are slimmed: deduplicated by observable behaviour
    (UB name *and* site) with traces stripped — ``paths_run`` keeps
    the full count.  The same form carries a farm shard's result back
    from its worker, so a frontier is persisted and shipped in one
    form: :class:`~repro.dynamics.explore.PathNode` values, flips
    included.  For a partial record (``complete=False``, non-empty
    ``frontier``) the stored ``exhausted`` flag is merge-neutral:
    ``True`` when the only unexplored work is the frontier itself
    (exhaustion of the merged exploration is then decided by the
    resumed remainder), but ``False`` when a diverged replay or a
    deadline-abandoned path lost a subtree, because that loss is
    permanent: no frontier node can re-mine it, so an uninterrupted
    run would report not-exhausted too.  Either way ``exhausted``
    says whether this part lost a subtree.

    ``budget`` records the ``max_paths`` of the producing request:
    farm-sharded runs can overshoot their budget by up to one path
    per shard (ceiling split), so "is this record reusable under the
    caller's budget" must compare against what the identical call
    would have produced, not against ``paths_run`` alone (see
    :func:`~repro.dynamics.explore.explore_space`)."""

    complete: bool
    exhausted: bool
    paths_run: int
    pruned: int
    diverged: int
    outcomes: List
    frontier: Tuple[PathNode, ...] = ()
    abandoned: int = 0
    budget: Optional[int] = None

    @classmethod
    def from_result(cls, result: ExplorationResult,
                    frontier: Sequence[PathNode] = (),
                    budget: Optional[int] = None
                    ) -> "ExplorationRecord":
        frontier = tuple(frontier)
        slim = [replace(o, trace=[]) for o in result.distinct()]
        return cls(complete=not frontier,
                   exhausted=result.exhausted if not frontier
                   else result.diverged == 0 and result.abandoned == 0,
                   paths_run=result.paths_run,
                   pruned=result.pruned,
                   diverged=result.diverged,
                   outcomes=slim,
                   frontier=frontier,
                   abandoned=result.abandoned,
                   budget=budget)

    def to_result(self) -> ExplorationResult:
        return ExplorationResult(outcomes=list(self.outcomes),
                                 exhausted=self.exhausted,
                                 paths_run=self.paths_run,
                                 pruned=self.pruned,
                                 diverged=self.diverged,
                                 abandoned=self.abandoned)


def exploration_key(store: ArtifactStore, source: str, impl,
                    model: str, name: str = "<string>",
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
