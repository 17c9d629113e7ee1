"""Exploration accounting: every execution found within the budget,
and the frontier the walk left.

The behaviour key deduplicates on *observable* behaviour — status,
exit code, stdout, and for undefined behaviour both the UB name and
its source location (the same UB name at two different program points
is two behaviours, not one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Tuple

from ..driver import Outcome
from .por import PathNode


@dataclass
class ExplorationResult:
    """All executions found within the budget — the one exploration
    value: what a walk returns, what a store persists and what a farm
    shard answers with (the last two as its :meth:`slim` copy).

    ``paths_run`` counts every driver run launched, including runs the
    sleep-set scheduler aborted as redundant re-orderings (``pruned``),
    runs whose replay prefix no longer matched the choice-point
    arities (``diverged``, discarded from ``outcomes``), and paths a
    wall-clock deadline cut mid-run that no later resume can finish
    (``abandoned``: no behaviour recorded, subtree unexplored).
    ``frontier`` holds the nodes the walk left unexplored (a path
    budget, a deadline, a farm handoff): an exact cut through the
    tree, which a later walk resumes from.
    """

    outcomes: List[Outcome] = field(default_factory=list)
    paths_run: int = 0
    pruned: int = 0             # sleep-set-blocked redundant orders
    diverged: int = 0           # stale replays, detected and discarded
    abandoned: int = 0          # deadline-cut mid-run, unfinishable
    frontier: List[PathNode] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """Every execution was found: nothing is left on the frontier,
        and no subtree was lost to a diverged replay or an abandoned
        path (a loss no frontier node can re-mine)."""
        return not (self.frontier or self.diverged or self.abandoned)

    @staticmethod
    def behaviour_key(o: Outcome) -> Tuple:
        """The observable-behaviour identity of one outcome."""
        return (o.status, o.exit_code, o.stdout,
                o.ub.name if o.ub else None,
                str(o.loc) if o.ub else None)

    def distinct(self) -> List[Outcome]:
        """Deduplicate by observable behaviour (UB site included)."""
        seen = {}
        for o in self.outcomes:
            key = self.behaviour_key(o)
            if key not in seen:
                seen[key] = o
        return list(seen.values())

    def slim(self) -> "ExplorationResult":
        """This result with its outcomes deduplicated and their traces
        stripped (``paths_run`` keeps the full count): the form a store
        persists and a farm shard ships back."""
        return replace(self, outcomes=[replace(o, trace=[])
                                       for o in self.distinct()])

    def behaviour_keys(self) -> List[Tuple]:
        """The sorted set of behaviour keys — the canonical form used
        to assert POR soundness (pruned == unpruned, byte for byte)."""
        return sorted({self.behaviour_key(o) for o in self.outcomes},
                      key=repr)

    def has_ub(self) -> bool:
        return any(o.is_ub for o in self.outcomes)

    def ub_names(self) -> List[str]:
        return sorted({o.ub.name for o in self.outcomes if o.ub})

    def behaviours(self) -> List[str]:
        return sorted({o.summary() for o in self.outcomes})

    @classmethod
    def merge(cls, parts: Iterable["ExplorationResult"]
              ) -> "ExplorationResult":
        """Combine the results of disjoint subtrees: outcomes and
        frontiers concatenate, counters sum.  A part whose frontier
        went on to be walked must hand it over first, or it would be
        counted as unexplored."""
        merged = cls()
        for p in parts:
            merged.outcomes.extend(p.outcomes)
            merged.paths_run += p.paths_run
            merged.pruned += p.pruned
            merged.diverged += p.diverged
            merged.abandoned += p.abandoned
            merged.frontier.extend(p.frontier)
        return merged
