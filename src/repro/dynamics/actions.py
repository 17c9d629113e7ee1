"""Action records and sequenced-before summaries (paper §5.6).

Every memory action performed during an expression evaluation is logged
as an :class:`ActionRecord`. Evaluation of each Core sub-expression
returns, alongside its value, an :class:`ActionSummary`; the sequencing
combinators compose summaries and check for *unsequenced races* (§6.5p2):

* ``unseq(e1..en)`` — actions of distinct e_i are mutually unsequenced;
* ``let weak`` — the *negative* actions of e1 (those not part of a value
  computation, e.g. the store of a postfix increment) are unsequenced
  with respect to everything in e2;
* ``let strong`` — fully sequenced, no new race pairs.

Conflicting pairs where at least one action lies inside an
*indeterminately sequenced* region (a C function body evaluated inside
the expression, §5.6 point 6) are exempt, provided the two actions are
not from the same region chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..memory.base import Footprint
from ..source import Loc


@dataclass(frozen=True, slots=True)
class ActionRecord:
    aid: int
    kind: str                 # create/alloc/kill/load/store/rmw
    footprint: Optional[Footprint]
    is_write: bool
    polarity: str             # "pos" | "neg"
    regions: FrozenSet[int] = frozenset()  # indet region chain
    loc: Loc = field(default_factory=Loc.unknown)

    def tagged(self, region: int) -> "ActionRecord":
        return ActionRecord(self.aid, self.kind, self.footprint,
                            self.is_write, self.polarity,
                            self.regions | {region}, self.loc)


@dataclass
class ActionSummary:
    """The multiset of actions an evaluation performed."""

    records: List[ActionRecord] = field(default_factory=list)

    @staticmethod
    def empty() -> "ActionSummary":
        return ActionSummary()

    @staticmethod
    def single(record: ActionRecord) -> "ActionSummary":
        return ActionSummary([record])

    def union(self, *others: "ActionSummary") -> "ActionSummary":
        # Summaries are never mutated in place (union / tag_region
        # build new ones), so an all-empty union may return ``self``
        # unshared-copy-free — the common case on the compiled back
        # end's run path, where most summaries are the `_EMPTY`
        # singleton.
        if not any(o.records for o in others):
            return self
        out = list(self.records)
        for o in others:
            out.extend(o.records)
        return ActionSummary(out)

    def negatives(self) -> List[ActionRecord]:
        return [r for r in self.records if r.polarity == "neg"]

    def tag_region(self, region: int) -> "ActionSummary":
        if not self.records:
            return self
        return ActionSummary([r.tagged(region) for r in self.records])


def footprints_conflict(a_addr: int, a_size: int, a_write: bool,
                        b_addr: int, b_size: int, b_write: bool) -> bool:
    """Overlapping byte ranges with at least one write: order matters.
    Zero-size footprints (pure completions) conflict with nothing.

    This is the *single* conflict definition partial-order reduction
    uses — both the in-run sleep-set wake-ups
    (:meth:`repro.dynamics.driver.Oracle.note_action`) and the
    explorer's post-hoc walk
    (:mod:`repro.dynamics.explore.por`) call it, so the two views of
    the live sleep set stay in lockstep."""
    if a_size <= 0 or b_size <= 0:
        return False
    if not (a_write or b_write):
        return False
    return a_addr < b_addr + b_size and b_addr < a_addr + a_size


def conflicting(a: ActionRecord, b: ActionRecord) -> bool:
    """Two actions conflict if they overlap and at least one writes."""
    if a.footprint is None or b.footprint is None:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.kind in ("create", "alloc", "kill") or \
            b.kind in ("create", "alloc", "kill"):
        return False
    return a.footprint.overlaps(b.footprint)


def find_unsequenced_race(
        groups: List[List[ActionRecord]]) -> Optional[Tuple[ActionRecord,
                                                            ActionRecord]]:
    """Cross-group conflict search with the indeterminate-sequencing
    exemption."""
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            for a in groups[i]:
                for b in groups[j]:
                    if not conflicting(a, b):
                        continue
                    if (a.regions or b.regions) and \
                            a.regions != b.regions:
                        continue  # indeterminately sequenced — ordered
                    return (a, b)
    return None
