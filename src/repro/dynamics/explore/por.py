"""Sleep-set partial-order reduction at ``unseq`` scheduling points.

The evaluator's ``("choose", "unseq", n, meta)`` request carries the
unseq frame id and the candidate child indices; every performed memory
action carries the chain of ``(frame, child)`` pairs that scheduled it
(:class:`~repro.dynamics.driver.Oracle` records both as an event log).
From a completed run, the explorer can therefore recover, for each
scheduling point, the *pending next action* of every candidate — it is
the first event later in the run attributed to that ``(frame, child)``,
and it is the same action the candidate would have performed if
scheduled at the point itself, provided no *barrier* event (allocation
lifetime change, raw byte service, I/O — anything that can change
pointer metadata or is observably ordered) happened in between.

Two next actions are *independent* when their byte footprints do not
overlap, or neither writes; executing them in either order reaches the
same state, so the two orders are one Mazurkiewicz trace.  Classic
sleep sets exploit this: after exploring candidate ``a`` first at a
point, the sibling branch that schedules ``b`` first inherits a sleep
entry for ``a`` (when ``a ⊥ b``), meaning "do not schedule ``a``
until something conflicting with it runs".  The in-run scheduler
(:meth:`Oracle.choose`) honours sleep entries — it schedules the first
non-sleeping candidate and aborts the path (:class:`PathPruned`) when
every candidate is asleep, i.e. when the remaining subtree is a
re-ordering of executions already covered — and conflicting events
wake entries (:meth:`Oracle.note_action`), both live during the run
and in the explorer's post-hoc walk here.

Conflicting pairs inside *indeterminately sequenced* regions (function
calls inside the expression, §5.6 point 6) are exempt from the
unsequenced-race UB but not from ordering: both orders of two
conflicting calls remain observable, so for POR purposes they stay
dependent.  A call runs whole before another candidate resumes, so a
candidate that may call (the fourth metadata component,
:func:`~repro.core.ast.calling_children`) has no trustworthy next
transition: its first action stands for none of the call's later ones
(``int f(void){ *p = 1; return 0; }`` reads ``p`` first, then writes
``b``), so it gets no sleep entry and causes none.

Everything unknown is treated as dependent: unattributable or
barrier next actions produce no sleep entries and barrier events wake
every sleeper.  Pruning is therefore only ever a subset of what full
sleep sets would allow — sound by construction, verified empirically
by the POR soundness tests (identical ``distinct()`` behaviour sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..actions import footprints_conflict

# A sleep entry: (frame, child, addr, size, is_write) — the candidate
# `child` of unseq frame `frame` is asleep, and its pending action has
# the given byte footprint.  Plain tuples keep nodes picklable for
# farm-sharded frontiers.
SleepEntry = Tuple[int, int, int, int, bool]


@dataclass(frozen=True)
class PathNode:
    """One frontier element: a replayable oracle choice prefix, the
    sleep set active at its branch point, and the ``(tag, alt)`` flip
    that created it (coverage-guided search keys on it)."""

    choices: Tuple[int, ...] = ()
    sleep: Tuple[SleepEntry, ...] = ()
    flip: Optional[Tuple[str, int]] = None


# The transition of a candidate that completes without performing any
# further action: a zero-byte footprint, independent of everything.
PURE = (0, 0, False)


def next_transition(events: List[tuple], start: int, frame: int,
                    child: int,
                    completed: bool) -> Optional[Tuple[int, int, bool]]:
    """The pending transition of unseq candidate ``(frame, child)`` as
    of the choice event at ``events[start]``: ``(addr, size,
    is_write)`` of its next action, :data:`PURE` when the candidate
    runs to completion without performing one, or ``None`` when it
    cannot be trusted (never observed, observed past a barrier, or
    itself a barrier).

    A later scheduling choice of the same frame whose candidate list
    no longer contains the child proves the child completed — and, the
    scan having found no attributed action before it, completed
    purely.  ``completed`` says the whole run finished normally, which
    proves the same for candidates the frame never chose over again.
    """
    for ev in events[start + 1:]:
        if ev[0] == "choose":
            meta = ev[4]
            if meta is not None and meta[0] == frame \
                    and child not in meta[1]:
                return PURE
            continue
        _, _kind, fp, is_write, chain, barrier = ev
        if (frame, child) in chain:
            if barrier or fp is None:
                return None
            return (fp.addr, fp.size, is_write)
        if barrier:
            return None     # metadata may have changed under it
    return PURE if completed else None


def generate_branches(node: PathNode, events: List[tuple],
                      por: bool,
                      completed: bool = False) -> List[List[PathNode]]:
    """Sibling prefixes for every *new* choice point of a completed
    (or pruned) run, grouped per point in forward order.

    Without POR this reproduces the historical DFS branching exactly:
    every untried alternative of every choice point beyond the
    replayed prefix.  With POR, ``unseq`` points skip alternatives
    that are asleep (their order is covered by an earlier sibling's
    subtree) and pass sleep sets down per the sleep-set rule."""
    out: List[List[PathNode]] = []
    live: List[SleepEntry] = list(node.sleep) if por else []
    branch_at = len(node.choices)
    taken: List[int] = []
    for ev_idx, ev in enumerate(events):
        if ev[0] == "act":
            # Wake-up propagation starts at the branch point; events
            # in the replayed region pre-date every live entry.
            if live and len(taken) >= branch_at:
                _, _kind, fp, is_write, _chain, barrier = ev
                if barrier or fp is None:
                    live = []
                else:
                    live = [z for z in live
                            if not footprints_conflict(
                                z[2], z[3], z[4],
                                fp.addr, fp.size, is_write)]
            continue
        _, tag, n, chosen, meta = ev
        point = len(taken)
        base = tuple(taken)
        taken.append(chosen)
        if point < branch_at:
            continue
        if por and tag == "unseq" and meta is not None:
            out.append(_unseq_siblings(base, ev_idx, events, live,
                                       tag, n, chosen, meta,
                                       completed))
        else:
            # A flip at a non-unseq point changes control flow
            # arbitrarily, so siblings restart with an empty sleep
            # set (conservative: prunes less, never more).
            out.append([PathNode(base + (alt,), (), (tag, alt))
                        for alt in range(n) if alt != chosen])
    return out


def _unseq_siblings(base: Tuple[int, ...], ev_idx: int,
                    events: List[tuple], live: List[SleepEntry],
                    tag: str, n: int, chosen: int,
                    meta: tuple, completed: bool) -> List[PathNode]:
    """The sleep-set sibling rule at one unseq scheduling point:
    skip alternatives whose candidate is asleep; give each pushed
    sibling the surviving independent entries plus an entry for every
    previously explored alternative whose next action commutes.

    A candidate that may call (``meta[3]``) has no exact next
    transition.  When the evaluator resolved static footprint hulls
    for this frame (``static_prune``: a third meta component, aligned
    with the candidate list, or None), they stand in for next
    transitions the event log cannot attribute — each hull covers
    *all* of its candidate's actions, so a sleep entry derived from it
    is a superset footprint: wake-ups fire no later than with the
    exact next action, keeping the prune a subset of what exact sleep
    sets would allow."""
    frame, cands = meta[0], meta[1]
    static = meta[2] if len(meta) > 2 else None
    calls = meta[3] if len(meta) > 3 else ()
    asleep = {z[1] for z in live if z[0] == frame}
    cache: dict = {}

    def t_of(alt: int):
        if alt not in cache:
            t = None if cands[alt] in calls else next_transition(
                events, ev_idx, frame, cands[alt], completed)
            if t is None and static is not None:
                t = static[alt]
            cache[alt] = t
        return cache[alt]

    explored = [chosen]
    nodes: List[PathNode] = []
    for alt in range(n):
        if alt == chosen:
            continue
        if cands[alt] in asleep:
            continue        # a covered re-ordering: prune the subtree
        t_alt = t_of(alt)
        sleep: List[SleepEntry] = []
        if t_alt is not None:
            addr, size, is_write = t_alt
            for z in live:
                if not footprints_conflict(z[2], z[3], z[4],
                                           addr, size, is_write):
                    sleep.append(z)
            for j in explored:
                t_j = t_of(j)
                if t_j is not None and not footprints_conflict(
                        t_j[0], t_j[1], t_j[2], addr, size, is_write):
                    sleep.append((frame, cands[j],
                                  t_j[0], t_j[1], t_j[2]))
        nodes.append(PathNode(base + (alt,), tuple(sleep), (tag, alt)))
        explored.append(alt)
    return nodes
