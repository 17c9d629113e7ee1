"""Pluggable search strategies: the order path prefixes are expanded.

A strategy is a frontier container.  The engine pushes newly generated
:class:`~repro.dynamics.explore.por.PathNode` prefixes and pops the
next one to run; the strategy decides the order and nothing else, so
the *set* of explored paths is strategy-independent (modulo budget):

* ``dfs`` — LIFO, exactly the historical stateless-replay DFS.  With
  the engine's deepest-point-first push order, the earliest flip is
  popped next, so early choices (thread spawn order, first
  interleaving) reach distinct behaviours fastest under a path budget.
  This is the default and the oracle-of-record for equivalence tests.
* ``bfs`` — shortest prefix first (a stable priority queue), a
  level-order sweep that yields balanced subtrees; the farm frontier
  seeder uses it to carve shards.
* ``random`` — seeded uniform sampling of the frontier: a reproducible
  pseudorandom walk over allowed executions.
* ``coverage`` — prioritises prefixes whose branch flips a
  ``(choice-tag, alternative)`` pair never flipped before, then falls
  back to FIFO; cheap novelty search for rare scheduling tags.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import random
from typing import Dict, List, Optional, Tuple

from .por import PathNode


class SearchStrategy:
    """Frontier policy protocol: ``push``/``pop``/``len``/``drain``."""

    name = "strategy"

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    def push(self, node: PathNode) -> None:
        raise NotImplementedError

    def pop(self) -> PathNode:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def drain(self) -> List[PathNode]:
        """Remove and return every pending node (frontier handoff).

        The order is *restorable* for the deterministic strategies:
        pushing the returned nodes back into a fresh instance of the
        same strategy, in sequence, reproduces the drained frontier's
        pop order — so a persisted frontier
        (:mod:`repro.farm.explorestore`) resumes where the
        interrupted exploration stopped.  Queue-shaped strategies are
        restorable as-is; LIFO ``dfs`` overrides this to return its
        stack bottom-first.  ``random`` is inherently a frontier
        *sample* — a fresh instance re-seeds its RNG, so only the
        node *set* (which fully determines a run-to-completion
        result) is preserved, not the pop order."""
        out = []
        while len(self):
            out.append(self.pop())
        return out

    def drain_interrupted(self, node: PathNode) -> List[PathNode]:
        """Drain plus the node whose run was aborted mid-path, in
        restorable order: the aborted node was the *last pop*, so on
        resume it must pop first again (modulo ``random``'s
        re-seeded sampling — see :meth:`drain`).  Queue-shaped
        strategies pop the earliest push among equals, so it goes in
        front; LIFO ``dfs`` overrides to append it (last push pops
        first)."""
        return [node] + self.drain()


class DfsStrategy(SearchStrategy):
    """Last-in, first-out: the historical replay-DFS order."""

    name = "dfs"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self._stack: List[PathNode] = []

    def push(self, node: PathNode) -> None:
        self._stack.append(node)

    def pop(self) -> PathNode:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

    def drain(self) -> List[PathNode]:
        # Bottom-first: re-pushing in this order rebuilds the stack,
        # so the resumed pop order equals the uninterrupted one (the
        # base pop-until-empty drain would hand back a reversed
        # stack).
        out = self._stack
        self._stack = []
        return out

    def drain_interrupted(self, node: PathNode) -> List[PathNode]:
        return self.drain() + [node]    # re-pushed last -> pops first


class BfsStrategy(SearchStrategy):
    """Shortest prefix first (FIFO among equals): level-order sweep."""

    name = "bfs"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self._heap: List[Tuple[int, int, PathNode]] = []
        self._seq = itertools.count()

    def push(self, node: PathNode) -> None:
        heapq.heappush(self._heap,
                       (node.depth, next(self._seq), node))

    def pop(self) -> PathNode:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class RandomStrategy(SearchStrategy):
    """Seeded uniform sampling of the frontier (swap-with-last pop):
    the same seed replays the identical exploration order."""

    name = "random"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self._rng = random.Random(seed)
        self._items: List[PathNode] = []

    def push(self, node: PathNode) -> None:
        self._items.append(node)

    def pop(self) -> PathNode:
        i = self._rng.randrange(len(self._items))
        self._items[i], self._items[-1] = self._items[-1], self._items[i]
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


class CoverageStrategy(SearchStrategy):
    """Novelty-guided: prefer prefixes whose branch flips a
    ``(tag, alternative)`` pair that has never been flipped before;
    ties (and already-seen flips) fall back to FIFO.  Deterministic
    for any seed, so same-seed runs are identical.

    Two FIFO queues keep ``pop`` amortized O(1): nodes are queued as
    fresh or stale by their flip at push time, and a fresh-queue node
    whose flip has been seen since is lazily demoted at pop time."""

    name = "coverage"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self._fresh: collections.deque = collections.deque()
        self._stale: collections.deque = collections.deque()
        self._seen: set = set()

    def push(self, node: PathNode) -> None:
        if node.flip is None or node.flip not in self._seen:
            self._fresh.append(node)
        else:
            self._stale.append(node)

    def pop(self) -> PathNode:
        while self._fresh:
            node = self._fresh.popleft()
            if node.flip is not None and node.flip in self._seen:
                self._stale.append(node)    # went stale while queued
                continue
            if node.flip is not None:
                self._seen.add(node.flip)
            return node
        node = self._stale.popleft()
        return node

    def __len__(self) -> int:
        return len(self._fresh) + len(self._stale)


STRATEGIES: Dict[str, type] = {
    "dfs": DfsStrategy,
    "bfs": BfsStrategy,
    "random": RandomStrategy,
    "coverage": CoverageStrategy,
}


def make_strategy(spec, seed: Optional[int] = None) -> SearchStrategy:
    """Resolve a strategy: a name from :data:`STRATEGIES`, a strategy
    class, or an already-built instance (passed through)."""
    if isinstance(spec, SearchStrategy):
        return spec
    if isinstance(spec, str):
        cls = STRATEGIES.get(spec)
        if cls is None:
            raise ValueError(
                f"unknown search strategy {spec!r} (choose from "
                f"{', '.join(sorted(STRATEGIES))})")
        return cls(seed)
    if isinstance(spec, type) and issubclass(spec, SearchStrategy):
        return spec(seed)
    raise TypeError(f"not a search strategy: {spec!r}")
