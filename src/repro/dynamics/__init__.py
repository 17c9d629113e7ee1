"""The Core operational semantics (paper §5.2, §5.6): a small-step,
oracle-driven evaluator plus a state-space explorer.

Every memory action, nondeterministic choice and I/O reaches the
:class:`Driver` as a request; the driver owns the memory model and the
:class:`~repro.dynamics.driver.Oracle` — a replayable choice sequence
recording a unified choice/action event log — and services every
request in one place (``Driver._handle``).

There are **two interchangeable evaluator back ends** behind that
request protocol, selected by the :class:`~repro.spec.RunSpec`
``backend`` and threaded through every seam up to
``cerberus-py --backend``:

* ``"compiled"`` (the default, :mod:`repro.dynamics.compile`) lowers
  each Core procedure once into linear code for one explicit-stack
  machine: pure sub-expressions are pre-resolved closures over slot
  frames, a C call pushes a heap frame (so C depth is a budget with a
  frame-limit outcome, not a ``RecursionError``), and ``unseq``
  children and threads are machine contexts, so single runs,
  exploration and threads share one loop (≥3× steps/sec over the
  tree evaluator, ``benchmarks/perf_step_loop.json``);
* ``"tree"`` walks the Core AST as Python generators and is the
  **oracle of record**: the back ends are pinned observably identical
  (``tests/test_compile_backend.py``, golden verdicts byte-identical
  across both), and any disagreement is a compiled-backend bug by
  definition — the tree evaluator settles the dispute.

On top of that seam, :mod:`repro.dynamics.explore` implements the
paper's §5.1 search modes as a real engine: pluggable frontier
strategies (``dfs`` — the replay-DFS of record — ``bfs``, seeded
``random``, and coverage-guided search), sleep-set partial-order
reduction at ``unseq`` scheduling points, and frontiers that can be
handed off mid-flight for farm sharding
(:mod:`repro.farm.frontier`).  Exploration records are keyed per
back end, so a persisted frontier is never resumed by the other
back end."""

from .values import (
    Value, VUnit, VBool, VCtype, VTuple, VList, VInteger, VFloating,
    VPointer, VFunction, VSpecified, VUnspecified, VMemStruct,
)
from .driver import Driver, Oracle, Outcome, PathPruned, run_program
from .explore import (
    ExplorationResult, Explorer, PathNode, STRATEGIES, explore_all,
    explore_program,
)

__all__ = [
    "Value", "VUnit", "VBool", "VCtype", "VTuple", "VList", "VInteger",
    "VFloating", "VPointer", "VFunction", "VSpecified", "VUnspecified",
    "VMemStruct",
    "Driver", "Oracle", "Outcome", "PathPruned", "run_program",
    "ExplorationResult", "Explorer", "PathNode", "STRATEGIES",
    "explore_all", "explore_program",
]
