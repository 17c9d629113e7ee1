"""Static analyses over elaborated Core terms (a new layer between
elaboration and dynamics).

The paper's elaboration was designed so that semantic questions about C
become questions about a small typed IR; until now this repo only ever
*executed* Core.  This package adds a bottom-up **summary framework**
(:mod:`.summary`) — one abstract interpretation of a Core program that
produces per-subterm *action summaries* — and two clients:

1. **Footprint/purity analysis** (:func:`summary.annotate_program`):
   every ``unseq`` node is annotated with a per-child classification —
   ``pure`` (completes without performing a memory action), a tuple of
   object-relative byte ranges ``(base_sym, offset, size, is_write)``
   with ``None`` standing for ⊤ (statically unknown offset/extent), or
   ``None`` for ⊤ outright (barrier or possibly-faulting child).  The
   explorer consumes these annotations (``static_prune=True``): a
   choice point whose candidates are statically pure or pairwise
   non-conflicting is *never branched at all* — the evaluator runs the
   children sequentially — and where branching remains, the oracle's
   sleep sets are seeded from the precomputed footprints instead of
   being derived post hoc from the event log.

2. **Definite-UB linter** (:mod:`.lint`, ``cerberus-py lint``):
   definite-assignment dataflow for uninitialized-scalar reads,
   constant out-of-bounds and over-wide-shift detection (the
   elaboration's own constant-foldable ``undef`` guards make the
   latter free), and static unsequenced-race detection, each emitted
   as a source-located diagnostic with ``definite``/``possible``
   severity.

**Summary lattice.**  A child summary is ``(ranges, barrier, fault,
actions)`` ordered by component-wise inclusion: the bottom element is
the pure summary (no ranges, no flags); adding a range, or raising
``barrier`` (allocation lifetime change, I/O, opaque call — anything
observably ordered) or ``fault`` (a reachable ``undef``, an
uninitialized or unprovably in-bounds access), moves strictly up; ⊤ is
``barrier`` (trusted for nothing).  Range offsets form the usual flat
constant lattice (``None`` = ⊤, resolved at run time to the whole
object via the live allocation).  Joins happen at control-flow merges
and when the same ``unseq`` node is reached in several calling
contexts.

**Cache keying.**  Analysis results (the per-``unseq`` annotation
table, serialized positionally over a deterministic DFS enumeration of
``unseq`` nodes, plus the lint findings) are cached in the
:class:`~repro.farm.store.ArtifactStore` under the ``"statics"``
record kind, keyed alongside compiled artifacts by ``(source,
repr(impl), name)`` and, like every store record, by the build that
computed them (:func:`repro.farm.store.code_fingerprint`): a change to
this package's code is a miss, so an analysis an older linter produced
is never served, and no version is bumped by hand.

**Soundness contract.**  Static pre-pruning only ever *removes*
interleavings that the dynamic sleep-set machinery would also have had
to recognise as covered re-orderings: a statically-commuting ``unseq``
satisfies pairwise non-conflict of over-approximated footprints, has
no barrier child and at most one possibly-faulting child, so every
interleaving is Mazurkiewicz-equivalent to the sequential order the
evaluator picks; a static sleep seed uses a convex hull ⊇ the child's
next action, so wake-ups fire no later than with exact footprints.
Hence *static prune ⊆ dynamic sleep-set prune* extended with
statically-certain knowledge, and ``distinct()`` behaviour sets are
byte-identical with the feature on or off (asserted over the full
golden suite in ``tests/test_statics_lint.py``), with equal-or-fewer
paths explored.
"""

from .summary import (          # noqa: F401
    ARange, StaticSummary, StaticsReport,
    analyze_program, annotate_program, apply_annotations,
    collect_unseqs, ensure_annotated, resolve_hull, serialize_unseq_info,
)
from .lint import Finding, lint_program     # noqa: F401

__all__ = [
    "ARange", "StaticSummary", "StaticsReport",
    "Finding", "analyze_program", "annotate_program",
    "apply_annotations", "collect_unseqs", "ensure_annotated",
    "lint_program", "resolve_hull", "serialize_unseq_info",
]
