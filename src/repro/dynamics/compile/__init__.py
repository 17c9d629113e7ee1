"""The compiled back end: Core → linear code for one explicit-stack
machine.

This package mirrors the compile-once front end with a compile-once
*back end*.  :func:`lower_program` turns each Core procedure and
global initialiser into one flat instruction list over slot-indexed
frames, and each pure function into a pre-resolved closure (no
per-step isinstance dispatch, no dict environments).
:class:`CompiledEvaluator` is the machine that runs them: a context is
a pc, a frame and a stack of heap-allocated caller frames; ``save``/
``run`` loops are jumps; interleaved ``unseq`` children and C11
threads are contexts, so an interleaving choice or a thread switch is
a pick among plain data.  Requests go to the driver's one service by
a direct call, and control returns to the driver's thread scheduler
only where a thread switch is possible.  The two back ends are
interchangeable per :class:`repro.dynamics.driver.Driver`
(``backend="compiled"`` is the default; ``backend="tree"`` is the
oracle of record and settles any behavioural dispute).

The same code serves single runs, exploration and threads.  When the
oracle always takes the first candidate (a plain single run) every
``unseq`` runs its children in program order without consulting it;
otherwise the machine replays the tree evaluator's scheduling
algorithm and choice metadata exactly, so explorations enumerate the
same paths.  C calls resolve through a per-site callee cache
(``compile.call_fast`` / ``compile.call_generic`` count the direct
and the native route), and lower-time operand fusions are counted in
``LoweredProgram.fused`` (``compile.fused.*``).  See the
:mod:`.lower` and :mod:`.evaluator` module docstrings for the
instruction protocol and the scheduling rules.

Closure-cache lifecycle: lowering is cached per program object
(:func:`ensure_lowered`), and the closures persist per process in
:data:`repro.farm.store.WARM_CLOSURES`, keyed by the artifact's
content address (+ ``LOWERED_VERSION`` + store schema), so repeat
explorations of one artifact skip re-lowering entirely (see
:meth:`repro.pipeline.CompiledProgram.lowered`).  Closures are not
serialisable, so nothing is persisted across processes.
"""

from .evaluator import CompiledEvaluator
from .lower import (
    LOWERED_VERSION, LoweredProgram, ensure_lowered, lower_program,
)

__all__ = [
    "CompiledEvaluator", "LOWERED_VERSION", "LoweredProgram",
    "ensure_lowered", "lower_program",
]
