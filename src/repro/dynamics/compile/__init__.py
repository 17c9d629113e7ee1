"""The compiled back end: Core → slotted, closure-threaded linear code.

This package mirrors the compile-once front end with a compile-once
*back end*.  :func:`lower_program` flattens each Core procedure, pure
function, and global initialiser into pre-resolved closures over
slot-indexed frames (no per-step isinstance dispatch, no dict
environments); :class:`CompiledEvaluator` executes them behind the
same generator request protocol the driver, explorer, and
partial-order reduction already consume, so the two back ends are
interchangeable per :class:`repro.dynamics.driver.Driver` instance
(``backend="compiled"`` is the default; ``backend="tree"`` is the
oracle of record and settles any behavioural dispute).

Round 2 (the raw-speed work) added three layers on top of that base:

* **The specialized call protocol** — every C call (``ECcall``)
  resolves its callee through a one-element per-site inline cache,
  writes arguments directly into a preallocated callee frame (no
  generic ``call_proc`` dispatch), and completes statically pure
  callees with no generator suspension at all.  Fast-path vs
  generic-fallback dispatch is counted per run (``compile.call_fast``
  / ``compile.call_generic`` in traces and ``cerberus-py stats``).
* **The fusion pass** — recurring sequences collapse into single
  pre-resolved instructions at lower time: comparison/arithmetic
  operands that are slots or constants are read directly, irrefutable
  spine steps become direct slot-write instructions, and the C
  assignment ``load → compute → store`` triple becomes one fused
  instruction in the run-mode spine plan.  Hit counts live in
  ``LoweredProgram.fused`` (``compile.fused.*`` counters).
* **Run mode** — thread-free programs on plain single-path runs
  execute through direct ``run(ev, fr)`` closures serviced by the
  driver's inline request callback instead of a suspended generator
  stack; exploration and threaded programs keep the full protocol
  (see the :mod:`.lower` module docstring for the exact gate).

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
