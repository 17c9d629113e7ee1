"""The Cerberus-py pipeline facade (paper Fig. 1).

Translation is split from execution so the front end runs once per
program:

* :func:`compile_c` pushes C source through the whole front end —
  preprocess, parse (Cabs), desugar (Ail), typecheck (Typed Ail),
  elaborate (Core) — and returns a reusable :class:`CompiledProgram`.
  Results are memoised in a bounded content-addressed in-memory cache
  keyed on ``(source, impl, name)`` and emptied by
  :func:`clear_compile_cache`; its hits, misses and translations are
  ``pipeline.*`` :mod:`repro.obs` counters.  A persistent
  cross-process second level (an artifact store from
  :mod:`repro.farm.store`) can be installed with
  :func:`set_artifact_store`: it is consulted after an in-memory miss
  and filled after each front-end translation, so repeated CLI /
  pytest / benchmark invocations skip the front end entirely.
* :meth:`CompiledProgram.run` / :meth:`CompiledProgram.explore` execute
  the compiled artifact against a chosen memory object model in
  single-path or exhaustive mode — any number of times, under any
  number of models, without re-elaborating.  ``explore(store=)``
  additionally persists exploration results as ``"exploration"``
  records in the artifact store (through
  :func:`repro.dynamics.explore.explore_space`): unchanged programs
  are never re-explored, and interrupted explorations resume from
  their persisted frontier.  Every ``store`` argument below is one
  :class:`~repro.farm.store.ArtifactStore` handle (or a directory to
  open one on) holding every record kind; ``repro.farm`` is imported
  only when one is given.
* :func:`run_c` / :func:`explore_c` are thin compile-then-execute
  wrappers over one model.
* :func:`run_many` / :func:`explore_many` execute one program across a
  whole list of models — the paper's §2–§5 methodology of comparing
  verdicts between memory object models — compiling once per distinct
  implementation environment (the ``cheri`` model needs the CHERI128
  environment; every other registered model shares one artifact).
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from . import obs
from .ail.desugar import desugar
from .ail import ast as A
from .cabs import ast as C
from .core import ast as K
from .core.typecheck import typecheck_program
from .cparser import parse_tokens
from .ctypes.implementation import Implementation, LP64, CHERI128
from .dynamics.driver import Oracle, Outcome, run_program
from .elab import elaborate
from .errors import CoreTypeError
from .memory.base import MemoryModel
from .memory.cheri import CheriModel
from .memory.concrete import ConcreteModel
from .memory.provenance import GccPersonaModel, ProvenanceModel
from .memory.strict import StrictIsoModel
from .spec import ExploreSpec, RunSpec
from .typing import typecheck

if TYPE_CHECKING:
    from .dynamics.explore import ExplorationResult

MODELS: Dict[str, type] = {
    "concrete": ConcreteModel,
    "provenance": ProvenanceModel,
    "strict": StrictIsoModel,
    "cheri": CheriModel,
    "gcc": GccPersonaModel,
}

#: The artifact-store record kind of cached static analyses.
STATICS_RECORD_KIND = "statics"


@dataclass
class StaticsRecord:
    """One persisted static analysis (:mod:`repro.statics`): the
    positional per-``unseq`` annotation table (aligned with
    :func:`repro.core.ast.collect_unseqs` order), the lint findings,
    and whether the abstract interpretation ran to completion (an
    aborted analysis keeps its findings — each is independently
    sound — but discards annotations)."""

    table: list
    findings: list
    complete: bool


@dataclass
class CompiledProgram:
    """A compiled C program: Cabs + Typed Ail + Core, ready to run under
    any memory object model, repeatedly, without re-elaboration."""

    source: str
    impl: Implementation
    cabs: C.TranslationUnit
    ail: A.Program
    core: K.Program

    def make_model(self, model: str = "provenance",
                   spec: RunSpec = RunSpec()) -> MemoryModel:
        """A fresh ``model`` memory under ``spec.options`` (and, for
        the cheri model, ``spec.exact_equality``)."""
        cls = MODELS[model]
        if model == "cheri":
            return cls(self.impl, self.core.tags, spec.options,
                       exact_equality=spec.exact_equality)
        return cls(self.impl, self.core.tags, spec.options)

    def run(self, model: str = "provenance",
            spec: Optional[RunSpec] = None,
            oracle: Optional[Oracle] = None,
            **knobs) -> Outcome:
        """Execute one path under ``spec`` with ``knobs`` applied (the
        :class:`~repro.spec.RunSpec` fields: ``backend``, ``seed``,
        ``max_steps``, ``options``, ``exact_equality``).  The default
        oracle takes the first choice everywhere; a ``seed`` makes it
        a seeded random one."""
        spec = RunSpec.build(spec, **knobs)
        if oracle is None and spec.seed is not None:
            oracle = Oracle(rng=random.Random(spec.seed))
        return run_program(self.core, self.make_model(model, spec),
                           oracle, spec)

    def lowered(self):
        """The compiled back end's lowering of this artifact
        (:class:`~repro.dynamics.compile.LoweredProgram`), built once
        and cached on the Core term
        (:func:`~repro.dynamics.compile.ensure_lowered`)."""
        from .dynamics.compile import ensure_lowered
        return ensure_lowered(self.core)

    def statics(self, store=None,
                name: str = "<string>") -> StaticsRecord:
        """The static analysis of this artifact (:mod:`repro.statics`):
        per-``unseq`` footprint/purity annotations — attached to the
        Core term as a side effect — plus the lint findings.

        With ``store`` (an artifact store or directory path) the
        record is cached under the ``"statics"`` kind, keyed like the
        compiled artifact itself (build included): repeated campaigns
        never re-analyse an unchanged program, nor read an old build's."""
        from .statics import (
            analyze_program, apply_annotations, serialize_unseq_info,
        )
        from .statics.lint import LintInterp
        key = None
        if store is not None:
            from .farm.store import as_store
            store = as_store(store)
            key = store.record_key(
                STATICS_RECORD_KIND, self.source, repr(self.impl), name)
            record = store.get_record(key, StaticsRecord,
                                      kind=STATICS_RECORD_KIND)
            if record is not None \
                    and apply_annotations(self.core, record.table):
                return record
        with obs.maybe_span(obs.active(), "pipeline.statics",
                            profile=True, file=name):
            report = analyze_program(self.core, interp_cls=LintInterp)
        record = StaticsRecord(
            serialize_unseq_info(self.core, report),
            list(report.findings),
            report.complete)
        if store is not None:
            store.put_record(key, record, kind=STATICS_RECORD_KIND)
        return record

    def lint(self, store=None, name: str = "<string>") -> list:
        """The definite-UB lint findings for this artifact
        (:class:`repro.statics.lint.Finding` list, sorted by source
        location); ``store`` caches the analysis as in
        :meth:`statics`."""
        return self.statics(store, name).findings

    def explore(self, model: str = "provenance",
                spec: Optional[ExploreSpec] = None, *,
                deadline_s: Optional[float] = None,
                store=None,
                name: str = "<string>",
                **knobs) -> ExplorationResult:
        """Explore the allowed executions (the paper's test-oracle
        mode, §5.1) under ``spec`` with ``knobs`` applied (the
        :class:`~repro.spec.ExploreSpec` fields: the run knobs plus
        ``strategy``, ``por``, ``static_prune``, ``entry`` and the
        path budget ``max_paths``).  ``deadline_s`` bounds the whole
        enumeration by wall-clock (farm per-task timeouts).

        One in-process :class:`~repro.dynamics.explore.Explorer`
        walks the space through
        :func:`~repro.dynamics.explore.explore_space`.  ``store`` (an
        :class:`~repro.farm.store.ArtifactStore` or a directory path)
        makes exploration incremental: a completed record for this
        ``(source, impl, model, name, spec.key())`` space
        (:func:`~repro.dynamics.explore.exploration_key`) is returned
        with zero paths re-run, and an interrupted one persists its
        frontier and is resumed by the next call.  ``name`` is folded
        into the record key (source locations embed it)."""
        from .dynamics.explore import explore_space
        return explore_space(self, model, ExploreSpec.build(spec, **knobs),
                             store=store, name=name,
                             deadline_s=deadline_s)


# -- the content-addressed compile cache --------------------------------------

_CACHE_CAPACITY = 128
_cache_lock = threading.Lock()
_compile_cache: "OrderedDict[str, CompiledProgram]" = OrderedDict()

# Optional second cache level: the process's persistent cross-process
# artifact store (duck-typed to repro.farm.store.ArtifactStore —
# get/put/touch).  Consulted after an in-memory miss and before the
# front end runs; farm batches hand the same handle to their explore
# and lint tasks.
_artifact_store = None


def set_artifact_store(store):
    """Install (or with ``None``, remove) the persistent artifact
    store behind :func:`compile_c`; returns the previous store so
    callers can restore it."""
    global _artifact_store
    with _cache_lock:
        previous = _artifact_store
        _artifact_store = store
    return previous


def get_artifact_store():
    """The currently installed persistent artifact store, if any."""
    return _artifact_store


def _cache_key(source: str, impl: Implementation, name: str) -> str:
    """Content address of one front-end translation: the source text,
    the implementation environment (``repr`` of the frozen dataclass is
    a complete fingerprint), and the name."""
    h = hashlib.sha256()
    for part in (source, repr(impl), name):
        h.update(part.encode("utf-8", "surrogateescape"))
        h.update(b"\x00")
    return h.hexdigest()


def clear_compile_cache() -> None:
    """Drop every cached artifact."""
    with _cache_lock:
        _compile_cache.clear()


def compile_c(source: str, impl: Implementation = LP64,
              name: str = "<string>") -> CompiledProgram:
    """Run the front half of the pipeline: source -> Core.

    Translations are memoised (:func:`clear_compile_cache` forgets
    them, so the next compile translates again); the returned artifact
    is shared, and safe to share, because execution state lives
    entirely in per-run drivers and memory models."""
    ctx = obs.active()
    key = _cache_key(source, impl, name)
    with _cache_lock:
        program = _compile_cache.get(key)
        if program is not None:
            _compile_cache.move_to_end(key)
    if ctx is not None:
        ctx.inc("pipeline.cache_hits" if program is not None
                else "pipeline.cache_misses")
    store = _artifact_store
    if program is not None:
        touch = getattr(store, "touch", None)
        if touch is not None:
            # Keep the persistent entry's LRU recency in step with
            # in-memory hits, or a hot artifact is evicted from disk
            # while cold ones survive.
            touch(source, impl, name)
        return program
    if store is not None:
        program = store.get(source, impl, name)
    if program is None:
        program = _translate(source, impl, name, ctx)
        if store is not None:
            store.put(source, impl, name, program)
    with _cache_lock:
        _compile_cache[key] = program
        _compile_cache.move_to_end(key)
        while len(_compile_cache) > _CACHE_CAPACITY:
            _compile_cache.popitem(last=False)
    return program


def _translate(source: str, impl: Implementation, name: str,
               ctx) -> CompiledProgram:
    """The front end proper (one ``pipeline.translations`` tick)."""
    from .ctypes.types import IntKind
    predefined = {
        # Implementation-defined limit constants used by <limits.h>
        # and <stdint.h> (Fig. 2: "definitions of implementation-
        # defined constants").
        "__cerberus_long_max":
            f"{impl.int_max(IntKind.LONG)}L",
        "__cerberus_ulong_max":
            f"{impl.int_max(IntKind.ULONG)}UL",
    }
    if ctx is not None:
        ctx.inc("pipeline.translations")
    from .cpp.preprocessor import preprocess
    with obs.maybe_span(ctx, "pipeline.lex", profile=True, file=name):
        tokens = preprocess(source, name, predefined=predefined)
    with obs.maybe_span(ctx, "pipeline.parse", profile=True):
        cabs = parse_tokens(tokens)
    with obs.maybe_span(ctx, "pipeline.desugar", profile=True):
        ail = desugar(cabs, impl)
    with obs.maybe_span(ctx, "pipeline.typecheck", profile=True):
        typecheck(ail, impl)
    with obs.maybe_span(ctx, "pipeline.elaborate", profile=True):
        core = elaborate(ail, impl)
    with obs.maybe_span(ctx, "pipeline.check_core", profile=True):
        errors = typecheck_program(core)
    if errors:
        raise CoreTypeError("ill-formed Core produced by "
                            "elaboration:\n" + "\n".join(errors))
    return CompiledProgram(source, impl, cabs, ail, core)


def impl_for_model(model: str,
                   impl: Implementation = LP64) -> Implementation:
    """The implementation environment a model runs under: the cheri
    model needs capability pointers, so the default LP64 choice is
    upgraded to CHERI128 for it (an explicit non-LP64 ``impl`` wins)."""
    if model == "cheri" and impl is LP64:
        return CHERI128
    return impl


def compile_for_model(source: str, model: str,
                      impl: Implementation = LP64,
                      **kwargs) -> CompiledProgram:
    """Compile ``source`` under the environment ``model`` requires."""
    return compile_c(source, impl_for_model(model, impl), **kwargs)


def run_c(source: str, model: str = "provenance",
          impl: Implementation = LP64,
          spec: Optional[RunSpec] = None,
          **knobs) -> Outcome:
    """One-shot: compile (memoised) and run a C program on the chosen
    memory object model, returning the observable Outcome (``knobs``
    as for :meth:`CompiledProgram.run`)."""
    return compile_for_model(source, model, impl).run(
        model, RunSpec.build(spec, **knobs))


def explore_c(source: str, model: str = "provenance",
              impl: Implementation = LP64,
              spec: Optional[ExploreSpec] = None, *,
              deadline_s: Optional[float] = None,
              store=None,
              **knobs) -> ExplorationResult:
    """One-shot: compile (memoised) and explore a C program (``knobs``
    as for :meth:`CompiledProgram.explore`)."""
    return compile_for_model(source, model, impl).explore(
        model, ExploreSpec.build(spec, **knobs), deadline_s=deadline_s,
        store=store)


def _compile_per_impl(source: str, models: Optional[Iterable[str]],
                      impl: Implementation,
                      name: str) -> Dict[str, CompiledProgram]:
    """One front-end translation per distinct implementation
    environment, shared by every model that runs under it (default:
    every registered model)."""
    compiled: Dict[str, CompiledProgram] = {}
    by_model: Dict[str, CompiledProgram] = {}
    for model in (MODELS if models is None else models):
        m_impl = impl_for_model(model, impl)
        if m_impl.name not in compiled:
            compiled[m_impl.name] = compile_c(source, m_impl, name=name)
        by_model[model] = compiled[m_impl.name]
    return by_model


def run_many(source: str, models: Optional[Iterable[str]] = None,
             impl: Implementation = LP64,
             spec: Optional[RunSpec] = None, *,
             name: str = "<string>",
             **knobs) -> Dict[str, Outcome]:
    """Run one program under many memory object models (default: all
    registered), compiling once per distinct implementation
    environment. Returns ``{model: Outcome}`` in request order, with
    verdicts identical to per-model :func:`run_c` calls."""
    spec = RunSpec.build(spec, **knobs)
    programs = _compile_per_impl(source, models, impl, name)
    return {model: program.run(model, spec)
            for model, program in programs.items()}


def explore_many(source: str, models: Optional[Iterable[str]] = None,
                 impl: Implementation = LP64,
                 spec: Optional[ExploreSpec] = None, *,
                 name: str = "<string>",
                 deadline_s: Optional[float] = None,
                 store=None,
                 **knobs) -> Dict[str, ExplorationResult]:
    """Explore one program under many memory object models (default:
    all registered), compiling once per distinct implementation
    environment.  ``deadline_s`` is a per-model wall-clock budget for
    the enumeration; ``store`` (one handle, opened here once when a
    directory is given) persists, reuses and resumes per-model
    exploration records (see :meth:`CompiledProgram.explore`)."""
    spec = ExploreSpec.build(spec, **knobs)
    if store is not None:
        from .farm.store import as_store
        store = as_store(store)
    programs = _compile_per_impl(source, models, impl, name)
    return {model: program.explore(model, spec, deadline_s=deadline_s,
                                   store=store, name=name)
            for model, program in programs.items()}


def lint_c(source: str, impl: Implementation = LP64,
           name: str = "<string>", store=None) -> list:
    """One-shot: compile (memoised) and lint a C program — the
    definite-UB findings of :mod:`repro.statics.lint`, sorted by
    source location; ``store`` caches the analysis as a ``"statics"``
    record (:meth:`CompiledProgram.statics`)."""
    return compile_c(source, impl, name=name).lint(store, name=name)

