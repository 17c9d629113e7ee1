"""The Cerberus-py pipeline facade (paper Fig. 1).

Translation is split from execution so the front end runs once per
program:

* :func:`compile_c` pushes C source through the whole front end —
  preprocess, parse (Cabs), desugar (Ail), typecheck (Typed Ail),
  elaborate (Core) — and returns a reusable :class:`CompiledProgram`.
  Results are memoised in a bounded content-addressed in-memory cache
  keyed on ``(source, impl, flags)``; see :func:`compile_cache_stats`
  and :func:`clear_compile_cache`.  A persistent cross-process second
  level (an artifact store from :mod:`repro.farm.store`) can be
  installed with :func:`set_artifact_store`: it is consulted after an
  in-memory miss and filled after each front-end translation, so
  repeated CLI / pytest / benchmark invocations skip the front end
  entirely.
* :meth:`CompiledProgram.run` / :meth:`CompiledProgram.explore` execute
  the compiled artifact against a chosen memory object model in
  single-path or exhaustive mode — any number of times, under any
  number of models, without re-elaborating.  ``explore(store=)``
  additionally persists exploration results in the artifact store
  (:mod:`repro.farm.explorestore`): unchanged programs are never
  re-explored, and interrupted explorations resume from their
  persisted frontier.
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
from typing import Dict, Iterable, Optional

from . import obs
from .ail.desugar import desugar
from .ail import ast as A
from .cabs import ast as C
from .core import ast as K
from .core.typecheck import typecheck_program
from .cparser import parse_tokens
from .ctypes.implementation import Implementation, LP64, CHERI128
from .dynamics.driver import Oracle, Outcome, run_program
from .dynamics.explore import ExplorationResult, explore_program
from .elab import elaborate
from .errors import CoreTypeError
from .memory.base import MemoryModel
from .memory.cheri import CheriModel
from .memory.concrete import ConcreteModel
from .memory.provenance import GccPersonaModel, ProvenanceModel
from .memory.strict import StrictIsoModel
from .spec import ExploreSpec, RunSpec
from .typing import typecheck

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
    :func:`repro.statics.collect_unseqs` order), the lint findings,
    and whether the abstract interpretation ran to completion (an
    aborted analysis keeps its findings — each is independently
    sound — but discards annotations)."""

    version: int
    table: list
    findings: list
    complete: bool


def _as_artifact_store(store):
    """Normalise any store-ish argument (an ``ArtifactStore``, an
    ``ExploreStore`` view, or a directory path) to the backing
    :class:`~repro.farm.store.ArtifactStore`."""
    if store is None:
        return None
    if hasattr(store, "record_key"):
        return store
    inner = getattr(store, "store", None)
    if inner is not None and hasattr(inner, "record_key"):
        return inner
    from .farm.store import ArtifactStore
    return ArtifactStore(store)


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

    def lowered(self, store=None, name: str = "<string>"):
        """The compiled back end's lowering of this artifact
        (:class:`~repro.dynamics.compile.LoweredProgram`), cached on
        the Core term.

        With ``store`` (an artifact store or directory path) the
        lowering is also kept in the process-local
        :data:`repro.farm.store.WARM_CLOSURES` cache, keyed on the
        artifact's content address (source, implementation, name,
        ``LOWERED_VERSION``, store schema), so repeat explorations of
        the same artifact — even through a fresh ``CompiledProgram``
        instance — skip re-lowering entirely.  Adoption is sound
        because Core is a deterministic function of (source, impl,
        name): closures resolve the evaluator, model, and global
        environment at run time, and static annotations are keyed
        positionally (see ``CompiledEvaluator``)."""
        from .dynamics.compile import LOWERED_VERSION, ensure_lowered
        from .farm.store import WARM_CLOSURES
        store = _as_artifact_store(store)
        key = None
        if store is not None:
            key = store.record_key(
                WARM_CLOSURES.kind, self.source, repr(self.impl), name,
                str(LOWERED_VERSION))
            if getattr(self.core, "_lowered", None) is None:
                warm = WARM_CLOSURES.get(key)
                if warm is not None:
                    self.core._lowered = warm
                    return warm
        ctx = obs.active()
        with obs.maybe_span(ctx, "pipeline.lower", profile=True,
                            file=name):
            lowered = ensure_lowered(self.core)
        if ctx is not None:
            for fkind, count in lowered.fused.items():
                if count:
                    ctx.inc(f"compile.fused.{fkind}", count)
        if key is not None:
            WARM_CLOSURES.put(key, lowered)
        return lowered

    def statics(self, store=None,
                name: str = "<string>") -> StaticsRecord:
        """The static analysis of this artifact (:mod:`repro.statics`):
        per-``unseq`` footprint/purity annotations — attached to the
        Core term as a side effect — plus the lint findings.

        With ``store`` (an artifact store or directory path) the
        record is cached under the ``"statics"`` kind, keyed like the
        compiled artifact itself plus ``STATICS_VERSION``, so repeated
        campaigns never re-analyse an unchanged program."""
        from .statics import (
            STATICS_VERSION, analyze_program, apply_annotations,
            serialize_unseq_info,
        )
        from .statics.lint import LintInterp
        store = _as_artifact_store(store)
        key = None
        if store is not None:
            key = store.record_key(
                STATICS_RECORD_KIND, self.source, repr(self.impl),
                name, str(STATICS_VERSION))
            record = store.get_record(key, StaticsRecord,
                                      kind=STATICS_RECORD_KIND)
            if record is not None \
                    and record.version == STATICS_VERSION \
                    and apply_annotations(self.core, record.table):
                return record
        with obs.maybe_span(obs.active(), "pipeline.statics",
                            profile=True, file=name):
            report = analyze_program(self.core, interp_cls=LintInterp)
        record = StaticsRecord(
            STATICS_VERSION,
            serialize_unseq_info(self.core, report),
            list(report.findings),
            report.complete)
        if store is not None and key is not None:
            store.put_record(key, record, kind=STATICS_RECORD_KIND)
        return record

    def lint(self, store=None, name: str = "<string>") -> list:
        """The definite-UB lint findings for this artifact
        (:class:`repro.statics.lint.Finding` list, sorted by source
        location)."""
        return self.statics(store, name).findings

    def explore(self, model: str = "provenance",
                spec: Optional[ExploreSpec] = None, *,
                deadline_s: Optional[float] = None,
                store=None,
                resume: bool = True,
                name: str = "<string>",
                **knobs) -> ExplorationResult:
        """Explore the allowed executions (the paper's test-oracle
        mode, §5.1) under ``spec`` with ``knobs`` applied (the
        :class:`~repro.spec.ExploreSpec` fields: the run knobs plus
        ``strategy``, ``por``, ``static_prune``, ``entry`` and the
        path budget ``max_paths``).  ``deadline_s`` bounds the whole
        enumeration by wall-clock (farm per-task timeouts).

        ``store`` (an :class:`~repro.farm.explorestore.ExploreStore`,
        an :class:`~repro.farm.store.ArtifactStore`, or a directory
        path) makes exploration incremental: a completed result for
        this ``(source, impl, model, name, spec.key())`` space is
        returned with zero paths re-run, an interrupted one persists
        its frontier, and ``resume=True`` picks it up where it
        stopped.  ``name`` is folded into the record key (source
        locations embed it)."""
        spec = ExploreSpec.build(spec, **knobs)
        cache_key = None
        if store is not None:
            from .farm.explorestore import ExploreStore
            store = ExploreStore.wrap(store)
            cache_key = store.key(self.source, self.impl, model, name,
                                  spec)
            if spec.static_prune:
                # Attach (store-cached) footprint annotations ahead of
                # the engine's own ensure_annotated fallback.
                self.statics(store, name=name)
            if spec.backend == "compiled":
                # Pre-warm the lowering so per-path drivers find it on
                # the Core term instead of each racing to lower it.
                self.lowered(store, name=name)
        return explore_program(
            self.core, lambda: self.make_model(model, spec), spec,
            deadline_s=deadline_s, store=store, resume=resume,
            cache_key=cache_key)


# -- the content-addressed compile cache --------------------------------------

_CACHE_CAPACITY = 128
_cache_lock = threading.Lock()
_compile_cache: "OrderedDict[str, CompiledProgram]" = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0,
                "translations": 0, "store_hits": 0}

# Optional second cache level: a persistent cross-process artifact
# store (duck-typed to repro.farm.store.ArtifactStore — get/put/stats).
# Consulted after an in-memory miss and before the front end runs.
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


def _cache_key(source: str, impl: Implementation, name: str,
               check_core: bool) -> str:
    """Content address of one front-end translation: the source text,
    the implementation environment (``repr`` of the frozen dataclass is
    a complete fingerprint), and the compile flags."""
    h = hashlib.sha256()
    for part in (source, repr(impl), name, str(check_core)):
        h.update(part.encode("utf-8", "surrogateescape"))
        h.update(b"\x00")
    return h.hexdigest()


def clear_compile_cache() -> None:
    """Drop every cached artifact and reset the hit/miss counters."""
    with _cache_lock:
        _compile_cache.clear()
        for k in _cache_stats:
            _cache_stats[k] = 0


def compile_cache_stats() -> Dict[str, int]:
    """Cache observability: hits, misses, evictions, current size."""
    with _cache_lock:
        return dict(_cache_stats, size=len(_compile_cache))


def compile_c(source: str, impl: Implementation = LP64,
              name: str = "<string>",
              check_core: bool = True,
              use_cache: bool = True) -> CompiledProgram:
    """Run the front half of the pipeline: source -> Core.

    Translations are memoised (``use_cache=False`` bypasses the cache,
    e.g. for benchmarking the raw front end); the returned artifact is
    shared, and safe to share, because execution state lives entirely
    in per-run drivers and memory models."""
    ctx = obs.active()
    key = _cache_key(source, impl, name, check_core) if use_cache \
        else None
    if key is not None:
        with _cache_lock:
            cached = _compile_cache.get(key)
            if cached is not None:
                _compile_cache.move_to_end(key)
                _cache_stats["hits"] += 1
            else:
                _cache_stats["misses"] += 1
        if ctx is not None:
            ctx.inc("pipeline.cache_hits" if cached is not None
                    else "pipeline.cache_misses")
        if cached is not None:
            store = _artifact_store
            touch = getattr(store, "touch", None)
            if touch is not None:
                # Keep the persistent entry's LRU recency in step with
                # in-memory hits, or a hot artifact is evicted from
                # disk while cold ones survive.
                touch(source, impl, name, check_core)
            return cached
        store = _artifact_store
        if store is not None:
            program = store.get(source, impl, name, check_core)
            if program is not None:
                with _cache_lock:
                    _cache_stats["store_hits"] += 1
                    _compile_cache[key] = program
                    _compile_cache.move_to_end(key)
                    while len(_compile_cache) > _CACHE_CAPACITY:
                        _compile_cache.popitem(last=False)
                        _cache_stats["evictions"] += 1
                return program
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
    with _cache_lock:
        _cache_stats["translations"] += 1
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
    if check_core:
        with obs.maybe_span(ctx, "pipeline.check_core", profile=True):
            errors = typecheck_program(core)
        if errors:
            raise CoreTypeError("ill-formed Core produced by "
                                "elaboration:\n" + "\n".join(errors))
    program = CompiledProgram(source, impl, cabs, ail, core)
    if key is not None:
        with _cache_lock:
            _compile_cache[key] = program
            _compile_cache.move_to_end(key)
            while len(_compile_cache) > _CACHE_CAPACITY:
                _compile_cache.popitem(last=False)
                _cache_stats["evictions"] += 1
        store = _artifact_store
        if store is not None:
            store.put(source, impl, name, check_core, program)
    return program


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
              resume: bool = True,
              **knobs) -> ExplorationResult:
    """One-shot: compile (memoised) and explore a C program (``knobs``
    as for :meth:`CompiledProgram.explore`)."""
    return compile_for_model(source, model, impl).explore(
        model, ExploreSpec.build(spec, **knobs), deadline_s=deadline_s,
        store=store, resume=resume)


def _compile_per_impl(source: str, models: Optional[Iterable[str]],
                      impl: Implementation, name: str,
                      use_cache: bool) -> Dict[str, CompiledProgram]:
    """One front-end translation per distinct implementation
    environment, shared by every model that runs under it (default:
    every registered model)."""
    compiled: Dict[str, CompiledProgram] = {}
    by_model: Dict[str, CompiledProgram] = {}
    for model in (MODELS if models is None else models):
        m_impl = impl_for_model(model, impl)
        if m_impl.name not in compiled:
            compiled[m_impl.name] = compile_c(source, m_impl, name=name,
                                              use_cache=use_cache)
        by_model[model] = compiled[m_impl.name]
    return by_model


def run_many(source: str, models: Optional[Iterable[str]] = None,
             impl: Implementation = LP64,
             spec: Optional[RunSpec] = None, *,
             name: str = "<string>",
             use_cache: bool = True,
             **knobs) -> Dict[str, Outcome]:
    """Run one program under many memory object models (default: all
    registered), compiling once per distinct implementation
    environment. Returns ``{model: Outcome}`` in request order, with
    verdicts identical to per-model :func:`run_c` calls."""
    spec = RunSpec.build(spec, **knobs)
    programs = _compile_per_impl(source, models, impl, name, use_cache)
    return {model: program.run(model, spec)
            for model, program in programs.items()}


def explore_many(source: str, models: Optional[Iterable[str]] = None,
                 impl: Implementation = LP64,
                 spec: Optional[ExploreSpec] = None, *,
                 name: str = "<string>",
                 use_cache: bool = True,
                 deadline_s: Optional[float] = None,
                 store=None,
                 resume: bool = True,
                 **knobs) -> Dict[str, ExplorationResult]:
    """Explore one program under many memory object models (default:
    all registered), compiling once per distinct implementation
    environment.  ``deadline_s`` is a per-model wall-clock budget for
    the enumeration; ``store``/``resume`` persist and reuse per-model
    exploration records (see :meth:`CompiledProgram.explore`)."""
    spec = ExploreSpec.build(spec, **knobs)
    if store is not None:
        from .farm.explorestore import ExploreStore
        store = ExploreStore.wrap(store)
    programs = _compile_per_impl(source, models, impl, name, use_cache)
    return {model: program.explore(model, spec, deadline_s=deadline_s,
                                   store=store, resume=resume,
                                   name=name)
            for model, program in programs.items()}


def lint_c(source: str, impl: Implementation = LP64,
           name: str = "<string>", store=None,
           use_cache: bool = True) -> list:
    """One-shot: compile (memoised) and lint a C program — the
    definite-UB findings of :mod:`repro.statics.lint`, sorted by
    source location."""
    return compile_c(source, impl, name=name,
                     use_cache=use_cache).lint(store, name=name)

