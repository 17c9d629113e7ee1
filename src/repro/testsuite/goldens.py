"""Golden-verdict conformance suite.

The per-question verdicts this reproduction computes — the distinct
behaviour set of every de facto test program under every memory object
model — are themselves a corpus worth pinning: they *are* the paper's
reproduced answers.  This module freezes them as a checked-in JSON
document (``tests/goldens/verdicts.json``) so every future change is
diffed against them: a refactor that silently flips one verdict, adds
a behaviour, or moves a UB site fails ``tests/test_goldens.py``
instead of drifting unnoticed.

Each golden cell is the sorted list of :meth:`Outcome.summary` strings
of one bounded, deterministic exploration (``dfs``, the
oracle-of-record, with a fixed path/step budget) — so UB behaviours
pin both the UB *name* and its source *site*, and nondeterministic
programs pin their whole behaviour set, not one sampled path.

Regenerate deliberately after a semantics change::

    python -m repro.testsuite --update-goldens

and review the diff like any other source change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import CerberusError
from ..pipeline import MODELS, compile_for_model
from ..spec import ExploreSpec
from .programs import TESTS

#: Bump when the golden document layout (not the verdicts) changes.
GOLDEN_SCHEMA = 1

#: The bounded deterministic exploration every golden cell records.
GOLDEN_MAX_PATHS = 64
GOLDEN_MAX_STEPS = 400_000
GOLDEN_SPEC = ExploreSpec(max_paths=GOLDEN_MAX_PATHS,
                          max_steps=GOLDEN_MAX_STEPS)

Verdicts = Dict[str, Dict[str, List[str]]]


def default_golden_path() -> Path:
    """``tests/goldens/verdicts.json`` in a source checkout (three
    levels above this package: ``src/repro/testsuite``)."""
    return (Path(__file__).resolve().parents[3]
            / "tests" / "goldens" / "verdicts.json")


def behaviour_set(source: str, model: str,
                  spec: ExploreSpec = GOLDEN_SPEC,
                  store=None) -> List[str]:
    """The golden form of one test × model cell: the sorted distinct
    behaviour summaries of a bounded exploration under ``spec`` (UB
    name + site included), or a one-element ``error:<Type>`` list
    when the front end rejects the program under that model's
    environment.  Goldens are pinned to be byte-identical under both
    back ends (``spec.backend``), which is exactly what
    ``tests/test_compile_backend.py`` checks."""
    try:
        program = compile_for_model(source, model)
        result = program.explore(model, spec, store=store)
    except CerberusError as exc:
        return [f"error:{type(exc).__name__}"]
    return sorted(o.summary() for o in result.distinct())


def compute_verdicts(models: Optional[Sequence[str]] = None,
                     names: Optional[Sequence[str]] = None,
                     spec: ExploreSpec = GOLDEN_SPEC,
                     store=None) -> Verdicts:
    """Live verdicts for ``names`` × ``models`` (default: the whole
    suite across all registered memory models) under ``spec``.
    ``store`` (an :class:`~repro.farm.store.ArtifactStore`)
    optionally persists the explorations as records
    (:func:`repro.dynamics.explore.explore_space`), so golden
    regeneration rides the incremental re-exploration seam too."""
    model_list = list(models) if models is not None else list(MODELS)
    out: Verdicts = {}
    for name in (sorted(TESTS) if names is None else names):
        test = TESTS[name]
        out[name] = {model: behaviour_set(test.source, model, spec,
                                          store=store)
                     for model in model_list}
    return out


def golden_document(verdicts: Verdicts,
                    spec: ExploreSpec = GOLDEN_SPEC) -> dict:
    models = sorted({m for cells in verdicts.values() for m in cells})
    return {"schema": GOLDEN_SCHEMA,
            "max_paths": spec.max_paths,
            "max_steps": spec.max_steps,
            "models": models,
            "verdicts": verdicts}


def load_goldens(path=None) -> dict:
    path = default_golden_path() if path is None else Path(path)
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden schema {doc.get('schema')!r} != {GOLDEN_SCHEMA} "
            f"(regenerate with python -m repro.testsuite "
            f"--update-goldens)")
    return doc


def diff_goldens(doc: dict, live: Verdicts) -> List[str]:
    """Human-readable mismatches between a golden document and live
    verdicts: one line per divergent/missing cell, empty when they
    conform.  Cells absent from ``live`` (a partial recomputation) are
    skipped — only what was recomputed is compared."""
    golden: Verdicts = doc["verdicts"]
    lines: List[str] = []
    for name, cells in sorted(live.items()):
        pinned = golden.get(name)
        if pinned is None:
            lines.append(f"{name}: not pinned in goldens "
                         f"(--update-goldens to add it)")
            continue
        for model, behaviours in sorted(cells.items()):
            expected = pinned.get(model)
            if expected is None:
                lines.append(f"{name} [{model}]: model not pinned")
            elif expected != behaviours:
                lines.append(f"{name} [{model}]:\n"
                             f"  golden: {expected}\n"
                             f"  live:   {behaviours}")
    return lines


def update_goldens(path=None,
                   models: Optional[Sequence[str]] = None,
                   names: Optional[Sequence[str]] = None,
                   store=None) -> Path:
    """Recompute and write the golden document; returns the path.

    A restricted regeneration (``models`` and/or ``names`` subset)
    merges into the existing document instead of replacing it: cells
    outside the subset keep their pinned verdicts (pins for tests
    that no longer exist are dropped)."""
    path = default_golden_path() if path is None else Path(path)
    verdicts = compute_verdicts(models=models, names=names,
                                store=store)
    if (models is not None or names is not None) and path.exists():
        try:
            existing = load_goldens(path)["verdicts"]
        except (OSError, ValueError):
            existing = {}
        merged: Verdicts = {n: dict(c) for n, c in existing.items()
                            if n in TESTS}
        for name, cells in verdicts.items():
            merged.setdefault(name, {}).update(cells)
        verdicts = merged
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(golden_document(verdicts), f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return path
