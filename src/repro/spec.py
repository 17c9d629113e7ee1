"""One semantic spec: the knobs that decide what a run or an
exploration of a compiled C program means.

The paper's tool is one semantics parameterised by a memory object
model and an exploration mode (§5.1), used as a test oracle that
compares behaviour sets across those parameters — so every knob must
mean the same thing at every entry point.  Two frozen dataclasses own
the knobs' defaults, validation, JSON form and keys:

* :class:`RunSpec` — one execution: the evaluator ``backend``, the
  oracle ``seed``, the per-path step budget ``max_steps``, the
  :class:`~repro.memory.base.MemoryOptions` ``options``, and CHERI's
  ``exact_equality`` (ignored by the other models);
* :class:`ExploreSpec` — an exploration: a :class:`RunSpec` plus the
  search ``strategy``, partial-order reduction ``por``, static
  pre-pruning ``static_prune``, the ``entry`` procedure, and the path
  budget ``max_paths``.

What a spec applies to stays outside it: the source, implementation
environment, file name and memory model.  So do ``deadline_s`` and
``store``, which bound or cache one invocation without changing its
behaviour set.

The keyword APIs (:meth:`repro.pipeline.CompiledProgram.run` /
``explore``, ``run_c`` / ``explore_c``, ``run_many`` /
``explore_many``, :meth:`repro.farm.client.FarmClient.submit`, the
CLI) build the spec once with :meth:`RunSpec.build`, so an unknown
keyword is a ``TypeError``; every seam below them takes the spec.
:meth:`RunSpec.key` is the exploration-record key (it leaves out the
``max_paths`` budget, so an interrupted exploration resumes under any
budget), and daemon job ids and CLI trace run ids hash
:meth:`RunSpec.to_json`, i.e. every field.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from .memory.base import MemoryOptions

#: The evaluator back ends (see :mod:`repro.dynamics`).
BACKENDS = ("compiled", "tree")

#: The search strategies, sorted (see
#: :mod:`repro.dynamics.explore.strategies`).
STRATEGIES = ("bfs", "coverage", "dfs", "random")

#: Fields that bound how much of a space one call walks, not which
#: space: left out of :meth:`RunSpec.key`.
BUDGETS = ("max_paths",)


class SpecError(ValueError):
    """A spec field of the wrong type or outside its domain (``field``
    names it, so the daemon can report it as a ``bad-field``)."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(detail)
        self.field = field_name


def choices(name: str) -> tuple:
    """The closed value domain of the spec field ``name`` (the fields
    whose metadata carries ``choices``)."""
    return BACKENDS if name == "backend" else STRATEGIES


def _admits(ty, value) -> bool:
    if typing.get_origin(ty) is typing.Union:
        return any(_admits(t, value) for t in typing.get_args(ty))
    if ty is type(None):
        return value is None
    if ty is int:
        # JSON true/false is not an acceptable integer.
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, ty)


_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def _check_types(obj, where: str = "") -> None:
    """One walk over a dataclass's field types."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _admits(hints[f.name], value):
            raise SpecError(where or f.name,
                            f"{where + '.' if where else ''}{f.name} "
                            f"has the wrong type "
                            f"({type(value).__name__})")


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """The semantic knobs of one execution (see the module docstring)."""

    backend: str = field(default="compiled",
                         metadata={"choices": True})
    seed: Optional[int] = None
    max_steps: int = field(default=2_000_000,
                           metadata={"positive": True})
    options: Optional[MemoryOptions] = None
    exact_equality: bool = False

    def __post_init__(self) -> None:
        _check_types(self)
        if self.options is not None:
            _check_types(self.options, "options")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata.get("positive") and value <= 0:
                raise SpecError(f.name, f"{f.name} must be positive, "
                                        f"got {value}")
            if f.metadata.get("choices") \
                    and value not in choices(f.name):
                raise SpecError(
                    f.name, f"{f.name} must be one of "
                    f"{', '.join(choices(f.name))}, got {value!r}")

    @classmethod
    def build(cls, spec: Optional["RunSpec"] = None, **knobs):
        """The spec a keyword call means: ``spec`` (default ``cls()``)
        with ``knobs`` replaced.  An unknown keyword is a
        ``TypeError``, never a silently dropped knob."""
        if spec is None:
            return cls(**knobs)
        if not isinstance(spec, cls):
            raise TypeError(f"expected a {cls.__name__}, got "
                            f"{type(spec).__name__}")
        return replace(spec, **knobs) if knobs else spec

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in fields(cls))

    def to_json(self) -> dict:
        """Every field as JSON: ``options`` is null or its field map."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict):
        """The inverse of :meth:`to_json`; absent fields take their
        defaults.  Raises :class:`SpecError` naming the bad field."""
        unknown = sorted(set(data) - cls.field_names())
        if unknown:
            raise SpecError(unknown[0], f"unknown field {unknown[0]!r}")
        values = dict(data)
        options = values.get("options")
        if isinstance(options, dict):
            try:
                values["options"] = MemoryOptions(**options)
            except TypeError as exc:
                raise SpecError("options", f"options: {exc}") from None
        return cls(**values)

    def key(self) -> str:
        """The canonical text of every field but the budgets."""
        return json.dumps({k: v for k, v in self.to_json().items()
                           if k not in BUDGETS}, sort_keys=True)


@dataclass(frozen=True, kw_only=True)
class ExploreSpec(RunSpec):
    """The semantic knobs of one exploration: a :class:`RunSpec`
    (with a smaller per-path step budget) plus the search."""

    max_steps: int = field(default=500_000,
                           metadata={"positive": True})
    strategy: str = field(default="dfs",
                          metadata={"choices": True})
    por: bool = False
    static_prune: bool = False
    entry: str = "main"
    max_paths: int = field(default=500, metadata={"positive": True})
