"""Node classes built on first use.

The syntax trees (Cabs, Ail, Core), the C types and the runtime values
are some two hundred dataclasses.  Decorating them all eagerly compiles
an ``__init__``, a ``__repr__`` and an ``__eq__`` for each (and a
``__setattr__``, a ``__delattr__`` and a ``__hash__`` for each frozen
one) on every import, although a run constructs about half of the
classes and compares, hashes or prints only a few.

:func:`nodeclass` replaces ``@dataclass`` / ``@dataclass(frozen=True)``
on those classes.  It leaves the class as its body defined it plus two
stubs, ``__init__`` and ``__setstate__``, and the first time the class
or a subclass is constructed, copied or unpickled a stub builds it,
under a lock: the class's unbuilt bases first, then
``dataclasses.dataclass(cls, eq=False, repr=False, frozen=...)``, then
``__eq__``, ``__hash__`` and ``__repr__`` as functions shared by every
class with the same field names.  They return what the generated
methods return — the same tuple comparison, the same ``hash`` of the
same tuple (so set and dict order is unchanged), the same text — and
follow dataclass's rules: a method the class body defines is kept, a
frozen class hashes its fields and a mutable one is unhashable.

No instance of an unbuilt class exists.  An instance whose ``__dict__``
is empty would be copied or unpickled without ``__setstate__``, so a
class without fields pickles its empty ``__dict__`` as its state.  (A
first construction in another thread while a class is being built
could find it half built; the package constructs nodes in one thread
at a time.)
"""

from __future__ import annotations

import _thread
import dataclasses
import functools
import os
import threading
from operator import attrgetter

#: Every class :func:`nodeclass` manages, in definition order.
MANAGED: list = []
#: The managed classes not yet built, each with its ``frozen`` option.
_unbuilt: dict = {}
_lock = threading.RLock()


def _fresh_lock() -> None:
    global _lock
    _lock = threading.RLock()


# A fork in the middle of a build must not leave the child's lock held.
os.register_at_fork(after_in_child=_fresh_lock)


def nodeclass(cls=None, /, *, frozen: bool = False):
    """``@dataclass`` or ``@dataclass(frozen=True)``, built on first
    use (see the module docstring)."""
    def wrap(cls):
        MANAGED.append(cls)
        _unbuilt[cls] = frozen
        cls.__init__ = _build_and_init
        cls.__setstate__ = _build_and_setstate
        return cls
    return wrap if cls is None else wrap(cls)


def is_built(cls) -> bool:
    """Whether ``cls`` is not (or no longer) waiting to be built."""
    return cls not in _unbuilt


def _build_and_init(self, *args, **kwargs):
    _build_with_bases(type(self))
    type(self).__init__(self, *args, **kwargs)


def _build_and_setstate(self, state) -> None:
    _build_with_bases(type(self))
    self.__dict__.update(state)


def _build_with_bases(cls) -> None:
    with _lock:
        for base in reversed(cls.__mro__):
            if base in _unbuilt:
                _build(base, _unbuilt[base])
                del _unbuilt[base]


def _build(cls, frozen: bool) -> None:
    own = cls.__dict__
    explicit_hash = "__hash__" in own and not (
        own["__hash__"] is None and "__eq__" in own)
    del cls.__init__
    dataclasses.dataclass(cls, eq=False, repr=False, frozen=frozen)
    fields = dataclasses.fields(cls)
    if "__eq__" not in own:
        cls.__eq__ = _eq(tuple(f.name for f in fields if f.compare))
    if not explicit_hash:
        cls.__hash__ = _hash(tuple(
            f.name for f in fields
            if (f.compare if f.hash is None else f.hash))) \
            if frozen else None
    if "__repr__" not in own:
        cls.__repr__ = _repr(tuple(f.name for f in fields if f.repr))
    if not fields:
        cls.__getstate__ = _dict_state
    del cls.__setstate__


def _dict_state(self) -> dict:
    return self.__dict__


# -- the shared methods: one per tuple of field names -------------------------

@functools.cache
def _eq(names: tuple):
    if len(names) == 1:         # the common case, one call fewer
        get = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented
        return __eq__
    values = _values(names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented
    return __eq__


@functools.cache
def _hash(names: tuple):
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda self: hash((get(self),))
    values = _values(names)
    return lambda self: hash(values(self))


def _values(names: tuple):
    """The function from an instance to the tuple of its ``names``
    (two or more, or none)."""
    return attrgetter(*names) if names else lambda self: ()


_repr_running: set = set()


@functools.cache
def _repr(names: tuple):
    def __repr__(self):
        key = id(self), _thread.get_ident()
        if key in _repr_running:
            return "..."
        _repr_running.add(key)
        try:
            return self.__class__.__qualname__ + "(" + ", ".join(
                f"{name}={getattr(self, name)!r}" for name in names) + ")"
        finally:
            _repr_running.discard(key)
    return __repr__
