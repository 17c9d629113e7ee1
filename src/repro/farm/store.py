"""Persistent, content-addressed cache of what the pipeline computes.

The in-memory compile cache (:mod:`repro.pipeline`) dies with the
process; every fresh CLI invocation, pytest worker, or benchmark round
re-pays the whole front end.  :class:`ArtifactStore` persists pickled
:class:`~repro.pipeline.CompiledProgram` artifacts on disk, keyed on
the same content address as the in-memory cache — the source text, the
implementation environment, the name — plus the build that computed
them.

Beyond compiled artifacts, the store holds derived *records* under
kind-prefixed content addresses (:meth:`ArtifactStore.record_key` /
``get_record`` / ``put_record``): exploration records
(:func:`repro.dynamics.explore.explore_space`), static analyses and
the daemon's job results share the same durability and eviction
machinery.  A
process holds one handle: the entry point (the CLI's ``--store``, the
daemon, :func:`repro.farm.pool.run_tasks` per worker) opens it, every
seam takes it as one ``store`` argument, and :func:`as_store` is the
one normaliser of that argument.

One validity rule, decided here alone: every content address and
entry header carries :func:`code_fingerprint`, so an entry another
build wrote is a miss (it ages out through eviction), and no version
is ever bumped.  The store is purely a cache: the daemon's queue,
which is not, lives beside it in ``<root>/queue/`` (outside
``objects/``, so eviction, ``clear()`` and ``stats()`` never see it).

Durability properties:

* **Atomic writes** — artifacts are written to a temp file in the
  object directory and published with ``os.replace``; readers see the
  old entry or the new one, never a torn write.
* **Corruption fallback** — a truncated, garbled, or foreign file
  deserialises into a miss (and is unlinked best-effort): callers
  recompile or re-explore, they never crash on a bad store.  Each
  such fallback is *visible*: a :class:`StoreCorruptionWarning` is
  issued, and ``store.<kind>.corrupt`` ticks (see Counting below),
  so traces, task ``stats`` and the daemon's ``stats`` reply show it.
* **Bounded size, LRU eviction** — the store never holds more than
  ``max_bytes`` of artifacts; reads refresh an entry's mtime, and the
  least-recently-used entries are evicted first (the newest entry is
  always kept, even if it alone exceeds the bound).
* **Concurrency** — many processes may share one store directory:
  writes are atomic, reads tolerate concurrent eviction, and eviction
  tolerates concurrent unlinks.

Counting: a handle keeps no counters.  Each access ticks
``store.<kind>.hits``/``misses``/``stores``/``corrupt`` (an eviction
pass ``store.evictions``) in the active :mod:`repro.obs` scope, if
any; :meth:`ArtifactStore.stats` is only the directory scan.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pickle
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Optional

from .. import obs

_MAGIC = "cerberus-farm-artifact"

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """The build: sha256 over every ``repro`` module's relative path
    and bytes.  Computed when a process opens its first store (never on
    a storeless run) and kept for its life; forked workers inherit it."""
    package = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(package).as_posix()}\x00"
                 f"{len(data)}\x00".encode("utf-8", "surrogateescape"))
        h.update(data)
    return h.hexdigest()


def write_atomic(path: Path, payload: bytes) -> None:
    """Publish ``payload`` at ``path`` (temp file + ``os.replace``): a
    reader, or a restart after a kill, never sees a torn write."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class StoreCorruptionWarning(UserWarning):
    """A store entry failed to deserialise (truncated, garbled, a bad
    header, or a foreign object under the key).  The entry was dropped
    and the caller fell back to recompiling / re-exploring — correct
    but slow, so the fallback is surfaced rather than silent."""


class ArtifactStore:
    """An on-disk compile cache shared across processes.

    Install into the pipeline with
    :func:`repro.pipeline.set_artifact_store`; ``compile_c`` then
    consults it after the in-memory cache and before the front end.
    ``build`` (for tests) stands in for another build's fingerprint.
    """

    def __init__(self, root, max_bytes: int = _DEFAULT_MAX_BYTES,
                 build: Optional[str] = None):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.build = code_fingerprint() if build is None else build
        # Approximate on-disk footprint, maintained incrementally so
        # a put under the bound costs O(1) — the full directory scan
        # only runs when the estimate crosses ``max_bytes``.  It may
        # drift below reality when other processes write the same
        # store; the scan resynchronises it on every eviction pass.
        self._approx_bytes: Optional[int] = None
        # LRU recency is recorded in entry mtimes.  Wall-clock alone is
        # not enough: a put and a hit within one filesystem timestamp
        # tick would tie, and the name tiebreak could evict the entry
        # that was just touched.  This per-process monotonic clock
        # makes every recency stamp strictly newer than the last one
        # this process assigned.
        self._last_stamp = 0.0

    # -- content addressing ---------------------------------------------------

    def record_key(self, kind: str, *parts: str) -> str:
        """The content address of one stored record: the record
        ``kind`` (``"compiled"``, ``"exploration"``, ...), its
        identifying parts, and the build that computes it.  The kind
        prefix keeps different record families from ever colliding in
        one store directory."""
        h = hashlib.sha256()
        for part in (kind, *parts, self.build):
            h.update(part.encode("utf-8", "surrogateescape"))
            h.update(b"\x00")
        return h.hexdigest()

    def key(self, source: str, impl, name: str = "<string>") -> str:
        """The content address of one translation: source text,
        implementation environment (``repr`` of the frozen dataclass
        is a complete fingerprint), name, build."""
        return self.record_key("compiled", source, repr(impl), name)

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.pkl"

    # -- read side ------------------------------------------------------------

    @staticmethod
    def _count(kind: str, *events: str) -> None:
        """Tick ``store.<kind>.<event>`` in the active obs scope."""
        ctx = obs.active()
        if ctx is not None:
            for event in events:
                ctx.inc(f"store.{kind}.{event}")

    def _load(self, key: str, expect=None, kind: str = "compiled"):
        """Load any stored object by key, or ``None`` on miss.

        Any failure — missing file, short read, unpickling error,
        wrong magic or build, or (with ``expect``) an object of the
        wrong type under the key — is a miss; a damaged entry is
        dropped so the regenerated object can replace it, with a
        :class:`StoreCorruptionWarning` so the fallback is visible."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count(kind, "misses")
            return None
        try:
            magic, build, stored_key, obj = pickle.loads(blob)
            if (magic != _MAGIC or build != self.build
                    or stored_key != key):
                raise ValueError("store entry header mismatch")
            if expect is not None and not isinstance(obj, expect):
                raise ValueError("foreign object under the key")
        except Exception:
            self._count(kind, "corrupt", "misses")
            warnings.warn(
                f"dropping corrupt {kind!r} store entry "
                f"{key[:12]}... (falling back to regeneration)",
                StoreCorruptionWarning, stacklevel=3)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        # Refresh recency for LRU eviction.
        self._stamp_recency(path)
        self._count(kind, "hits")
        return obj

    def get(self, source: str, impl, name: str = "<string>"):
        """Load a compiled artifact, or ``None`` on miss (callers
        silently recompile — they never crash on a bad store)."""
        return self._load(self.key(source, impl, name))

    def get_record(self, key: str, expect=None,
                   kind: str = "record"):
        """Load an auxiliary record (e.g. an exploration record) by a
        :meth:`record_key` address, or ``None`` on miss.  Damaged,
        foreign-build, or (with ``expect``) wrong-type entries are
        misses — counted as such — exactly as for artifacts.  Pass
        the same ``kind`` used to build the key so the
        ``store.<kind>.*`` counters attribute the access correctly."""
        return self._load(key, expect, kind)

    def touch(self, source: str, impl, name: str = "<string>") -> None:
        """Refresh an entry's LRU recency without deserialising it.

        The pipeline's in-memory cache absorbs repeated ``compile_c``
        calls, so a *hot* artifact would otherwise never have its
        on-disk mtime refreshed after the first read — it looks cold to
        eviction while genuinely cold entries written later survive.
        ``compile_c`` calls this on every in-memory hit."""
        self._stamp_recency(self._path(self.key(source, impl, name)))

    def _stamp_recency(self, path: Path) -> None:
        """Mark ``path`` as the most recently used entry: a timestamp
        strictly newer than any this process has assigned before (plain
        ``os.utime(path, None)`` can tie with a put in the same
        filesystem timestamp tick)."""
        stamp = max(time.time(), self._last_stamp + 1e-4)
        self._last_stamp = stamp
        try:
            os.utime(path, (stamp, stamp))
        except OSError:
            pass

    # -- write side -----------------------------------------------------------

    def _save(self, key: str, obj, kind: str = "compiled") -> None:
        """Persist any object atomically under ``key``, then enforce
        the size bound (records and artifacts share one LRU budget)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps((_MAGIC, self.build, key, obj),
                               protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(path, payload)
        self._stamp_recency(path)
        self._count(kind, "stores")
        if self._approx_bytes is None:
            self._approx_bytes = self.size_bytes()
        else:
            self._approx_bytes += len(payload)
        if self._approx_bytes > self.max_bytes:
            self._evict(keep=path)

    def put(self, source: str, impl, name: str, program) -> None:
        """Persist a compiled artifact atomically, then enforce the
        size bound."""
        self._save(self.key(source, impl, name), program)

    def put_record(self, key: str, obj, kind: str = "record") -> None:
        """Persist an auxiliary record under a :meth:`record_key`
        address.  Records ride the exact same durability machinery as
        compiled artifacts: atomic publish, corruption -> miss, and
        the shared size-bounded LRU (exploration bytes count against
        ``max_bytes`` like any other entry)."""
        self._save(key, obj, kind)

    def _entries(self):
        """All stored artifacts as (mtime, size, path), oldest first."""
        out = []
        for path in self.objects.glob("*/*.pkl"):   # not a .tmp file
            try:
                st = path.stat()
            except OSError:
                continue  # concurrently evicted
            out.append((st.st_mtime, st.st_size, path))
        out.sort(key=lambda e: (e[0], e[2].name))
        return out

    def _evict(self, keep: Optional[Path] = None) -> None:
        """Drop least-recently-used entries until the store fits in
        ``max_bytes`` (the ``keep`` entry survives regardless)."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # another process got there first
            total -= size
            evicted += 1
        self._approx_bytes = total  # resynchronised with the scan
        ctx = obs.active()
        if evicted and ctx is not None:
            ctx.inc("store.evictions", evicted)

    # -- observability --------------------------------------------------------

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def stats(self) -> Dict[str, int]:
        """The on-disk footprint, from one directory scan."""
        entries = self._entries()
        return {"entries": len(entries),
                "size_bytes": sum(size for _, size, _ in entries)}

    def clear(self) -> None:
        """Drop every stored artifact."""
        for _, _, path in self._entries():
            try:
                path.unlink()
            except OSError:
                pass
        self._approx_bytes = 0


def as_store(store) -> Optional[ArtifactStore]:
    """The one normaliser of a ``store`` argument: ``None`` stays
    ``None``, a handle passes through, and a directory path (``str``
    or :class:`~pathlib.Path`) opens a handle on it.  An explicit type
    check, not duck typing: ``pathlib.Path`` has a ``.root`` of its
    own (the filesystem root)."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)
