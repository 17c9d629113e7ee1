"""The persistent artifact store: durability, bounds, build keying.

Covers the store's contract end to end: cache hits across *separate
processes* (a subprocess round-trip), silent recompilation on
corrupted or truncated artifacts, LRU eviction under the size bound,
and invalidation by a change of build (a stand-in ``build=``) — for
compiled artifacts *and* for every record kind that shares the store:
exploration records (:func:`repro.dynamics.explore.explore_space`),
static analyses and the daemon's job results.
"""

import os
import pickle
from dataclasses import replace
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ctypes.implementation import ILP32, LP64
from repro.dynamics.explore import (
    RECORD_KIND, ExplorationResult, exploration_key,
)
from repro.farm.store import ArtifactStore, code_fingerprint
from repro.spec import ExploreSpec
from repro.pipeline import (
    clear_compile_cache, compile_c, set_artifact_store,
)

SRC = "int main(void){ return 40 + 2; }"
UNSEQ = "int a, b; int main(void){ (a=1)+(b=2); return 0; }"


@pytest.fixture
def store(tmp_path):
    s = ArtifactStore(tmp_path / "store")
    previous = set_artifact_store(s)
    clear_compile_cache()
    yield s
    set_artifact_store(previous)
    clear_compile_cache()


def _entry_paths(s: ArtifactStore):
    return sorted(p for p in s.objects.glob("*/*.pkl")
                  if not p.name.startswith(".tmp-"))


def _get(store: ArtifactStore, key: str):
    return store.get_record(key, ExplorationResult, kind=RECORD_KIND)


def _count(counters, name: str) -> int:
    """One raw counter of the ``counters`` fixture's registry."""
    return counters.registry.counters.get(name, 0)


def _python(code: str, *args, src_root=None) -> str:
    """Run ``code`` in a fresh interpreter on ``src_root`` (this
    checkout's ``src`` by default); returns its stdout."""
    env = dict(os.environ)
    src_root = src_root or str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          check=True).stdout


class TestStoreBasics:
    def test_put_on_translate_get_on_fresh_cache(self, store, counters):
        program = compile_c(SRC)
        assert counters()["store_puts"] == 1
        assert counters()["translations"] == 1
        clear_compile_cache()            # simulate a fresh process
        again = compile_c(SRC)
        assert counters()["translations"] == 1   # none since the clear
        assert counters()["store_hits"] == 1
        assert again.run("concrete").exit_code == 42
        assert again is not program      # deserialised, not shared

    def test_key_discriminates_impl_and_flags(self, store):
        k = store.key(SRC, LP64)
        assert k != store.key(SRC, ILP32)
        assert k != store.key(SRC + " ", LP64)
        assert k == store.key(SRC, LP64)

    def test_store_survives_direct_get_put(self, tmp_path):
        s = ArtifactStore(tmp_path / "s")
        assert s.get(SRC, LP64) is None
        program = compile_c(SRC)
        s.put(SRC, LP64, "<string>", program)
        loaded = s.get(SRC, LP64)
        assert loaded.run("provenance").exit_code == 42


class TestCrossProcess:
    def test_cache_hit_across_two_processes(self, tmp_path):
        """The defining property: a second *process* skips the front
        end entirely on a warm store."""
        store_dir = tmp_path / "xproc"
        child = (
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.farm.pool import task_stats\n"
            "from repro.farm.store import ArtifactStore\n"
            "from repro.pipeline import compile_c, set_artifact_store\n"
            f"store = ArtifactStore({str(store_dir)!r})\n"
            "set_artifact_store(store)\n"
            "with obs.collecting() as registry:\n"
            f"    program = compile_c({SRC!r})\n"
            "out = program.run('concrete')\n"
            "print(json.dumps({'exit': out.exit_code,\n"
            "    'counts': task_stats(registry.to_dict())}))\n"
        )

        def run_child():
            import json
            return json.loads(_python(child))

        first = run_child()
        assert first["exit"] == 42
        assert first["counts"]["translations"] == 1
        assert first["counts"]["store_puts"] == 1

        second = run_child()
        assert second["exit"] == 42
        assert second["counts"]["translations"] == 0  # front end skipped
        assert second["counts"]["store_hits"] == 1


class TestCorruption:
    def test_truncated_artifact_recompiles_silently(self, store,
                                                    counters):
        compile_c(SRC)
        [path] = _entry_paths(store)
        path.write_bytes(path.read_bytes()[:20])  # truncate
        clear_compile_cache()
        before = counters()["translations"]
        program = compile_c(SRC)                  # must not raise
        assert program.run("concrete").exit_code == 42
        stats = counters()
        assert stats["store_corrupt"] == 1
        assert stats["translations"] - before == 1

    def test_garbage_artifact_recompiles_silently(self, store,
                                                  counters):
        compile_c(SRC)
        [path] = _entry_paths(store)
        path.write_bytes(b"\x00not a pickle at all")
        clear_compile_cache()
        assert compile_c(SRC).run("concrete").exit_code == 42
        assert counters()["store_corrupt"] == 1

    def test_foreign_pickle_rejected(self, store, counters):
        compile_c(SRC)
        [path] = _entry_paths(store)
        path.write_bytes(pickle.dumps(("wrong-magic", 1, "k", None)))
        clear_compile_cache()
        assert compile_c(SRC).run("concrete").exit_code == 42
        assert counters()["store_corrupt"] == 1

    def test_corrupt_entry_is_dropped_then_replaced(self, store):
        compile_c(SRC)
        [path] = _entry_paths(store)
        path.write_bytes(b"junk")
        clear_compile_cache()
        compile_c(SRC)                   # drops junk, re-puts
        [fresh] = _entry_paths(store)
        payload = pickle.loads(fresh.read_bytes())
        assert payload[0] == "cerberus-farm-artifact"


class TestEviction:
    def _put(self, s, i):
        src = f"int main(void){{ return {i}; }}"
        program = compile_c(src)
        s.put(src, LP64, "<string>", program)
        return src

    def test_eviction_respects_size_bound(self, tmp_path, counters):
        s0 = ArtifactStore(tmp_path / "probe")
        self._put(s0, 0)
        entry_size = s0.size_bytes()
        assert entry_size > 0
        # Room for ~2 entries: the third put must evict the LRU one.
        s = ArtifactStore(tmp_path / "bounded",
                          max_bytes=int(entry_size * 2.5))
        srcs = [self._put(s, i) for i in range(3)]
        assert _count(counters, "store.evictions") >= 1
        assert s.size_bytes() <= s.max_bytes
        assert s.get(srcs[0], LP64) is None      # oldest evicted
        assert s.get(srcs[2], LP64) is not None  # newest kept

    def test_lru_get_refreshes_recency(self, tmp_path):
        s0 = ArtifactStore(tmp_path / "probe")
        self._put(s0, 0)
        entry_size = s0.size_bytes()
        s = ArtifactStore(tmp_path / "lru",
                          max_bytes=int(entry_size * 2.5))
        a = self._put(s, 10)
        os.utime(_entry_paths(s)[0], (1, 1))     # age entry a
        b = self._put(s, 11)
        s.get(a, LP64)                           # touch a: now MRU? no-
        # a was aged to epoch, then touched -> newest; b untouched.
        c = self._put(s, 12)                     # evicts b, not a
        assert s.get(a, LP64) is not None
        assert s.get(b, LP64) is None

    def test_newest_entry_always_survives(self, tmp_path):
        s = ArtifactStore(tmp_path / "tiny", max_bytes=1)
        src = self._put(s, 7)
        assert s.get(src, LP64) is not None      # kept despite bound


class TestHitRecency:
    """LRU recency must refresh on cache *hit*, not only on put — a hot
    artifact served from the in-memory cache since the process started
    must not be evicted from disk while cold entries survive."""

    def test_in_memory_hit_touches_store_entry(self, store, counters):
        compile_c(SRC)                           # translate + put
        [path] = _entry_paths(store)
        os.utime(path, (1, 1))                   # age to the epoch
        program = compile_c(SRC)                 # in-memory hit
        assert program is not None
        assert counters()["memory_hits"] == 1
        assert path.stat().st_mtime > 1          # recency refreshed

    def test_hot_entry_survives_eviction_despite_in_memory_hits(
            self, tmp_path, counters):
        probe = ArtifactStore(tmp_path / "probe")
        previous = set_artifact_store(probe)
        try:
            clear_compile_cache()
            hot = "int main(void){ return 1; }"
            compile_c(hot)
            entry_size = probe.size_bytes()
            s = ArtifactStore(tmp_path / "hot",
                              max_bytes=int(entry_size * 2.5))
            set_artifact_store(s)
            clear_compile_cache()
            compile_c(hot)                       # translate + put
            cold = "int main(void){ return 2; }"
            compile_c(cold)                      # put (newer than hot)
            for _ in range(3):
                compile_c(hot)                   # in-memory hits: touch
            filler = "int main(void){ return 3; }"
            compile_c(filler)                    # put -> evicts one
            assert _count(counters, "store.evictions") >= 1
            clear_compile_cache()
            # Without touch-on-hit, `hot` would be the oldest entry on
            # disk and be evicted while the colder `cold` survives.
            assert s.get(hot, LP64) is not None
        finally:
            set_artifact_store(previous)
            clear_compile_cache()

    def test_recency_stamps_are_strictly_ordered(self, tmp_path):
        """A put and a hit inside one filesystem-timestamp tick must
        not tie (a tie lets the name tiebreak evict the touched
        entry)."""
        s = ArtifactStore(tmp_path / "ticks")
        a = "int main(void){ return 10; }"
        b = "int main(void){ return 11; }"
        s.put(a, LP64, "<string>",
              compile_c(a))
        s.put(b, LP64, "<string>",
              compile_c(b))
        s.get(a, LP64)                           # immediately after
        mtimes = {p.name: p.stat().st_mtime for p in _entry_paths(s)}
        assert len(set(mtimes.values())) == 2    # no tie
        key_a = s.key(a, LP64)
        key_b = s.key(b, LP64)
        assert mtimes[f"{key_a}.pkl"] > mtimes[f"{key_b}.pkl"]


class TestCounterReads:
    def test_stats_scans_once_and_explore_stats_never(self, tmp_path,
                                                      monkeypatch,
                                                      counters):
        s = ArtifactStore(tmp_path / "s")
        s.put_record(s.record_key("x", "1"), [1, 2, 3])
        s.put_record(exploration_key(s, UNSEQ, LP64, "concrete"),
                     "not a record", kind=RECORD_KIND)
        scans = []
        entries = ArtifactStore._entries
        monkeypatch.setattr(ArtifactStore, "_entries",
                            lambda self: scans.append(1)
                            or entries(self))
        stats = s.stats()
        assert len(scans) == 1
        assert stats == {"entries": 2, "size_bytes": sum(
            p.stat().st_size for p in _entry_paths(s))}
        scans.clear()
        stats = counters()
        assert (stats["explore_hits"], stats["explore_misses"],
                stats["explore_puts"], stats["store_corrupt"]) \
            == (0, 0, 1, 0)
        assert scans == []


class TestExplorationRecords:
    """Exploration records ride the same store: corruption falls back
    to a silent re-explore, their bytes count against the LRU bound,
    and a change of build invalidates them together with the
    artifacts.
    Their per-kind counters are the ``store.exploration.*`` metrics
    and the paths explored live the ``explore.live_paths`` one — all
    read through the ``counters`` fixture."""

    def _explore(self, tmp_path, subdir="s", max_paths=100_000):
        store = ArtifactStore(tmp_path / subdir)
        program = compile_c(UNSEQ)
        result = program.explore("concrete", max_paths=max_paths,
                                 store=store)
        return store, program, result

    def test_record_round_trip(self, tmp_path, counters):
        store, program, cold = self._explore(tmp_path)
        warm = program.explore("concrete", max_paths=100_000,
                               store=store)
        assert warm.paths_run == cold.paths_run
        assert warm.behaviour_keys() == cold.behaviour_keys()
        stats = counters()
        assert (stats["explore_hits"], stats["explore_misses"],
                stats["explore_puts"]) == (1, 1, 1)
        assert stats["explore_live_paths"] == cold.paths_run

    def test_corrupt_record_re_explores_silently(self, tmp_path,
                                                 counters):
        store, program, cold = self._explore(tmp_path)
        key = exploration_key(store, UNSEQ, program.impl, "concrete")
        [path] = [p for p in _entry_paths(store)
                  if p.name == f"{key}.pkl"]
        path.write_bytes(b"\x00garbage, not a record")
        redo = program.explore("concrete", max_paths=100_000,
                               store=store)
        assert redo.paths_run == cold.paths_run        # re-explored
        assert redo.behaviour_keys() == cold.behaviour_keys()
        stats = counters()
        assert _count(counters, "store.exploration.corrupt") == 1
        assert stats["explore_hits"] == 0 and stats["explore_misses"] == 2
        assert stats["explore_live_paths"] == 2 * cold.paths_run
        # ... and the damaged entry was replaced by a good one.
        assert stats["explore_puts"] == 2

    def test_truncated_record_is_a_miss(self, tmp_path, counters):
        store, program, _ = self._explore(tmp_path)
        key = exploration_key(store, UNSEQ, program.impl, "concrete")
        [path] = [p for p in _entry_paths(store)
                  if p.name == f"{key}.pkl"]
        path.write_bytes(path.read_bytes()[:10])
        assert _get(store, key) is None
        assert _count(counters, "store.exploration.corrupt") == 1

    def test_foreign_object_under_record_key_is_a_miss(self, tmp_path,
                                                       counters):
        store, program, _ = self._explore(tmp_path)
        key = exploration_key(store, UNSEQ, program.impl, "concrete")
        store.put_record(key, {"not": "a record"}, kind=RECORD_KIND)
        before = counters()
        corrupt = _count(counters, "store.exploration.corrupt")
        assert _get(store, key) is None
        after = counters()
        # Counted as a miss (never a hit) so explore_hit_rate stays
        # truthful, and dropped like any corrupt entry.
        assert after["explore_hits"] == before["explore_hits"]
        assert after["explore_misses"] == before["explore_misses"] + 1
        assert _count(counters, "store.exploration.corrupt") \
            == corrupt + 1
        assert store.get_record(key) is None    # entry dropped

    def test_record_key_discriminates_the_space(self, tmp_path):
        store = ArtifactStore(tmp_path / "k")
        base = ExploreSpec(entry="main", max_steps=500_000,
                           strategy="dfs", seed=None, por=False)

        def key(source, impl, model, name, spec):
            return exploration_key(store, source, impl, model, name,
                                   spec)

        k = key(UNSEQ, LP64, "concrete", "<string>", base)
        assert k != key(UNSEQ, LP64, "provenance", "<string>", base)
        assert k != key(UNSEQ, ILP32, "concrete", "<string>", base)
        assert k != key(UNSEQ + " ", LP64, "concrete", "<string>",
                        base)
        assert k != key(UNSEQ, LP64, "concrete", "other.c", base)
        for twist in (dict(strategy="bfs"), dict(seed=3),
                      dict(por=True), dict(entry="go"),
                      dict(max_steps=1000)):
            assert k != key(UNSEQ, LP64, "concrete", "<string>",
                            replace(base, **twist)), twist
        assert k == key(UNSEQ, LP64, "concrete", "<string>", base)

    def test_eviction_counts_exploration_bytes(self, tmp_path, counters):
        probe = ArtifactStore(tmp_path / "probe")
        program = compile_c(UNSEQ)
        program.explore("concrete", max_paths=100_000, store=probe)
        record_size = probe.size_bytes()
        assert record_size > 0
        # Room for ~2 records: the third put must evict the oldest.
        store = ArtifactStore(tmp_path / "bounded",
                              max_bytes=int(record_size * 2.5))
        keys = []
        for i, model in enumerate(["concrete", "provenance", "gcc"]):
            program.explore(model, max_paths=100_000, store=store)
            keys.append(exploration_key(store, UNSEQ, program.impl,
                                        model))
        assert _count(counters, "store.evictions") >= 1
        assert store.size_bytes() <= store.max_bytes
        assert _get(store, keys[0]) is None     # oldest record evicted
        assert _get(store, keys[2]) is not None  # newest kept

    def test_records_and_artifacts_share_the_bound(self, tmp_path):
        """A flood of exploration records must evict old compiled
        artifacts too — one budget, not two."""
        probe = ArtifactStore(tmp_path / "probe")
        probe.put(SRC, LP64, "<string>",
                  compile_c(SRC))
        artifact_size = probe.size_bytes()
        program = compile_c(UNSEQ)
        program.explore("concrete", max_paths=100_000, store=probe)
        record_size = probe.size_bytes() - artifact_size
        assert record_size > 0
        # Room for the artifact plus ~2 exploration records: the
        # record flood below must push the (older) artifact out.
        store = ArtifactStore(
            tmp_path / "shared",
            max_bytes=artifact_size + int(record_size * 2.5))
        store.put(SRC, LP64, "<string>",
                  compile_c(SRC))
        assert store.get(SRC, LP64) is not None
        for model in ("concrete", "provenance", "gcc", "strict"):
            program.explore(model, max_paths=100_000, store=store)
        assert store.size_bytes() <= store.max_bytes
        assert store.get(SRC, LP64) is None    # artifact paid the bill

    def test_schema_bump_invalidates_records_and_artifacts(
            self, tmp_path, counters, farm_in_process):
        """A store another build filled misses every record kind at
        once: its Core, explorations, analyses and job results are
        that build's answers, not this one's."""
        root = tmp_path / "versioned"
        old = ArtifactStore(root, build="an older build")
        old.put(SRC, LP64, "<string>",
                compile_c(SRC))
        program = compile_c(UNSEQ)
        cold = program.explore("concrete", max_paths=100_000,
                               store=old)
        program.statics(old)
        submit = {"op": "submit", "source": SRC, "models": ["concrete"]}
        _, [first] = farm_in_process(old, [submit])
        assert old.get(SRC, LP64) is not None
        assert counters()["explore_puts"] == 1
        assert not first["cached"]

        new = ArtifactStore(root)
        assert new.get(SRC, LP64) is None      # artifact invalidated
        previous = set_artifact_store(new)
        try:
            clear_compile_cache()
            before = counters()["translations"]
            compile_c(SRC)
            assert counters()["translations"] == before + 1
        finally:
            set_artifact_store(previous)
            clear_compile_cache()
        before = counters()["explore_live_paths"]
        redo = program.explore("concrete", max_paths=100_000,
                               store=new)
        assert counters()["explore_hits"] == 0  # invalidated
        assert counters()["explore_live_paths"] - before == cold.paths_run
        assert redo.behaviour_keys() == cold.behaviour_keys()
        program.statics(new)                   # a fresh analysis
        statics = counters.registry.counters
        assert statics.get("store.statics.hits", 0) == 0
        assert statics["store.statics.stores"] == 2
        _, [again] = farm_in_process(new, [submit])
        assert not again["cached"]             # recomputed, not served
        assert again["report"]["verdicts"] == first["report"]["verdicts"]
        # The older build's store still serves its own entries.
        assert old.get(SRC, LP64) is not None
        assert _get(old, exploration_key(old, UNSEQ, program.impl,
                                         "concrete")) is not None


class TestSchemaVersion:
    def test_only_a_store_fingerprints_the_build(self, tmp_path):
        """The build is hashed when a process opens its first store:
        ``import repro.cli`` and a storeless ``--models all`` run never
        pay for it."""
        source = tmp_path / "p.c"
        source.write_text(SRC)
        out = _python(
            "import sys, repro.cli\n"
            "from repro.farm.store import ArtifactStore, code_fingerprint\n"
            "rc = repro.cli.main([sys.argv[1], '--models', 'all'])\n"
            "before = code_fingerprint.cache_info().currsize\n"
            "store = ArtifactStore(sys.argv[2])\n"
            "print(rc, before, code_fingerprint.cache_info().currsize,\n"
            "      store.build == code_fingerprint())\n",
            source, tmp_path / "store")
        assert out.splitlines()[-1] == "0 0 1 True"

    def test_a_changed_module_is_another_build(self, tmp_path):
        """One comment appended to one module changes the build, so a
        store the unchanged code filled is a miss for the changed
        code."""
        src = Path(__file__).resolve().parents[1] / "src"
        copy = tmp_path / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns(
            "__pycache__"))
        code = ("from repro.farm.store import code_fingerprint\n"
                "print(code_fingerprint())\n")
        here = _python(code)
        assert _python(code, src_root=copy) == here
        with open(copy / "repro" / "elab" / "elaborate.py", "a") as f:
            f.write("# another build\n")
        assert _python(code, src_root=copy) != here

    def test_schema_bump_invalidates_old_entries(self, tmp_path, counters):
        root = tmp_path / "versioned"
        v1 = ArtifactStore(root)
        program = compile_c(SRC)
        v1.put(SRC, LP64, "<string>", program)
        assert v1.get(SRC, LP64) is not None

        v2 = ArtifactStore(root, build="a newer build")
        assert v2.get(SRC, LP64) is None         # key no longer matches
        assert counters()["store_misses"] == 1
        # and the old store still serves its own entries
        assert v1.get(SRC, LP64) is not None

    def test_schema_bump_recompiles_through_pipeline(self, tmp_path,
                                                     counters):
        root = tmp_path / "versioned2"
        previous = set_artifact_store(ArtifactStore(root))
        try:
            clear_compile_cache()
            compile_c(SRC)
            assert counters()["translations"] == 1
            set_artifact_store(ArtifactStore(root, build="a newer build"))
            clear_compile_cache()
            compile_c(SRC)
            assert counters()["translations"] == 2   # one more
        finally:
            set_artifact_store(previous)
            clear_compile_cache()
