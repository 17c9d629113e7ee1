"""Core-IR static analysis: footprint/purity summaries, static POR
pre-pruning, and the definite-UB linter (:mod:`repro.statics`).

Three layers of guarantees are pinned here:

* **summaries** — the bottom-up abstract interpretation annotates
  every ``unseq`` with whether its children statically commute and
  with per-child footprints; annotations serialize through the
  artifact store and survive a round-trip onto a freshly compiled
  copy of the same term;
* **lint conformance** — the satellite gate: every ``definite``
  finding over the whole de facto test suite must correspond to a
  behaviour pinned in ``tests/goldens/verdicts.json`` under some
  memory model.  Zero false positives, by construction of the gate;
* **pre-pruning soundness** — static pre-pruning must be invisible in
  the behaviour sets: across the whole suite × every model,
  exploration with ``static_prune=True`` yields the byte-identical
  sorted ``distinct()`` summaries as dynamic-only POR, with
  less-than-or-equal paths explored (static prune ⊆ dynamic
  sleep-set prune, the soundness contract of
  :mod:`repro.statics`).
"""


import pytest

from repro.errors import CerberusError
from repro import obs
from repro.farm.explorestore import exploration_key
from repro.farm.pool import SweepTask, execute_task
from repro.farm.store import ArtifactStore
from repro.pipeline import (
    MODELS, StaticsRecord, clear_compile_cache, compile_c,
    compile_for_model, lint_c,
)
from repro.spec import ExploreSpec
from repro.statics import (
    STATICS_VERSION, analyze_program, apply_annotations,
    collect_unseqs, lint_program, serialize_unseq_info,
)
from repro.testsuite.goldens import (
    GOLDEN_MAX_PATHS, GOLDEN_MAX_STEPS, load_goldens,
)
from repro.testsuite.programs import TESTS

DISJOINT = r'''
int a, b;
int main(void) { (a = 1) + (b = 2); return a + b - 3; }
'''

RACE = r'''
int main(void) { int x; int y = (x = 1) + (x = 2); return 0; }
'''

CALLS = r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); putchar('\n'); return 0; }
'''

UNINIT = r'''
int main(void) { int x; return x; }
'''

OOB = r'''
int main(void) { int a[2]; return a[5]; }
'''

SHIFT = r'''
int main(void) { int x = 1; return x << 40; }
'''

POSSIBLE = r'''
#include <stdlib.h>
int main(void) { int x; if (rand()) x = 1; return x; }
'''

CLEAN = r'''
int main(void) { int a = 3; return a - 3; }
'''

#: Its bit-field stores write part of ``s``; the bits they leave are
#: never read, and every model runs it to exit 22.
BITFIELDS = r'''
struct B { unsigned a : 3; unsigned b : 5; };
struct B mk(void){ struct B s; s.a = 5; s.b = 17; return s; }
int main(void){ struct B t = mk(); return t.b + t.a; }
'''


def _annotations(source):
    program = compile_c(source).core
    analyze_program(program)
    return [getattr(u, "_static_unseq", None)
            for u in collect_unseqs(program)]


class TestSummaries:
    def test_disjoint_stores_commute(self):
        infos = [i for i in _annotations(DISJOINT) if i is not None]
        assert infos, "main's unseq must be annotated"
        assert all(commutes for commutes, _ in infos)
        # The store pair's footprints resolved to concrete disjoint
        # write ranges (not ⊤, not merely pure).
        ranged = [children for _, children in infos
                  if any(c not in (None, "pure")
                         and any(r[3] for r in c) for c in children)]
        assert ranged

    def test_conflicting_stores_do_not_commute(self):
        conflicting = [i for i in _annotations(RACE)
                       if i is not None and not i[0]]
        assert len(conflicting) == 1
        _, children = conflicting[0]
        # Both children write the same object: footprints are known.
        writes = [c for c in children
                  if c not in (None, "pure")
                  and any(r[3] for r in c)]
        assert len(writes) == 2

    def test_opaque_calls_are_top(self):
        """putchar is opaque to the analysis: its children summaries
        are ⊤ (None) and the unseq must not commute."""
        infos = [i for i in _annotations(CALLS) if i is not None]
        assert any(not commutes and None in children
                   for commutes, children in infos)

    def test_annotation_round_trip(self):
        """Serialized tables re-attach onto a freshly compiled copy of
        the same term and reproduce the annotations positionally."""
        program = compile_c(DISJOINT).core
        report = analyze_program(program)
        table = serialize_unseq_info(program, report)
        clear_compile_cache()
        fresh = compile_c(DISJOINT).core
        assert fresh is not program
        assert apply_annotations(fresh, table)
        assert getattr(fresh, "_statics_annotated", False)
        assert [getattr(u, "_static_unseq", None)
                for u in collect_unseqs(fresh)] == list(table)

    def test_stale_table_is_rejected(self):
        """A table whose length does not match the term's unseq count
        (a different program under the same key) must not attach."""
        program = compile_c(DISJOINT).core
        assert not apply_annotations(program, [])


class TestLint:
    def _findings(self, source, name="<string>"):
        return lint_program(compile_c(source, name=name).core)

    def test_unsequenced_race_definite(self):
        findings = self._findings(RACE)
        races = [f for f in findings if "Unsequenced_race" in f.names]
        assert races and all(f.definite for f in races)

    def test_uninit_read_definite(self):
        findings = self._findings(UNINIT, name="uninit.c")
        uninit = [f for f in findings
                  if "Read_uninitialised" in f.names]
        assert uninit and uninit[0].definite
        assert "uninit.c" in uninit[0].format()
        assert "definite" in uninit[0].format()

    def test_constant_oob_definite(self):
        findings = self._findings(OOB)
        oob = [f for f in findings
               if any("out_of_bounds" in n.lower() for n in f.names)]
        assert oob and any(f.definite for f in oob)

    def test_overwide_shift_definite(self):
        findings = self._findings(SHIFT)
        shift = [f for f in findings if "Shift_too_large" in f.names]
        assert shift and shift[0].definite

    def test_branch_dependent_uninit_is_possible(self):
        """An uninitialized read only one branch reaches must not be
        reported definite."""
        findings = self._findings(POSSIBLE)
        assert findings
        assert all(f.severity == "possible" for f in findings)

    def test_clean_program_has_no_findings(self):
        assert self._findings(CLEAN) == []

    def test_bitfield_stores_leave_a_partial_object(self):
        """A struct whose bit-fields were stored is partly written:
        reading it whole is at most a possible finding, as for a
        partly written ``struct { int a, b; }``."""
        findings = self._findings(BITFIELDS)
        assert [f.severity for f in findings
                if "Read_uninitialised" in f.names] == ["possible"]

    def test_finding_dict_round_trip(self):
        f = self._findings(UNINIT)[0]
        d = f.to_dict()
        assert d["severity"] == "definite"
        assert d["kind"] == f.kind
        assert list(d["names"]) == list(f.names)

    def test_lint_c_entry_point(self):
        findings = lint_c(RACE)
        assert any(f.definite for f in findings)


class TestLintGoldenConformance:
    """The satellite gate: a ``definite`` verdict is a *promise* — on
    the 53 de facto test programs, every definite finding must name a
    UB behaviour some memory model's golden verdict actually pins.
    Zero static false positives against the dynamic oracle."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return load_goldens()["verdicts"]

    @pytest.mark.parametrize("name", sorted(TESTS))
    def test_definite_findings_are_pinned_behaviours(self, goldens,
                                                     name):
        try:
            findings = compile_c(TESTS[name].source,
                                 name=name).lint(name=name)
        except CerberusError:
            pytest.skip("front end rejects under the default impl")
        pinned = {b for cells in goldens[name].values()
                  for b in cells}
        for f in findings:
            if not f.definite:
                continue
            assert any(b.startswith(f"UB[{n}")
                       for n in f.names for b in pinned), \
                (f.format(), sorted(pinned))

    def test_suite_has_definite_findings(self):
        """The gate must not pass vacuously: the suite contains
        deliberately-UB programs the linter must catch."""
        hits = 0
        for name in sorted(TESTS):
            try:
                findings = compile_c(TESTS[name].source,
                                     name=name).lint(name=name)
            except CerberusError:
                continue
            hits += sum(1 for f in findings if f.definite)
        assert hits >= 10


class TestStaticPruneEquivalence:
    """The tentpole's soundness criterion: with static pre-pruning on,
    exploration of every suite program under every model produces the
    byte-identical sorted behaviour set as dynamic-only POR, while
    never exploring more paths."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_behaviour_sets_identical_paths_fewer(self, model):
        checked = 0
        for name in sorted(TESTS):
            try:
                program = compile_for_model(TESTS[name].source, model)
            except CerberusError:
                continue
            kw = dict(max_paths=GOLDEN_MAX_PATHS,
                      max_steps=GOLDEN_MAX_STEPS, por=True)
            try:
                off = program.explore(model, **kw)
                on = program.explore(model, static_prune=True, **kw)
            except CerberusError:
                continue
            assert sorted(o.summary() for o in off.distinct()) == \
                sorted(o.summary() for o in on.distinct()), \
                (name, model)
            assert on.paths_run <= off.paths_run, (name, model)
            checked += 1
        assert checked >= 50   # the suite actually ran


class TestStaticsStore:
    def test_statics_record_cached(self, tmp_path, counters):
        statics = counters.registry.counters
        store = ArtifactStore(tmp_path)
        program = compile_c(DISJOINT)
        rec = program.statics(store)
        assert isinstance(rec, StaticsRecord)
        assert rec.version == STATICS_VERSION
        assert rec.complete
        assert statics["store.statics.stores"] == 1
        # A freshly compiled artifact re-attaches from the cache: one
        # record hit, no second analysis stored.
        clear_compile_cache()
        fresh = compile_c(DISJOINT)
        rec2 = fresh.statics(store)
        assert statics["store.statics.hits"] == 1
        assert statics["store.statics.stores"] == 1
        assert rec2.table == rec.table
        assert getattr(fresh.core, "_statics_annotated", False)

    def test_statics_key_separates_sources(self, tmp_path, counters):
        store = ArtifactStore(tmp_path)
        compile_c(DISJOINT).statics(store)
        compile_c(RACE).statics(store)
        assert counters.registry.counters["store.statics.stores"] == 2

    def test_explore_key_has_static_prune_part(self, tmp_path):
        store = ArtifactStore(tmp_path)
        from repro.ctypes.implementation import LP64
        k_off = exploration_key(store, DISJOINT, LP64, "concrete")
        k_on = exploration_key(store, DISJOINT, LP64, "concrete",
                               spec=ExploreSpec(static_prune=True))
        assert k_off != k_on

    def test_store_backed_static_explore(self, tmp_path):
        """``explore(store=, static_prune=True)`` publishes both a
        statics record and an exploration record; a warm call replays
        the behaviour set with zero live paths."""
        store = ArtifactStore(tmp_path)
        program = compile_c(DISJOINT)
        r1 = program.explore("concrete", store=store, max_paths=200,
                             static_prune=True)
        assert r1.exhausted
        clear_compile_cache()
        fresh = compile_c(DISJOINT)
        with obs.collecting() as registry:
            r2 = fresh.explore("concrete", store=store, max_paths=200,
                               static_prune=True)
        assert registry.counters.get("explore.live_paths", 0) == 0
        assert sorted(o.summary() for o in r1.distinct()) == \
            sorted(o.summary() for o in r2.distinct())


class TestFarmLintFilter:
    def test_definite_finding_skips_exploration(self):
        task = SweepTask(0, "race", kind="explore", source=RACE,
                         models=("concrete",),
                         spec=ExploreSpec(max_paths=50), lint=True)
        result = execute_task(task)
        assert result.ok
        assert result.data["lint_filtered"]
        assert result.data["explorations"] == {}
        assert any(f["severity"] == "definite"
                   for f in result.data["lint"])

    def test_clean_program_still_explored(self):
        task = SweepTask(0, "disjoint", kind="explore",
                         source=DISJOINT, models=("concrete",),
                         spec=ExploreSpec(max_paths=200,
                                          static_prune=True),
                         lint=True)
        result = execute_task(task)
        assert result.ok
        assert "lint_filtered" not in result.data
        assert not any(f["severity"] == "definite"
                       for f in result.data["lint"])
        summary = result.data["explorations"]["concrete"]
        assert summary.exhausted
        # Statically-commuting unseq points are never branched.
        assert summary.paths_run == 1

    def test_bitfield_program_is_explored(self):
        task = SweepTask(0, "bitfields", kind="explore",
                         source=BITFIELDS, models=("concrete",),
                         spec=ExploreSpec(max_paths=200), lint=True)
        result = execute_task(task)
        assert result.ok
        assert "lint_filtered" not in result.data
        summary = result.data["explorations"]["concrete"]
        assert summary.exhausted
        assert summary.behaviours == ["exit=22 stdout=''"]

    def test_suite_task_attaches_lint_without_skipping(self):
        task = SweepTask(0, "uninit_read", kind="suite",
                         models=("concrete",), lint=True)
        result = execute_task(task)
        assert result.ok
        assert result.data["results"]   # suite still ran
        assert any(f["severity"] == "definite"
                   for f in result.data["lint"])


class TestExhaustiveShimRemoved:
    def test_deprecated_module_is_gone(self):
        # The one-release deprecation grace of
        # repro.dynamics.exhaustive is over: the module no longer
        # exists; repro.dynamics.explore is the import path.
        with pytest.raises(ImportError):
            import repro.dynamics.exhaustive  # noqa: F401
        from repro.dynamics.explore import Explorer  # noqa: F401


class TestLintCli:
    def _write(self, tmp_path, source):
        path = tmp_path / "prog.c"
        path.write_text(source)
        return str(path)

    def test_definite_finding_exits_one(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["lint", self._write(tmp_path, RACE)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "definite" in out and "Unsequenced_race" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["lint", self._write(tmp_path, CLEAN)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == ""

    def test_json_payload(self, tmp_path, capsys):
        import json
        from repro.cli import main
        path = self._write(tmp_path, UNINIT)
        rc = main(["lint", "--json", path])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert any("Read_uninitialised" in f["names"]
                   for f in payload[path])
