"""Differential backend conformance: ``compiled`` vs ``tree``.

The compiled back end (:mod:`repro.dynamics.compile`) and the
Core-walking tree evaluator must be *observably identical* — same
verdicts, same behaviour sets, same UB names and sites, same stdout,
same choice trees.  The tree backend is the oracle of record: any
disagreement is a compiled-backend bug by definition.

Three layers of evidence:

* single-path runs compare full :class:`Outcome` observables per
  program × model, including seeded nondeterministic oracles;
* bounded explorations compare behaviour sets cell by cell on a
  tier-1 subset of the de facto suite (and, in the ``slow_sweep``
  lane, the full suite × all models against the checked-in goldens);
* exploration records are keyed per backend — a frontier persisted by
  one backend is never resumed by the other (cross-backend resume
  re-keys to a fresh record instead of corrupting accounting).
"""

from dataclasses import replace

import pytest

from repro.farm.explorestore import ExploreStore
from repro.pipeline import MODELS, compile_for_model, run_many
from repro.spec import ExploreSpec
from repro.testsuite.goldens import (
    GOLDEN_SPEC, behaviour_set, compute_verdicts,
)
from repro.testsuite.programs import TESTS

BACKENDS = ("compiled", "tree")

#: The tier-1 differential subset: one program per semantic corner —
#: arithmetic + calls, pointer provenance, effective types, uninit
#: reads, unsequenced races, concurrency, pointer/integer round-trips.
SUBSET = (
    "unsigned_wraparound",
    "provenance_basic_global_yx",
    "uninit_read",
    "unsequenced_race",
    "ptr_cast_roundtrip",
)


def _outcome_key(o):
    """Every observable of one run (trace excluded: it is
    diagnostic, not part of the verdict contract)."""
    return (o.status, o.exit_code, o.stdout,
            o.ub.name if o.ub else None, o.ub_detail,
            str(o.loc) if o.ub else "", o.error)


def _subset_names():
    # Fall back to the first few suite programs if a name ever
    # disappears — the subset must not silently shrink to nothing.
    names = [n for n in SUBSET if n in TESTS]
    return names if names else sorted(TESTS)[:4]


class TestSinglePathEquivalence:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_run_many_identical_across_backends(self, model):
        for name in _subset_names():
            source = TESTS[name].source
            tree = run_many(source, models=[model], name=name,
                            backend="tree")[model]
            compiled = run_many(source, models=[model], name=name,
                                backend="compiled")[model]
            assert _outcome_key(compiled) == _outcome_key(tree), name

    def test_seeded_oracle_paths_agree(self):
        """A seeded random oracle resolves the same choice tree under
        both backends: path-for-path identical observables."""
        source = TESTS["unsequenced_race"].source
        program = compile_for_model(source, "concrete")
        for seed in range(6):
            tree = program.run("concrete", seed=seed, backend="tree")
            compiled = program.run("concrete", seed=seed,
                                   backend="compiled")
            assert _outcome_key(compiled) == _outcome_key(tree), seed

    def test_stdout_and_steps_observables(self):
        src = r'''
        #include <stdio.h>
        int fib(int n){ return n < 2 ? n : fib(n-1)+fib(n-2); }
        int main(void){
            int i;
            for (i = 0; i < 8; i++) printf("%d ", fib(i));
            printf("\n");
            return 0;
        }
        '''
        tree = run_many(src, models=["concrete"],
                        backend="tree")["concrete"]
        compiled = run_many(src, models=["concrete"],
                            backend="compiled")["concrete"]
        assert compiled.stdout == tree.stdout == "0 1 1 2 3 5 8 13 \n"
        assert _outcome_key(compiled) == _outcome_key(tree)


class TestExplorationEquivalence:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_behaviour_sets_identical_on_subset(self, model):
        for name in _subset_names():
            cells = {backend: behaviour_set(
                         TESTS[name].source, model,
                         replace(GOLDEN_SPEC, backend=backend))
                     for backend in BACKENDS}
            assert cells["compiled"] == cells["tree"], (name, model)

    def test_path_accounting_identical(self):
        """Not just the behaviour *set*: the enumeration itself —
        paths run, pruned, exhausted — matches, because the backends
        present identical choice points to the explorer."""
        source = TESTS["unsequenced_race"].source
        program = compile_for_model(source, "concrete")
        results = {b: program.explore("concrete", max_paths=10_000,
                                      backend=b)
                   for b in BACKENDS}
        tree, compiled = results["tree"], results["compiled"]
        assert compiled.paths_run == tree.paths_run
        assert compiled.pruned == tree.pruned
        assert compiled.exhausted == tree.exhausted
        assert compiled.behaviour_keys() == tree.behaviour_keys()


@pytest.mark.slow_sweep
class TestFullSuiteConformance:
    """The whole de facto suite × every model, both backends, against
    the checked-in goldens — the full 53 × 5 cross-product."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_cells_match_goldens(self, backend):
        from repro.testsuite.goldens import (
            diff_goldens, load_goldens,
        )
        doc = load_goldens()
        live = compute_verdicts(spec=ExploreSpec(
            max_paths=doc["max_paths"], max_steps=doc["max_steps"],
            backend=backend))
        mismatches = diff_goldens(doc, live)
        assert not mismatches, "\n".join(mismatches)

    def test_backends_byte_identical_everywhere(self):
        compiled = compute_verdicts(
            spec=replace(GOLDEN_SPEC, backend="compiled"))
        tree = compute_verdicts(spec=replace(GOLDEN_SPEC, backend="tree"))
        assert compiled == tree


class TestCrossBackendRecords:
    """Exploration records are keyed per backend: resuming under the
    other backend re-keys to a fresh record instead of consuming (or
    clobbering) a frontier the other backend persisted."""

    SRC = "int a, b; int main(void){ (a=1)+(b=2); return 0; }"

    def test_keys_differ_per_backend(self, tmp_path):
        es = ExploreStore(tmp_path / "s")
        program = compile_for_model(self.SRC, "concrete")
        k_compiled = es.key(self.SRC, program.impl, "concrete",
                            spec=ExploreSpec(backend="compiled"))
        k_tree = es.key(self.SRC, program.impl, "concrete",
                        spec=ExploreSpec(backend="tree"))
        assert k_compiled != k_tree
        assert k_compiled == es.key(self.SRC, program.impl, "concrete")

    def test_cross_backend_resume_re_keys(self, tmp_path):
        es = ExploreStore(tmp_path / "s")
        program = compile_for_model(self.SRC, "concrete")
        cold = program.explore("concrete", max_paths=10_000, store=es,
                               backend="compiled")
        assert es.stats()["stores"] == 1
        # Same space under the other backend: the compiled record is
        # neither served nor resumed — a fresh live exploration under
        # its own key.
        other = program.explore("concrete", max_paths=10_000,
                                store=es, backend="tree")
        stats = es.stats()
        assert stats["hits"] == 0          # no cross-backend serve
        assert stats["resumes"] == 0       # no cross-backend resume
        assert stats["stores"] == 2        # re-keyed fresh record
        assert stats["live_paths"] == cold.paths_run + other.paths_run
        assert other.behaviour_keys() == cold.behaviour_keys()
        # Each backend now warm-hits its own record.
        for backend, reference in (("compiled", cold),
                                   ("tree", other)):
            before = es.stats()["live_paths"]
            warm = program.explore("concrete", max_paths=10_000,
                                   store=es, backend=backend)
            assert es.stats()["live_paths"] == before  # zero re-run
            assert warm.behaviour_keys() == \
                reference.behaviour_keys()


class TestCallProtocol:
    """The specialized call protocol (per-site callee cache, direct
    slot-write argument passing into a heap frame, pointer arguments
    on the direct route) against the tree oracle: the shapes the
    protocol special-cases must stay observably identical, and the
    ``compile.call_fast`` / ``compile.call_generic`` telemetry must
    attribute calls to the intended route."""

    def _both(self, src, model="concrete"):
        tree = run_many(src, models=[model], backend="tree")[model]
        compiled = run_many(src, models=[model],
                            backend="compiled")[model]
        assert _outcome_key(compiled) == _outcome_key(tree)
        return compiled

    def test_recursion_through_the_site_cache(self):
        # One call site alternating self-recursion: the inline cache
        # stays monomorphic and the frames must not leak into each
        # other (each depth gets a fresh slot frame).
        out = self._both(r'''
        int sum(int n) { return n <= 0 ? 0 : n + sum(n - 1); }
        int main(void) { return sum(40) == 820 ? 42 : 1; }
        ''')
        assert out.exit_code == 42

    def test_mutual_recursion(self):
        out = self._both(r'''
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main(void) {
            return (is_even(20) && is_odd(13)) ? 42 : 1;
        }
        ''')
        assert out.exit_code == 42

    def test_pointer_arguments_fast_path(self):
        out = self._both(r'''
        void bump(unsigned *p, unsigned k) { *p = *p * k + 1u; }
        unsigned drain(unsigned *p) {
            unsigned v = *p; *p = 0u; return v;
        }
        int main(void) {
            unsigned s = 1u;
            bump(&s, 3u);
            bump(&s, 5u);
            return drain(&s) == 21u && s == 0u ? 42 : 1;
        }
        ''')
        assert out.exit_code == 42

    def test_struct_arguments_and_return(self):
        out = self._both(r'''
        struct pair { int a; int b; };
        struct pair swap(struct pair p) {
            struct pair q; q.a = p.b; q.b = p.a; return q;
        }
        int add(struct pair p) { return p.a + p.b; }
        int main(void) {
            struct pair p; p.a = 40; p.b = 2;
            struct pair q = swap(p);
            return (q.a == 2 && q.b == 40 && add(q) == 42)
                ? add(p) : 1;
        }
        ''')
        assert out.exit_code == 42

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_ub_inside_callee_same_verdict(self, model):
        # The callee traps (null deref): verdict, UB name, and site
        # must match the oracle — the fast path may not swallow or
        # relocate the diagnostic.
        src = r'''
        int deref(int *p) { return *p; }
        int main(void) { return deref((int *)0); }
        '''
        tree = run_many(src, models=[model], backend="tree")[model]
        compiled = run_many(src, models=[model],
                            backend="compiled")[model]
        assert _outcome_key(compiled) == _outcome_key(tree)
        assert compiled.status == "ub"

    def test_call_route_counters(self):
        from repro import obs
        src = r'''
        #include <stdio.h>
        int twice(int n) { return 2 * n; }
        int main(void) { printf("%d\n", twice(21)); return 0; }
        '''
        program = compile_for_model(src, "concrete")
        with obs.collecting() as reg:
            out = program.run("concrete", backend="compiled")
        assert out.status == "done" and out.stdout == "42\n"
        counters = reg.counters
        # twice() rides the specialized protocol; printf is native
        # and stays on the generic route.
        assert counters.get("compile.call_fast", 0) >= 1
        assert counters.get("compile.call_generic", 0) >= 1
        # The tree evaluator has no such counters at all.
        with obs.collecting() as reg2:
            program.run("concrete", backend="tree")
        assert "compile.call_fast" not in reg2.counters
        assert "compile.call_generic" not in reg2.counters


#: C recursion ``n`` deep (the frame-limit and depth lanes below).
RECURSION = "int f(int n){return n?f(n-1)+1:0;}\n" \
            "int main(void){ return f(%d) == %d ? 42 : 1; }\n"


class TestDepth:
    """C calls push heap frames on the compiled back end: depth is a
    budget (``FRAME_LIMIT`` frames) with a classified outcome, never a
    ``RecursionError``."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_ten_thousand_deep_single_run(self, model):
        program = compile_for_model(RECURSION % (10_000, 10_000), model)
        out = program.run(model)
        assert (out.status, out.exit_code) == ("done", 42)

    def test_ten_thousand_deep_explored_path(self):
        program = compile_for_model(RECURSION % (10_000, 10_000),
                                    "concrete")
        result = program.explore("concrete", max_paths=1)
        assert [o.summary() for o in result.outcomes] == \
            ["exit=42 stdout=''"]
        assert not result.exhausted

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unbounded_recursion_ends_in_the_frame_limit(self, backend):
        from repro.dynamics.evaluator import FRAME_LIMIT
        program = compile_for_model(
            "int f(int n){return f(n+1);}\n"
            "int main(void){ return f(0); }\n", "concrete")
        out = program.run("concrete", backend=backend)
        assert out.status == "error"
        assert str(FRAME_LIMIT) in out.error and "frame limit" in out.error

    def test_tree_oracle_deep_lane(self):
        """The tree evaluator recurses in Python: on a big stack it
        reaches depth 250 and agrees with the compiled back end."""
        import sys
        import threading
        program = compile_for_model(RECURSION % (250, 250), "concrete")
        result = {}

        def work():
            result["tree"] = program.run("concrete", backend="tree")

        old_limit = sys.getrecursionlimit()
        old_size = threading.stack_size()
        sys.setrecursionlimit(200_000)
        threading.stack_size(512 * 1024 * 1024)
        try:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        finally:
            threading.stack_size(old_size)
            sys.setrecursionlimit(old_limit)
        compiled = program.run("concrete")
        assert _outcome_key(result["tree"]) == _outcome_key(compiled)
        assert compiled.exit_code == 42


@pytest.mark.slow_sweep
class TestDepthAllModels:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_ten_thousand_deep_explored_path(self, model):
        program = compile_for_model(RECURSION % (10_000, 10_000), model)
        result = program.explore(model, max_paths=1)
        assert [o.summary() for o in result.outcomes] == \
            ["exit=42 stdout=''"]


class TestMainArgs:
    """``int main(int argc, char **argv)`` runs with ``argc == 0`` and
    ``argv[0]`` a null pointer (§5.1.2.2.1p2)."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_argv_holds_a_null_pointer(self, model, backend):
        program = compile_for_model(
            "int main(int argc, char **argv)"
            "{ return argv[argc] == 0 ? 42 : 1; }", model)
        out = program.run(model, backend=backend)
        assert (out.status, out.exit_code) == ("done", 42)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_argc_is_zero(self, backend):
        program = compile_for_model(
            "int main(int argc, char *argv[]) { return argc + 7; }",
            "concrete")
        assert program.run("concrete", backend=backend).exit_code == 7
