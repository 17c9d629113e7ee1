"""Sleep-set partial-order reduction: soundness on a golden fragment
set (identical ``distinct()`` behaviours, strictly fewer paths on
independent interleavings), UB-site-aware deduplication, and the
cooperative in-path deadline."""

import time

import pytest

from repro.dynamics.explore.por import (
    PURE, PathNode, footprints_conflict, next_transition,
)
from repro.pipeline import compile_c, explore_c

# The golden fragment set: (name, source, expect_strict_reduction).
# Programs with conflicting accesses pin that POR does not over-prune
# — both orders / the race verdict must survive.
GOLDEN = [
    ("independent_stores",
     "int a, b; int main(void){ (a=1) + (b=2); return a+b-3; }",
     True),
    ("independent_read_write",
     "int a = 1, b = 2, x, y; "
     "int main(void){ (x=a) + (y=b); return x+y-3; }",
     True),
    ("io_interleaving",
     '#include <stdio.h>\n'
     'int pr(int c){ putchar(c); return 0; }\n'
     'int main(void){ pr(97)+pr(98); putchar(10); return 0; }',
     True),
    ("unsequenced_race",
     "int main(void){ int x; int y = (x = 1) + (x = 2); return 0; }",
     False),
    ("write_read_race",
     "int main(void){ int x = 0; int y = (x = 1) + x; return y; }",
     False),
    ("indeterminately_sequenced_calls",
     "int g; int set(int v){ g = v; return v; } "
     "int main(void){ return set(1) + set(2) - 3; }",
     False),
    # A call with no parameter and no local: its first action (the
    # read of p) commutes with g's read of b, but the call runs whole,
    # and its store to b does not.
    ("call_writes_through_pointer",
     "int a, b; int *p = &b; int f(void){ *p = 1; return 0; } "
     "int g(void){ return b; } int main(void){ return f() + g(); }",
     False),
]


class TestPorSoundness:
    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("name,source,strict",
                             [(n, s, r) for n, s, r in GOLDEN])
    def test_same_behaviours_fewer_paths(self, name, source, strict,
                                         backend):
        base = explore_c(source, model="concrete", max_paths=10_000,
                         backend=backend)
        por = explore_c(source, model="concrete", max_paths=10_000,
                        por=True, backend=backend)
        assert base.exhausted and por.exhausted, name
        # Exactly the unpruned distinct() behaviour set...
        assert por.behaviour_keys() == base.behaviour_keys(), name
        # ...with never more, and on commuting fragments strictly
        # fewer, paths run.
        assert por.paths_run <= base.paths_run, name
        if strict:
            assert por.paths_run < base.paths_run, name
            assert por.pruned > 0, name

    def test_por_keeps_race_verdict(self):
        res = explore_c("int main(void){ int x; "
                        "int y = (x = 1) + (x = 2); return 0; }",
                        por=True, max_paths=100)
        assert res.has_ub()
        assert "Unsequenced_race" in res.ub_names()

    def test_por_keeps_both_call_orders(self):
        res = explore_c(
            '#include <stdio.h>\n'
            'int pr(int c){ putchar(c); return 0; }\n'
            'int main(void){ pr(97)+pr(98); putchar(10); return 0; }',
            por=True, max_paths=500)
        outs = {o.stdout for o in res.outcomes
                if o.status in ("done", "exit")}
        assert outs == {"ab\n", "ba\n"}

    def test_por_across_models(self):
        # POR composes with the cross-model methodology: every model
        # sees the same distinct behaviours pruned or not.
        from repro.pipeline import explore_many
        src = "int a, b; int main(void){ (a=1)+(b=2); return a+b-3; }"
        base = explore_many(src, max_paths=2000)
        por = explore_many(src, max_paths=2000, por=True)
        for model in base:
            assert base[model].behaviour_keys() == \
                por[model].behaviour_keys(), model
            assert por[model].paths_run < base[model].paths_run, model


class TestPorPrimitives:
    def test_footprint_conflicts(self):
        assert footprints_conflict(0, 4, True, 2, 4, False)
        assert not footprints_conflict(0, 4, False, 2, 4, False)
        assert not footprints_conflict(0, 4, True, 4, 4, True)
        # Zero-size (pure completion) conflicts with nothing.
        assert not footprints_conflict(0, 0, False, 0, 8, True)

    def test_next_transition_attribution(self):
        from repro.memory.base import Footprint
        events = [
            ("choose", "unseq", 2, 0, (1, (0, 1))),
            ("act", "store", Footprint(100, 4), True, ((1, 0),), False),
            ("act", "store", Footprint(200, 4), True, ((1, 1),), False),
        ]
        assert next_transition(events, 0, 1, 1, True) == (200, 4, True)
        assert next_transition(events, 0, 1, 0, True) == (100, 4, True)

    def test_next_transition_barrier_blocks(self):
        from repro.memory.base import Footprint
        events = [
            ("choose", "unseq", 2, 0, (1, (0, 1))),
            ("act", "raw", None, False, (), True),
            ("act", "store", Footprint(200, 4), True, ((1, 1),), False),
        ]
        assert next_transition(events, 0, 1, 1, True) is None

    def test_next_transition_pure_completion(self):
        # A later frame choice without the child proves it completed
        # without performing any action.
        events = [
            ("choose", "unseq", 2, 0, (1, (0, 1))),
            ("choose", "unseq", 1, 0, (1, (1,))),
        ]
        assert next_transition(events, 0, 1, 0, False) == PURE
        # End of a completed run proves the same.
        assert next_transition(events[:1], 0, 1, 0, True) == PURE
        assert next_transition(events[:1], 0, 1, 0, False) is None

    def test_pathnode_picklable(self):
        import pickle
        node = PathNode((0, 1), ((1, 0, 4096, 4, True),), ("unseq", 1))
        assert pickle.loads(pickle.dumps(node)) == node


class TestDistinctUbSites:
    def test_same_ub_name_different_sites_kept(self):
        # The same UB at two program points is two behaviours: the
        # dedup key includes the UB location.
        res = explore_c(r'''
int main(void) {
    int x = 0;
    int a = (1 / x)
          + (2 / x);
    return a;
}''', max_paths=100)
        assert res.ub_names() == ["Division_by_zero"]
        distinct = res.distinct()
        assert len(distinct) == 2
        assert len({str(o.loc) for o in distinct}) == 2
        # The printable behaviours carry the site too, so the two do
        # not collapse back into one line in reports.
        assert len([b for b in res.behaviours()
                    if "Division_by_zero @" in b]) == 2

    def test_identical_sites_still_collapse(self):
        res = explore_c(r'''
int f(void) { return 3; }
int main(void) { return f() + f() - 6; }''', max_paths=200)
        assert len(res.distinct()) == 1


class TestInPathDeadline:
    def test_single_long_path_times_out_at_deadline(self):
        # The deadline is threaded into the Driver step loop: one
        # non-terminating path returns status="timeout" at the
        # deadline instead of running max_steps to the bitter end.
        start = time.monotonic()
        res = explore_c("int main(void){ while (1) ; return 0; }",
                        max_paths=10, max_steps=200_000_000,
                        deadline_s=0.3)
        wall = time.monotonic() - start
        assert wall < 10.0
        assert res.paths_run == 1
        assert res.outcomes[0].status == "timeout"

    def test_deadline_also_bounds_enumeration(self):
        src = ('#include <stdio.h>\n'
               'int pr(int c){ putchar(c); return 0; }\n'
               'int main(void){ pr(97)+pr(98); pr(99)+pr(100); '
               'pr(101)+pr(102); return 0; }')
        res = explore_c(src, max_paths=100_000, deadline_s=0.0)
        assert not res.exhausted
        assert res.paths_run <= 1
