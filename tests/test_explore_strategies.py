"""Pluggable search strategies: selection, 5-model coverage, and
seeded determinism (paper §5.1's "exhaustive search ... or
pseudorandomly explore single execution paths", generalised)."""

import pytest

from repro.dynamics.explore import STRATEGIES, PathNode, make_strategy
from repro.dynamics.explore.strategies import (
    BfsStrategy, CoverageStrategy, DfsStrategy, RandomStrategy,
)
from repro.pipeline import MODELS, compile_c, explore_c, explore_many
from repro.spec import ExploreSpec

TWO_ORDERS = r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); putchar('\n'); return 0; }
'''


class TestRegistry:
    def test_all_four_registered(self):
        assert sorted(STRATEGIES) == ["bfs", "coverage", "dfs",
                                      "random"]

    def test_make_strategy_resolves(self):
        assert isinstance(make_strategy("dfs"), DfsStrategy)
        assert isinstance(make_strategy("bfs"), BfsStrategy)
        assert isinstance(make_strategy("random", 1), RandomStrategy)
        assert isinstance(make_strategy("coverage"), CoverageStrategy)
        inst = BfsStrategy()
        assert make_strategy(inst) is inst

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            make_strategy("zigzag")
        with pytest.raises(ValueError):
            explore_c("int main(void){ return 0; }",
                      strategy="zigzag")

    def test_frontier_orders(self):
        shallow = PathNode((0,))
        deep = PathNode((0, 1, 1))
        dfs = make_strategy("dfs")
        dfs.push(shallow)
        dfs.push(deep)
        assert dfs.pop() is deep          # LIFO
        bfs = make_strategy("bfs")
        bfs.push(deep)
        bfs.push(shallow)
        assert bfs.pop() is shallow       # shortest prefix first
        cov = make_strategy("coverage")
        seen = PathNode((1,), flip=("nd", 1))
        fresh = PathNode((2,), flip=("unseq", 1))
        cov.push(seen)
        cov.push(fresh)
        assert cov.pop() is seen          # both fresh: FIFO tiebreak
        cov.push(PathNode((3,), flip=("nd", 1)))
        assert cov.pop() is fresh         # ("nd", 1) already flipped

    def test_drain_empties_frontier(self):
        s = make_strategy("random", seed=0)
        nodes = [PathNode((i,)) for i in range(5)]
        for n in nodes:
            s.push(n)
        drained = s.drain()
        assert len(s) == 0
        assert sorted(n.choices for n in drained) == \
            sorted(n.choices for n in nodes)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestStrategiesAcrossModels:
    def test_five_model_exploration(self, strategy):
        # Every strategy, under every registered memory object model,
        # finds exactly the two evaluation orders.
        results = explore_many(TWO_ORDERS, strategy=strategy, seed=5,
                               max_paths=300)
        assert sorted(results) == sorted(MODELS)
        for model, res in results.items():
            assert res.exhausted, (strategy, model)
            outs = {o.stdout for o in res.outcomes
                    if o.status in ("done", "exit")}
            assert outs == {"ab\n", "ba\n"}, (strategy, model)


class TestDeterminism:
    def _multiset(self, res):
        return sorted(o.summary() for o in res.outcomes)

    @pytest.mark.parametrize("strategy", ["random", "coverage"])
    def test_same_seed_same_outcomes(self, strategy):
        a = explore_c(TWO_ORDERS, strategy=strategy, seed=42,
                      max_paths=40)
        b = explore_c(TWO_ORDERS, strategy=strategy, seed=42,
                      max_paths=40)
        assert a.paths_run == b.paths_run
        assert self._multiset(a) == self._multiset(b)

    def test_strategies_agree_on_exhausted_space(self):
        keys = None
        for strategy in sorted(STRATEGIES):
            res = explore_c(TWO_ORDERS, strategy=strategy, seed=1,
                            max_paths=1000)
            assert res.exhausted, strategy
            if keys is None:
                keys = res.behaviour_keys()
            else:
                assert res.behaviour_keys() == keys, strategy


class TestDivergenceDiscard:
    def test_run_flags_divergence(self):
        # Replaying a stale choice value against a smaller arity must
        # surface on the Outcome instead of silently mis-replaying.
        from repro.dynamics.driver import Oracle
        program = compile_c(TWO_ORDERS)
        out = program.run("concrete", oracle=Oracle([9]))
        assert out.diverged
        clean = program.run("concrete", oracle=Oracle([1]))
        assert not clean.diverged

    def test_explorer_discards_diverged_paths(self):
        from repro.dynamics.driver import Oracle, Outcome
        from repro.dynamics.explore import Explorer

        class FakeDriver:
            def __init__(self, oracle):
                self.oracle = oracle
                self.deadline = None

            def run(self, entry="main"):
                self.oracle.diverged = True
                return Outcome("done", exit_code=0, diverged=True)

        res = Explorer(FakeDriver, ExploreSpec(max_paths=10)).run()
        assert res.paths_run == 1
        assert res.diverged == 1
        assert res.outcomes == []       # discarded, not mis-reported
        assert not res.exhausted        # a subtree was abandoned
