"""Farm-sharded frontier exploration: a breadth-first seeding phase
hands pending subtrees to ``explore_shard`` pool tasks; merged results
must match a serial exploration path for path."""

import os
import time

from repro import obs
from repro.dynamics.explore import ExplorationResult, Explorer, PathNode
from repro.dynamics.driver import Driver, Oracle
from repro.farm import pool
from repro.farm.explorestore import ExplorationRecord
from repro.farm.frontier import explore_farm
from repro.farm.pool import SweepTask, execute_task
from repro.pipeline import compile_c, explore_c
from repro.spec import ExploreSpec, RunSpec

# One unseq pair: a 576-path space, wide enough to shard yet quick
# to exhaust serially for exact-accounting comparisons.
PAIR = r'''
int a, b;
int main(void) { (a = 1) + (b = 2); return a + b - 3; }
'''


class TestFrontierHandoff:
    def test_seeder_stops_at_target_and_exposes_pending(self):
        program = compile_c(PAIR)

        def make_driver(oracle):
            return Driver(program.core, program.make_model("concrete"),
                          oracle, RunSpec(max_steps=500_000))

        ex = Explorer(make_driver,
                      ExploreSpec(max_paths=10_000, strategy="bfs"),
                      frontier_target=4)
        result = ex.run()
        assert result.exhausted            # handed off, not truncated
        assert len(ex.pending) >= 4
        assert all(isinstance(n, PathNode) for n in ex.pending)

    def test_subtrees_partition_the_space(self):
        # Seed-phase paths plus every pending subtree explored
        # serially must reproduce the full serial exploration exactly.
        program = compile_c(PAIR)

        def make_driver(oracle):
            return Driver(program.core, program.make_model("concrete"),
                          oracle, RunSpec(max_steps=500_000))

        serial = Explorer(make_driver,
                          ExploreSpec(max_paths=100_000)).run()
        seeder = Explorer(make_driver,
                          ExploreSpec(max_paths=100_000, strategy="bfs"),
                          frontier_target=4)
        seed_result = seeder.run()
        parts = [seed_result]
        for node in seeder.pending:
            parts.append(Explorer(make_driver,
                                  ExploreSpec(max_paths=100_000),
                                  initial=[node]).run())
        merged = ExplorationResult.merge(parts)
        assert merged.paths_run == serial.paths_run
        assert merged.exhausted
        assert merged.behaviour_keys() == serial.behaviour_keys()


class TestExploreShardTask:
    def test_shard_task_runs_subtree(self):
        task = SweepTask(index=0, name="shard", kind="explore_shard",
                         source=PAIR, models=("concrete",),
                         spec=ExploreSpec(max_paths=100_000),
                         prefix=(1,), sleep=())
        result = execute_task(task)
        assert result.ok, result.error
        shard = result.data["shard"]
        # The form the record store persists: a finished subtree is a
        # complete record.
        assert isinstance(shard, ExplorationRecord)
        assert shard.complete
        assert shard.exhausted
        assert shard.paths_run >= 1
        # Slimmed for IPC: deduplicated outcomes, traces stripped.
        assert all(o.trace == [] for o in shard.outcomes)

    def test_shard_ships_its_frontier_as_a_record(self):
        # A budget-cut shard answers in the form the store persists:
        # its remainder is PathNodes, flips included (coverage search
        # orders the frontier by them).
        task = SweepTask(index=0, name="shard", kind="explore_shard",
                         source=PAIR, models=("concrete",),
                         spec=ExploreSpec(max_paths=3,
                                          strategy="coverage"))
        result = execute_task(task)
        assert result.ok, result.error
        shard = result.data["shard"]
        assert isinstance(shard, ExplorationRecord)
        assert not shard.complete
        assert shard.paths_run == 3
        assert shard.frontier
        assert all(isinstance(node, PathNode) and node.flip is not None
                   for node in shard.frontier)

    def test_explore_task_strategy_and_por(self):
        task = SweepTask(index=0, name="t", kind="explore",
                         source=PAIR, models=("concrete",),
                         spec=ExploreSpec(max_paths=100_000,
                                          strategy="bfs", por=True))
        result = execute_task(task)
        assert result.ok, result.error
        summary = result.data["explorations"]["concrete"]
        assert summary.exhausted
        assert summary.pruned > 0
        assert not summary.has_ub


class TestExploreFarm:
    def test_jobs1_matches_plain_exploration(self):
        serial = explore_c(PAIR, model="concrete",
                           max_paths=100_000)
        farm = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=100_000), jobs=1)
        assert farm.paths_run == serial.paths_run
        assert farm.behaviour_keys() == serial.behaviour_keys()

    def test_sharded_merge_accounting(self):
        serial = explore_c(PAIR, model="concrete",
                           max_paths=100_000)
        farm = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=100_000), jobs=2)
        # Seeding plus shards pop exactly the serial node set: the
        # merged accounting is equal, not merely similar.
        assert farm.paths_run == serial.paths_run
        assert farm.exhausted
        assert farm.behaviour_keys() == serial.behaviour_keys()

    def test_sharded_por_matches_serial_por(self):
        serial = explore_c(PAIR, model="concrete",
                           max_paths=100_000, por=True)
        farm = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=100_000, por=True),
                            jobs=2)
        assert farm.paths_run == serial.paths_run
        assert farm.pruned == serial.pruned
        assert farm.exhausted
        assert farm.behaviour_keys() == serial.behaviour_keys()

    def test_sharded_ub_sites_match_serial(self):
        # A UB behaviour is its name *and* site: every shard must
        # report the site a serial run reports.
        race = "int a; int main(void) { return (a = 1) + (a = 2); }"
        serial = explore_c(race, model="concrete", max_paths=100_000)
        farm = explore_farm(race, "concrete",
                            spec=ExploreSpec(max_paths=100_000), jobs=2)
        assert serial.has_ub()
        assert farm.paths_run == serial.paths_run
        assert farm.behaviour_keys() == serial.behaviour_keys()

    def test_budget_hit_marks_not_exhausted(self):
        # The global budget is split across shards (ceiling), so the
        # merged total stays in the budget's ballpark — and a shard
        # hitting its slice marks the merge non-exhausted.
        farm = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=40), jobs=2)
        assert not farm.exhausted
        assert 0 < farm.paths_run < 576    # well short of the space

    def test_lost_shards_are_requeued_not_raised(self, monkeypatch):
        # A shard whose worker died, and one that overran the hard
        # timeout, lose their subtrees to the frontier: the merge is
        # not exhausted and the exploration does not fail (only a
        # shard whose program raised fails it).  Workers are forked,
        # so they run the patched shard recipe.
        real = pool._explore_shard

        def lossy(task):
            if task.index == 0:
                os._exit(1)
            if task.index == 1:
                time.sleep(60)
            return real(task)

        monkeypatch.setattr(pool, "_explore_shard", lossy)
        serial = explore_c(PAIR, model="concrete", max_paths=100_000)
        with obs.collecting() as registry:
            farm = explore_farm(PAIR, "concrete",
                                spec=ExploreSpec(max_paths=100_000),
                                jobs=2, task_timeout=1.0)
        assert registry.counters["farm.shard_requeues"] == 2
        assert registry.counters.get("farm.task_failures", 0) == 0
        assert not farm.exhausted
        assert 0 < farm.paths_run < serial.paths_run

    def test_entry_threaded_to_shards(self):
        # Shards must explore the same entry procedure the seeding
        # phase did, or prefixes replay against the wrong state space.
        src = ("int a, b; int go(void){ (a=1)+(b=2); return a+b-3; } "
               "int main(void){ return go(); }")
        program = compile_c(src)
        spec = ExploreSpec(entry="go", max_paths=100_000)
        serial = program.explore("concrete", spec)
        farm = explore_farm(src, "concrete", spec=spec, jobs=2)
        assert farm.paths_run == serial.paths_run
        assert farm.diverged == 0
        assert farm.behaviour_keys() == serial.behaviour_keys()

    def test_merge_counters(self):
        a = ExplorationResult(paths_run=3, pruned=1, exhausted=True)
        b = ExplorationResult(paths_run=4, diverged=2, exhausted=False)
        merged = ExplorationResult.merge([a, b])
        assert merged.paths_run == 7
        assert merged.pruned == 1
        assert merged.diverged == 2
        assert not merged.exhausted
