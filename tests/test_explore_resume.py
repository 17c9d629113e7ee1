"""Resume-equivalence of incremental re-exploration.

Exploration is a tree of independent subtrees, so a persisted frontier
is an exact cut through it: an interrupted campaign resumed from its
persisted record (the slim
:class:`~repro.dynamics.explore.ExplorationResult` it left) must
merge to a result *identical* to an uninterrupted serial run —
behaviour sets (UB name + site), ``paths_run``, ``pruned`` and
``diverged`` accounting — across every search strategy × POR on/off,
whether the interruption was a path budget, a wall-clock deadline, or
a simulated process kill.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.dynamics.explore import (
    RECORD_KIND, ExplorationResult, exploration_key,
)
from repro.farm.frontier import explore_farm
from repro.farm.pool import task_stats
from repro.farm.store import ArtifactStore
from repro.pipeline import compile_c
from repro.spec import ExploreSpec

ROOT = Path(__file__).resolve().parents[1]

# One unseq pair: 576 paths unreduced, 41 with POR — wide enough to
# interrupt anywhere, quick to exhaust for exact comparisons.
PAIR = r'''
int a, b;
int main(void) { (a = 1) + (b = 2); return a + b - 3; }
'''

# An unsequenced race: the behaviour set contains genuine UB (name +
# site), so equivalence checks cover UB dedup keys too.
RACE = r'''
int a;
int main(void) { return (a = 1) + (a = 2); }
'''

BIG = 100_000
CONFIGS = [(s, por) for s in ("dfs", "bfs", "random", "coverage")
           for por in (False, True)]


@pytest.fixture(scope="module")
def program():
    return compile_c(PAIR)


@pytest.fixture(scope="module")
def serial(program):
    """Uninterrupted oracle-of-record runs, one per configuration."""
    return {(s, por): program.explore("concrete", max_paths=BIG,
                                      strategy=s, por=por, seed=11)
            for s, por in CONFIGS}


def _get(store, key):
    return store.get_record(key, ExplorationResult, kind=RECORD_KIND)


def _same(result, reference):
    assert result.paths_run == reference.paths_run
    assert result.pruned == reference.pruned
    assert result.diverged == reference.diverged
    assert result.exhausted == reference.exhausted
    assert result.behaviour_keys() == reference.behaviour_keys()


class TestBudgetResume:
    """Deterministic interruption: cut at a seeded random path budget,
    resume to completion, compare exactly."""

    @pytest.mark.parametrize("strategy,por", CONFIGS)
    def test_cut_and_resume_equals_serial(self, tmp_path, program,
                                          serial, strategy, por,
                                          counters):
        reference = serial[(strategy, por)]
        rng = random.Random(hash((strategy, por)) & 0xFFFF)
        cut = rng.randrange(1, reference.paths_run)
        store = ArtifactStore(tmp_path / "store")
        part = program.explore("concrete", max_paths=cut,
                               strategy=strategy, por=por, seed=11,
                               store=store)
        assert part.paths_run == cut
        assert not part.exhausted
        full = program.explore("concrete", max_paths=BIG,
                               strategy=strategy, por=por, seed=11,
                               store=store)
        _same(full, reference)
        assert counters()["explore_resumes"] == 1
        # Everything ran exactly once, split across the two calls.
        assert counters()["explore_live_paths"] == reference.paths_run

    def test_many_rounds_of_resumption(self, tmp_path, program,
                                       serial, counters):
        """A chain of small budget increments converges to the serial
        result with no path run twice."""
        reference = serial[("dfs", False)]
        store = ArtifactStore(tmp_path / "store")
        rng = random.Random(0xC0FFEE)
        budget = 0
        result = None
        while budget < reference.paths_run:
            budget += rng.randrange(25, 120)
            result = program.explore("concrete", max_paths=budget,
                                     strategy="dfs", seed=11,
                                     store=store)
        _same(result, reference)
        assert counters()["explore_live_paths"] == reference.paths_run
        assert counters()["explore_resumes"] >= 2

    def test_ub_behaviours_survive_resumption(self, tmp_path):
        program = compile_c(RACE)
        reference = program.explore("concrete", max_paths=BIG)
        assert reference.has_ub()
        store = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=3, store=store)
        full = program.explore("concrete", max_paths=BIG, store=store)
        _same(full, reference)
        assert sorted(full.ub_names()) == sorted(reference.ub_names())


class TestDeadlineResume:
    """Wall-clock interruption at randomized (seeded) deadlines: the
    nondeterministic cut point must never change the converged
    result — a deadline-aborted path is requeued uncounted and
    replayed in full by the resume."""

    @pytest.mark.parametrize("strategy,por", CONFIGS)
    def test_interrupt_resume_converges(self, tmp_path, program,
                                        serial, strategy, por, counters):
        reference = serial[(strategy, por)]
        rng = random.Random(hash(("deadline", strategy, por)))
        store = ArtifactStore(tmp_path / "store")
        result = None
        for _ in range(500):
            deadline = rng.uniform(0.005, 0.04)
            result = program.explore("concrete", max_paths=BIG,
                                     strategy=strategy, por=por,
                                     seed=11, store=store,
                                     deadline_s=deadline)
            if result.exhausted:
                break
        assert result is not None and result.exhausted, \
            "deadline-interrupted exploration never converged"
        _same(result, reference)
        assert counters()["explore_live_paths"] == reference.paths_run


class TestKillResume:
    """A killed process leaves only the on-disk record: a *fresh*
    store handle (new process, same directory) resumes it."""

    def test_fresh_handle_resumes_partial(self, tmp_path, program,
                                          serial):
        reference = serial[("dfs", False)]
        root = tmp_path / "store"
        program.explore("concrete", max_paths=200, strategy="dfs",
                        seed=11, store=ArtifactStore(root))
        fresh = ArtifactStore(root)         # simulated new process
        with obs.collecting() as registry:
            full = program.explore("concrete", max_paths=BIG,
                                   strategy="dfs", seed=11, store=fresh)
        _same(full, reference)
        counts = task_stats(registry.to_dict())
        assert counts["explore_resumes"] == 1
        assert counts["explore_live_paths"] == \
            reference.paths_run - 200

    def test_warm_hit_runs_zero_paths(self, tmp_path, program,
                                      serial):
        reference = serial[("dfs", False)]
        root = tmp_path / "store"
        program.explore("concrete", max_paths=BIG, strategy="dfs",
                        seed=11, store=ArtifactStore(root))
        fresh = ArtifactStore(root)
        with obs.collecting() as registry:
            warm = program.explore("concrete", max_paths=BIG,
                                   strategy="dfs", seed=11, store=fresh)
        _same(warm, reference)
        counts = task_stats(registry.to_dict())
        assert counts["explore_hits"] == 1
        assert counts["explore_live_paths"] == 0    # zero paths re-run


class TestOneLifecycle:
    """Every exploration runs through one record lifecycle
    (:func:`repro.dynamics.explore.explore_space`): a partial record is
    always resumed, whichever seam meets it, and a storeless
    exploration never touches the farm."""

    EXAMPLE = str(ROOT / "examples" / "c" / "unseq_commuting.c")

    def _sweep(self, capsys, *extra):
        code = cli_main(["farm", "sweep", self.EXAMPLE, "--models",
                         "concrete", "--exhaustive", *extra])
        out = capsys.readouterr().out
        return code, [line for line in out.splitlines()
                      if line.startswith(self.EXAMPLE)]

    def test_farm_sweep_resumes_a_partial_record(self, tmp_path,
                                                 capsys):
        store = str(tmp_path / "store")
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        self._sweep(capsys, "--store", store, "--max-paths", "5",
                    "--report", str(first))
        resumed = self._sweep(capsys, "--store", store, "--report",
                              str(second))
        explore = json.loads(second.read_text())["metrics"]["explore"]
        assert explore["resumes"] == 1
        assert explore["live_paths"] == 495     # 500 - the 5 recorded
        # The resumed sweep prints what a storeless one prints.
        assert resumed == self._sweep(capsys)

    def test_cli_store_resumes_a_partial_record(self, tmp_path,
                                                capsys):
        """``--store`` alone makes a CLI exploration incremental: the
        one store holds the record, and the ``explore store:`` line
        reads the invocation's metrics."""
        store = str(tmp_path / "store")

        def run(*extra):
            cli_main([self.EXAMPLE, "--exhaustive", *extra])
            return capsys.readouterr().out.splitlines()

        run("--store", store, "--max-paths", "5")
        resumed = run("--store", store)
        assert "explore store: hits=1 resumes=1 live paths=495" \
            in resumed
        # The resumed run prints what a storeless one prints.
        assert [line for line in resumed
                if not line.startswith("explore store:")] == run()

    def test_storeless_exploration_imports_no_farm_module(self):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from repro.pipeline import compile_c\n"
            f"result = compile_c({PAIR!r}).explore('concrete',"
            " max_paths=5)\n"
            "assert result.paths_run == 5\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.farm')))\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRestorableOrder:
    """``drain_interrupted`` puts the mid-run-aborted node where it
    pops *first* on resume — in front for queue-shaped strategies,
    last for LIFO dfs — so a resumed frontier continues in the
    uninterrupted pop order."""

    def test_orders_restore_the_interrupted_pop(self):
        from repro.dynamics.explore import PathNode, make_strategy
        a, b, c = (PathNode((0,)), PathNode((1,)), PathNode((2,)))
        for name in ("dfs", "bfs", "coverage"):
            s = make_strategy(name)
            for n in (a, b, c):
                s.push(n)
            aborted = s.pop()
            restorable = s.drain_interrupted(aborted)
            fresh = make_strategy(name)
            for n in restorable:
                fresh.push(n)
            assert fresh.pop() is aborted, name


class TestPartialRecordShape:
    def test_partial_record_is_resumable_cut(self, tmp_path, program,
                                             serial):
        store = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=50, strategy="dfs",
                        seed=11, store=store)
        key = exploration_key(store, PAIR, program.impl, "concrete",
                              spec=ExploreSpec(strategy="dfs", seed=11))
        rec = _get(store, key)
        assert isinstance(rec, ExplorationResult)
        assert rec.frontier                 # the cut, ready to resume
        assert rec.paths_run == 50
        assert not rec.exhausted            # its frontier is left
        assert all(o.trace == [] for o in rec.outcomes)  # slimmed
        # ... and its merge with the resumed rest is the serial run.
        full = program.explore("concrete", max_paths=BIG,
                               strategy="dfs", seed=11, store=store)
        _same(full, serial[("dfs", False)])

    def test_diverged_loss_is_permanent_in_partial_records(self):
        """A diverged replay abandons its subtree forever — no
        frontier node re-mines it — so a partial record must stay
        not exhausted once its frontier is resumed, or the merge
        would falsely claim exhaustion an uninterrupted run denies."""
        from repro.dynamics.explore import PathNode

        def resumed(part):
            # The record's frontier is walked to the end: the merge of
            # what is left of the record and the walk of its frontier.
            rec = part.slim()
            assert rec.frontier and not rec.exhausted
            rec.frontier = []
            return ExplorationResult.merge(
                [rec, ExplorationResult(paths_run=3)])

        lossy = ExplorationResult(paths_run=5, diverged=1,
                                  frontier=[PathNode((1,))])
        assert not resumed(lossy).exhausted  # permanent loss survives
        # A deadline-abandoned path is the same kind of permanent
        # loss.
        cut_short = ExplorationResult(paths_run=5, abandoned=1,
                                      frontier=[PathNode((1,))])
        assert not resumed(cut_short).exhausted
        # ... while a plain budget cut leaves only its frontier.
        cut = ExplorationResult(paths_run=5, frontier=[PathNode((1,))])
        assert resumed(cut).exhausted

    def test_spent_budget_returns_partial_unexhausted(self, tmp_path,
                                                      program, counters):
        store = ArtifactStore(tmp_path / "store")
        first = program.explore("concrete", max_paths=50,
                                strategy="dfs", seed=11, store=store)
        again = program.explore("concrete", max_paths=50,
                                strategy="dfs", seed=11, store=store)
        assert again.paths_run == 50
        assert not again.exhausted
        assert again.behaviour_keys() == first.behaviour_keys()
        assert counters()["explore_live_paths"] == 50   # nothing re-run


class TestRecordFidelity:
    """A warm result must never differ from what the identical cold
    call would compute: semantic knobs are part of the key, and a
    record covering more paths than the requested budget is neither
    served nor clobbered."""

    def test_memory_options_do_not_alias(self, tmp_path, counters):
        from repro.memory.base import MemoryOptions
        program = compile_c("int main(void){ int x; return x == x; }")
        store = ArtifactStore(tmp_path / "store")
        flagged = program.explore(
            "concrete", options=MemoryOptions(uninit_read="ub"),
            max_paths=BIG, store=store)
        assert flagged.has_ub()
        stable = program.explore(
            "concrete", options=MemoryOptions(uninit_read="stable"),
            max_paths=BIG, store=store)
        assert not stable.has_ub()     # not the cached "ub" verdict
        assert counters()["explore_hits"] == 0
        assert counters()["explore_puts"] == 2

    def test_small_budget_never_served_a_bigger_record(self, tmp_path,
                                                       program,
                                                       serial, counters):
        reference = serial[("dfs", False)]
        store = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=BIG, strategy="dfs",
                        seed=11, store=store)
        cold = program.explore("concrete", max_paths=4,
                               strategy="dfs", seed=11)
        small = program.explore("concrete", max_paths=4,
                                strategy="dfs", seed=11, store=store)
        assert small.paths_run == cold.paths_run == 4
        assert not small.exhausted
        assert small.behaviour_keys() == cold.behaviour_keys()
        # ... and the fuller record survived: a full request still
        # warm-hits with zero paths re-run.
        before = counters()["explore_live_paths"]
        warm = program.explore("concrete", max_paths=BIG,
                               strategy="dfs", seed=11, store=store)
        _same(warm, reference)
        assert counters()["explore_live_paths"] == before


class TestDeadlineTooSmallForOnePath:
    def test_progress_is_forced_not_livelocked(self, tmp_path, counters):
        """When not even one path fits the deadline, the path is
        *abandoned* — counted (each store-backed invocation advances
        at least one path, no livelock) but recorded as no behaviour:
        a deadline-dependent "timeout" must never enter a
        deadline-independent record."""
        slow = ("int main(void){ long i, s = 0;"
                " for (i = 0; i < 50000; i++) s += i;"
                " return (int)(s & 1); }")
        program = compile_c(slow)
        store = ArtifactStore(tmp_path / "store")
        result = program.explore("concrete", max_paths=BIG,
                                 max_steps=10_000_000,
                                 deadline_s=0.001, store=store)
        assert result.paths_run == 1
        assert result.abandoned == 1
        assert result.outcomes == []       # no phantom behaviour
        assert not result.exhausted
        assert counters()["explore_live_paths"] == 1
        # The permanent loss survives the record round-trip: a later
        # warm/resumed result can never claim exhaustion.
        key = exploration_key(store, slow, program.impl, "concrete",
                              spec=ExploreSpec(max_steps=10_000_000))
        rec = _get(store, key)
        assert rec is not None and not rec.exhausted


class TestStoreArgumentNormalisation:
    def test_as_store_accepts_every_store_shape(self, tmp_path):
        """One normaliser turns every ``store`` argument into a handle.
        ``pathlib.Path`` has a ``.root`` attribute of its own (the
        filesystem root!) — normalisation must never mistake it for a
        store's directory."""
        from repro.farm.store import as_store
        p = tmp_path / "records"
        assert as_store(None) is None
        assert as_store(p).root == p
        assert as_store(str(p)).root == p
        backing = ArtifactStore(p)
        assert as_store(backing) is backing


@pytest.mark.slow_sweep
class TestDeepResume:
    """The ``pytest -m slow_sweep`` lane: a much wider state space
    (three unseq assignments, tens of thousands of paths) interrupted
    many times at seeded deadlines — excluded from tier-1 by the
    ``addopts`` default in setup.cfg."""

    TRIPLE = ("int a, b, c; int main(void)"
              "{ (a = 1) + (b = 2) + (c = 3); return a + b + c - 6; }")

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "coverage"])
    def test_deep_deadline_resume(self, tmp_path, strategy, counters):
        program = compile_c(self.TRIPLE)
        reference = program.explore("concrete", max_paths=1_000_000,
                                    strategy=strategy, por=True,
                                    seed=5)
        rng = random.Random(hash(("deep", strategy)))
        store = ArtifactStore(tmp_path / "store")
        result = None
        for _ in range(2000):
            result = program.explore("concrete", max_paths=1_000_000,
                                     strategy=strategy, por=True,
                                     seed=5, store=store,
                                     deadline_s=rng.uniform(0.02, 0.1))
            if result.exhausted:
                break
        assert result is not None and result.exhausted
        _same(result, reference)
        assert counters()["explore_live_paths"] == reference.paths_run


class TestFarmResume:
    """explore_farm publishes and resumes the same records: a farm
    warm hit re-runs zero paths, and a serial interruption can be
    finished by a sharded farm run (and vice versa)."""

    def test_farm_warm_hit(self, tmp_path, serial, counters):
        reference = serial[("dfs", False)]
        es = ArtifactStore(tmp_path / "store")
        cold = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=BIG),
                            jobs=2, store=es)
        _same(cold, reference)
        warm = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=BIG),
                            jobs=2, store=es)
        _same(warm, reference)
        assert counters()["explore_live_paths"] == reference.paths_run

    def test_serial_interrupt_farm_finish(self, tmp_path, program,
                                          serial, counters):
        reference = serial[("dfs", False)]
        es = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=150, strategy="dfs",
                        store=es)
        full = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=BIG),
                            jobs=2, store=es)
        _same(full, reference)
        assert counters()["explore_resumes"] == 1
        assert counters()["explore_live_paths"] == reference.paths_run

    def test_farm_interrupt_serial_finish(self, tmp_path, program,
                                          serial, counters):
        reference = serial[("dfs", False)]
        es = ArtifactStore(tmp_path / "store")
        part = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=120),
                            jobs=2, store=es)
        assert not part.exhausted
        full = program.explore("concrete", max_paths=BIG,
                               strategy="dfs", store=es)
        _same(full, reference)
        assert counters()["explore_live_paths"] == reference.paths_run

    def test_farm_spent_budget_is_not_a_resume(self, tmp_path,
                                               program, counters):
        """A farm call whose budget the record exactly spends runs
        nothing: no resume counted, no byte-identical re-put."""
        es = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=150, strategy="dfs",
                        store=es)
        again = explore_farm(PAIR, "concrete",
                             spec=ExploreSpec(max_paths=150),
                             jobs=2, store=es)
        assert not again.exhausted
        assert again.paths_run == 150      # served from the record
        counts = counters()
        assert counts["explore_resumes"] == 0
        assert counts["explore_puts"] == 1  # only the original put
        assert counts["explore_live_paths"] == 150

    def test_farm_small_budget_leaves_bigger_record_intact(
            self, tmp_path, program, serial, counters):
        """A farm request under a smaller budget than the record
        covers runs live and must not clobber the fuller record."""
        reference = serial[("dfs", False)]
        es = ArtifactStore(tmp_path / "store")
        program.explore("concrete", max_paths=150, strategy="dfs",
                        store=es)
        small = explore_farm(PAIR, "concrete",
                             spec=ExploreSpec(max_paths=60),
                             jobs=2, store=es)
        assert not small.exhausted
        # Ran live to exactly its budget, not the record's 150.
        assert small.paths_run == 60
        assert counters()["explore_puts"] == 1   # record not clobbered
        full = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=BIG),
                            jobs=2, store=es)
        _same(full, reference)             # resumed from the record

    def test_farm_por_resume(self, tmp_path, serial, counters):
        reference = serial[("dfs", True)]
        es = ArtifactStore(tmp_path / "store")
        part = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=15, por=True),
                            jobs=2, store=es)
        assert not part.exhausted
        full = explore_farm(PAIR, "concrete",
                            spec=ExploreSpec(max_paths=BIG, por=True),
                            jobs=2, store=es)
        _same(full, reference)
        assert counters()["explore_live_paths"] == reference.paths_run
