"""The farm pool and campaign drivers: sharding, parallel sweeps,
timeouts, campaign reports, and the re-backed batch consumers."""

import json
import os
import threading
import time

import pytest

from repro.csmith import validate_programs
from repro.cli import main as cli_main
from repro.farm.campaign import csmith_campaign, suite_campaign
from repro.farm.pool import (
    SweepTask, WorkerPool, run_tasks, shard_select, sweep,
)
from repro.pipeline import (
    MODELS, clear_compile_cache, compile_c, get_artifact_store,
    set_artifact_store,
)
from repro.spec import ExploreSpec
from repro.testsuite import TESTS, run_suite_many

HELLO = ('#include <stdio.h>\n'
         'int main(void){ printf("hi\\n"); return 0; }\n')
RACY = r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); return 0; }
'''
#: A program the front end rejects (``va_arg`` is a parse error).
VA_ARG = r'''
#include <stdarg.h>
int f(int n, ...) { va_list ap; va_start(ap, n);
                    int x = va_arg(ap, int); va_end(ap); return x; }
int main(void) { return f(1, 2); }
'''


class TestSharding:
    def test_shards_partition_exactly(self):
        items = list(range(13))
        shards = [shard_select(items, i, 4) for i in range(4)]
        flat = sorted(x for s in shards for x in s)
        assert flat == items
        assert shard_select(items, 0, 4) == [0, 4, 8, 12]

    def test_single_shard_is_identity(self):
        assert shard_select(["a", "b"], 0, 1) == ["a", "b"]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_select([1], 2, 2)
        with pytest.raises(ValueError):
            shard_select([1], 0, 0)


class TestSweep:
    def test_serial_and_parallel_agree(self):
        programs = [("hello", HELLO),
                    ("ret3", "int main(void){ return 3; }")]
        serial = sweep(programs, models=["concrete", "provenance"],
                       jobs=1)
        parallel = sweep(programs, models=["concrete", "provenance"],
                         jobs=2)
        assert [r.name for r in parallel] == ["hello", "ret3"]
        for s, p in zip(serial, parallel):
            assert s.name == p.name
            assert {m: (v.status, v.exit_code, v.stdout)
                    for m, v in s.data["verdicts"].items()} == \
                   {m: (v.status, v.exit_code, v.stdout)
                    for m, v in p.data["verdicts"].items()}

    def test_explore_mode(self):
        [result] = sweep([("racy", RACY)], models=["concrete"],
                         jobs=1, mode="explore")
        e = result.data["explorations"]["concrete"]
        assert e.paths_run >= 2
        assert not e.has_ub
        assert any("'ab'" in b for b in e.behaviours)
        assert any("'ba'" in b for b in e.behaviours)

    def test_compile_error_is_a_result_not_a_crash(self):
        [result] = sweep([("bad", "int main(void){ return x; }")],
                         models=["concrete"], jobs=1)
        assert not result.ok
        assert "DesugarError" in result.error

    @pytest.mark.parametrize("mode, programs", [
        # a program that stops the task with a Python exception
        # (va_arg is still a parse error), next to a passing one
        ("run", [("va_arg", VA_ARG), ("hello", HELLO)]),
        # a task kind no recipe handles
        ("nope", [("hello", HELLO),
                  ("ret3", "int main(void){ return 3; }")]),
    ])
    def test_failures_identical_at_any_jobs(self, mode, programs):
        # execute_task is the one failure boundary: whatever a task
        # raises is a failed result, with the same text in-process
        # and in a forked worker.
        runs = [[(r.name, r.ok, r.error)
                 for r in sweep(programs, models=["concrete"],
                                jobs=jobs, mode=mode)]
                for jobs in (1, 2)]
        assert runs[0] == runs[1]
        if mode == "run":
            assert runs[0][1] == ("hello", True, "")
        else:
            assert all(error == "ValueError: unknown task kind 'nope'"
                       for _, _, error in runs[0])

    def test_tasks_never_scan_the_store(self, tmp_path, monkeypatch):
        # A task's counters come from its metrics registry, never from
        # ArtifactStore.stats() (which scans the store directory).
        from repro.farm import server
        from repro.farm.store import ArtifactStore

        def scan(self):
            raise AssertionError("a task called ArtifactStore.stats()")

        monkeypatch.setattr(ArtifactStore, "stats", scan)
        store = tmp_path / "store"
        clear_compile_cache()
        [r] = sweep([("racy", RACY)], models=["concrete"], jobs=1,
                    mode="explore", store=store)
        assert r.ok, r.error
        assert r.stats["translations"] == 1
        assert r.stats["store_puts"] == 1
        assert r.stats["explore_puts"] == 1
        assert r.stats["explore_live_paths"] == \
            r.data["explorations"]["concrete"].paths_run
        job = server.JobSpec(source=RACY, name="racy",
                             models=("concrete",), mode="explore")
        previous = set_artifact_store(ArtifactStore(store))
        try:
            payload = server._execute_job(job.to_dict(), str(store),
                                          None)
        finally:
            set_artifact_store(previous)
        assert payload["ok"], payload["error"]
        assert payload["stats"]["explore_hits"] == 1
        assert payload["stats"]["explore_live_paths"] == 0

    def test_daemon_worker_scans_its_store_once(self, tmp_path,
                                                monkeypatch):
        # A daemon worker starts cold and installs the daemon's handle
        # once, as a pool worker does; its explore jobs open no handle
        # of their own, so the worker scans the store directory at most
        # once in its life, not once per job.
        from repro.farm import server
        from repro.farm.store import ArtifactStore
        handle = ArtifactStore(tmp_path / "store")
        previous = get_artifact_store()
        clear_compile_cache()
        set_artifact_store(handle)
        opened, scans = [], []
        init, size_bytes = ArtifactStore.__init__, \
            ArtifactStore.size_bytes
        monkeypatch.setattr(
            ArtifactStore, "__init__",
            lambda self, *a, **kw: opened.append(a) or init(self, *a,
                                                            **kw))
        monkeypatch.setattr(
            ArtifactStore, "size_bytes",
            lambda self: scans.append(self) or size_bytes(self))
        try:
            for i in range(4):
                job = server.JobSpec(
                    source=RACY.replace("'b'", f"'{i}'"),
                    name=f"racy{i}", models=("concrete",),
                    mode="explore")
                payload = server._execute_job(job.to_dict(),
                                              str(handle.root), None)
                assert payload["ok"], payload["error"]
                assert payload["stats"]["explore_puts"] == 1
        finally:
            set_artifact_store(previous)
            clear_compile_cache()
        assert opened == []
        assert len(scans) <= 1

    def test_sharded_sweep(self):
        programs = [(f"p{i}", f"int main(void){{ return {i}; }}")
                    for i in range(4)]
        shard0 = sweep(programs, models=["concrete"], jobs=1,
                       shard_index=0, shard_count=2)
        shard1 = sweep(programs, models=["concrete"], jobs=1,
                       shard_index=1, shard_count=2)
        assert [r.name for r in shard0] == ["p0", "p2"]
        assert [r.name for r in shard1] == ["p1", "p3"]

    def test_per_task_hard_timeout(self):
        spin = "int main(void){ while (1) ; return 0; }"
        programs = [("spin", spin), ("quick", HELLO)]
        results = sweep(programs, models=["concrete"], jobs=2,
                        spec=ExploreSpec(max_steps=2_000_000_000),
                        task_timeout=1.0)
        spin_r, quick_r = results
        assert spin_r.timed_out and not spin_r.ok
        assert "1s" in spin_r.error
        # the wedged worker must not take the healthy task with it
        assert quick_r.ok
        assert quick_r.data["verdicts"]["concrete"].stdout == "hi\n"

    def test_queued_tasks_survive_a_fully_wedged_pool(self):
        # Both workers wedge; the queued healthy task must be resumed
        # on a fresh pool, not falsely reported as timed out.
        spin = "int main(void){ while (1) ; return 0; }"
        programs = [("spin-a", spin), ("spin-b", spin),
                    ("quick", HELLO)]
        results = sweep(programs, models=["concrete"], jobs=2,
                        spec=ExploreSpec(max_steps=2_000_000_000),
                        task_timeout=1.0)
        by_name = {r.name: r for r in results}
        assert by_name["spin-a"].timed_out
        assert by_name["spin-b"].timed_out
        assert by_name["quick"].ok and not by_name["quick"].timed_out
        assert by_name["quick"].data["verdicts"]["concrete"] \
            .stdout == "hi\n"

    def test_store_none_falls_back_to_installed_store(self, tmp_path):
        # set_artifact_store + a farm run with no store= must compose:
        # the run uses (and fills) the globally installed store.
        from repro.farm.store import ArtifactStore
        from repro.pipeline import set_artifact_store
        store = ArtifactStore(tmp_path / "global")
        previous = set_artifact_store(store)
        try:
            clear_compile_cache()
            [r] = sweep([("p", HELLO)], models=["concrete"], jobs=1)
            assert r.stats["store_puts"] == 1
            clear_compile_cache()
            [r] = sweep([("p", HELLO)], models=["concrete"], jobs=1)
            assert r.stats["store_hits"] == 1
            assert r.stats["translations"] == 0
            # and jobs>1 workers inherit it too
            clear_compile_cache()
            [r2] = sweep([("p", HELLO), ("q", HELLO + " ")],
                         models=["concrete"], jobs=2)[:1]
            assert r2.stats["translations"] == 0
            assert r2.stats["store_hits"] == 1
        finally:
            set_artifact_store(previous)
            clear_compile_cache()

    def test_cooperative_exploration_deadline(self):
        program = compile_c(RACY)
        res = program.explore("concrete", max_paths=500,
                              deadline_s=0.0)
        assert not res.exhausted
        assert res.paths_run == 0


def _pool_call(kind, pause=0.0):
    """A :class:`WorkerPool` call: spin forever, die, answer with what
    does not pickle, or echo."""
    time.sleep(pause)
    if kind == "spin":
        while True:
            pass
    if kind == "die":
        os._exit(3)
    if kind == "pid":
        return os.getpid()
    if kind == "lock":
        return threading.Lock()
    return kind


class TestWorkerPool:
    def test_an_overrun_call_times_out_and_the_pool_serves_on(self):
        pool = WorkerPool(_pool_call, 1)
        try:
            with pytest.raises(TimeoutError):
                pool.submit("spin", timeout=0.5).result(timeout=30)
            assert pool.submit("next").result(timeout=30) == "next"
        finally:
            pool.shutdown()

    def test_an_unpicklable_result_fails_only_its_call(self):
        pool = WorkerPool(_pool_call, 1)
        try:
            pid = pool.submit("pid").result(timeout=30)
            with pytest.raises(RuntimeError, match="unpicklable"):
                pool.submit("lock").result(timeout=30)
            assert pool.submit("pid").result(timeout=30) == pid
        finally:
            pool.shutdown()

    def test_a_dying_worker_fails_only_its_own_call(self):
        pool = WorkerPool(_pool_call, 2)
        try:
            running = pool.submit("running", 0.5)
            dying = pool.submit("die")
            queued = [pool.submit(f"q{i}") for i in range(3)]
            with pytest.raises(RuntimeError, match="died"):
                dying.result(timeout=30)
            assert running.result(timeout=30) == "running"
            assert [f.result(timeout=30) for f in queued] \
                == ["q0", "q1", "q2"]
        finally:
            pool.shutdown()

    def test_shutdown_cancels_what_has_not_finished(self):
        pool = WorkerPool(_pool_call, 1)
        spinning = pool.submit("spin")
        queued = pool.submit("queued")
        time.sleep(0.2)
        pool.shutdown()
        assert spinning.cancelled() and queued.cancelled()
        assert pool.submit("late").cancelled()


class TestSuiteCampaign:
    NAMES = sorted(TESTS)[:8]

    def test_matches_serial_run_suite_many(self):
        baseline = run_suite_many(["concrete", "strict"],
                                  names=self.NAMES)
        suite, campaign = suite_campaign(["concrete", "strict"],
                                         self.NAMES, jobs=2)
        base_key = {(r.name, r.model): (r.verdict, r.matches)
                    for r in baseline.results}
        farm_key = {(r.name, r.model): (r.verdict, r.matches)
                    for r in suite.results}
        assert base_key == farm_key
        assert campaign.programs == len(self.NAMES)
        assert campaign.jobs == 2
        assert campaign.cache["translations"] >= 1

    def test_run_suite_many_jobs_kwarg_routes_to_farm(self):
        baseline = run_suite_many(["concrete"], names=self.NAMES)
        farmed = run_suite_many(["concrete"], names=self.NAMES,
                                jobs=2)
        assert {(r.name, r.verdict) for r in baseline.results} == \
            {(r.name, r.verdict) for r in farmed.results}

    def test_sharded_suites_cover_the_corpus(self):
        rows = []
        for i in range(3):
            report = run_suite_many(["concrete"], names=self.NAMES,
                                    shard=(i, 3))
            rows.extend(r.name for r in report.results)
        assert sorted(rows) == self.NAMES

    def test_report_json_round_trips(self, tmp_path):
        _, campaign = suite_campaign(["concrete"], self.NAMES[:3],
                                     jobs=1)
        path = tmp_path / "report.json"
        campaign.write(path)
        data = json.loads(path.read_text())
        assert data["campaign"] == "suite"
        assert data["programs"] == 3
        assert {"translations", "store_hits", "memory_hit_rate"} \
            <= set(data["cache"])
        assert len(data["results"]) == 3
        for entry in data["results"]:
            assert entry["verdicts"]


class TestZeroTranslationWarmStore:
    """The acceptance criterion: a 5-model suite sweep run twice with
    a store performs zero front-end translations on the second run."""

    NAMES = sorted(TESTS)[:6]

    def test_second_pass_is_execution_only(self, tmp_path):
        store_dir = tmp_path / "warmstore"
        models = list(MODELS)
        clear_compile_cache()
        first_suite, first = suite_campaign(models, self.NAMES,
                                            jobs=1, store=store_dir)
        assert first.cache["translations"] >= len(self.NAMES)
        assert first.cache["store_puts"] >= len(self.NAMES)

        clear_compile_cache()      # a fresh process would start cold
        second_suite, second = suite_campaign(models, self.NAMES,
                                              jobs=1, store=store_dir)
        assert second.cache["translations"] == 0
        assert second.cache["store_hits"] >= len(self.NAMES)
        assert second.cache["store_hit_rate"] == 1.0
        assert {(r.name, r.model, r.verdict)
                for r in first_suite.results} == \
            {(r.name, r.model, r.verdict)
             for r in second_suite.results}


class TestCsmithCampaign:
    def test_explicit_seed_list(self):
        report = validate_programs(seeds=[9000, 9005, 9010], size=6)
        assert report.total == 3
        assert report.disagree == 0 and report.failed == 0

    def test_seed_list_equals_seed_base_range(self):
        by_count = validate_programs(3, size=6, seed_base=9100)
        by_seeds = validate_programs(seeds=[9100, 9101, 9102], size=6)
        assert by_count.summary() == by_seeds.summary()

    def test_needs_count_or_seeds(self):
        with pytest.raises(ValueError):
            validate_programs()

    def test_sharded_workers_partition_reproducibly(self):
        seeds = [9200 + i for i in range(6)]
        shard_totals = []
        for i in range(3):
            report = validate_programs(seeds=seeds, size=6,
                                       shard=(i, 3))
            shard_totals.append(report.total)
        assert shard_totals == [2, 2, 2]

    def test_parallel_campaign_agrees_with_serial(self):
        seeds = [9300, 9301, 9302, 9303]
        serial, _ = csmith_campaign(seeds=seeds, size=6,
                                    models=["concrete"], jobs=1)
        parallel, camp = csmith_campaign(seeds=seeds, size=6,
                                         models=["concrete"], jobs=2)
        assert serial.summary() == parallel.summary()
        assert camp.summary["agree"] == parallel.agree
        assert [e["seed"] for e in camp.results] == seeds


class TestFarmCli:
    def _write(self, tmp_path, source):
        f = tmp_path / "prog.c"
        f.write_text(source)
        return str(f)

    def test_farm_suite_cli(self, tmp_path, capsys):
        names = ",".join(sorted(TESTS)[:3])
        report = tmp_path / "suite.json"
        code = cli_main(["farm", "suite", "--models", "concrete",
                         "--tests", names, "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert json.loads(report.read_text())["campaign"] == "suite"

    def test_farm_csmith_cli(self, capsys):
        code = cli_main(["farm", "csmith", "--seeds", "9400,9401",
                         "--size", "6"])
        assert code == 0
        assert "2 tests: 2 agree" in capsys.readouterr().out

    def test_farm_sweep_cli(self, tmp_path, capsys):
        path = self._write(tmp_path, HELLO)
        code = cli_main(["farm", "sweep", path,
                         "--models", "concrete,gcc"])
        assert code == 0
        assert "stdout='hi\\n'" in capsys.readouterr().out

    def test_single_file_store_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, HELLO)
        store = str(tmp_path / "store")
        try:
            assert cli_main([path, "--store", store]) == 0
            clear_compile_cache()
            assert cli_main([path, "--store", store,
                             "--models", "concrete,strict"]) == 0
        finally:
            from repro.pipeline import set_artifact_store
            set_artifact_store(None)
            clear_compile_cache()
        out = capsys.readouterr().out
        assert "concrete" in out and "strict" in out

    @pytest.mark.parametrize("flag", [("--shard", "0/2"),
                                      ("--explore-store", "es")])
    def test_single_file_store_and_shard_flags_are_gone(self, tmp_path,
                                                        flag):
        # --models already picks one program's models, and --store is
        # the one store: the main CLI has neither flag.
        path = self._write(tmp_path, HELLO)
        with pytest.raises(SystemExit) as exc:
            cli_main([path, "--models", "concrete,strict", *flag])
        assert exc.value.code == 2

    def test_farm_csmith_needs_corpus(self, capsys):
        assert cli_main(["farm", "csmith"]) == 2
        assert "--count or --seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("source, max_steps, code", [
        ("int main(void){ int x = 2147483647; return x + 1; }\n",
         2_000_000, 1),                                    # UB
        ("int f(void){ return 1; }\n", 2_000_000, 2),      # error
        ("int main(void){ while (1) ; return 0; }\n",
         5000, 3),                                          # timeout
    ])
    def test_submit_prints_what_models_prints(self, tmp_path, capsys,
                                              source, max_steps, code):
        # The daemon's payload, rendered by submit, gives the lines
        # and exit code --models gives (no daemon needed: the payload
        # is what its worker ships).
        from repro.cli import _render_submit_report
        from repro.farm.pool import execute_task, task_result_to_json
        models = ["concrete", "strict"]
        path = self._write(tmp_path, source)
        assert cli_main([path, "--models", ",".join(models),
                         "--max-steps", str(max_steps)]) == code
        lines = capsys.readouterr().out
        payload = task_result_to_json(execute_task(SweepTask(
            0, path, source=source, models=tuple(models),
            spec=ExploreSpec(max_steps=max_steps))))
        assert _render_submit_report({"report": payload}, models,
                                     False) == code
        assert capsys.readouterr().out == lines

    def test_submit_prints_a_failed_job_per_model(self, capsys):
        from repro.cli import _render_submit_report
        from repro.farm.pool import execute_task, task_result_to_json
        payload = task_result_to_json(execute_task(SweepTask(
            0, "p.c", kind="nope", source=HELLO,
            models=("strict", "concrete"))))
        assert _render_submit_report({"report": payload},
                                     ["strict", "concrete"], False) == 3
        assert capsys.readouterr().out.splitlines() == [
            f"{m:12s} error: ValueError: unknown task kind 'nope'"
            for m in ("concrete", "strict")]
