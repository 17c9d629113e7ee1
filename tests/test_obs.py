"""The telemetry spine (:mod:`repro.obs`): metrics merge exactly,
traces round-trip through the CLI and ``stats``, farm workers ship
metrics that sum to the serial totals, store corruption is counted
and warned about, and — the load-bearing invariant — semantics are
byte-identical with tracing on."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.ctypes.implementation import LP64
from repro.dynamics.explore import Explorer, driver_factory
from repro.farm.campaign import sweep_campaign
from repro.farm.pool import store_stats, sweep
from repro.farm.store import ArtifactStore, StoreCorruptionWarning
from repro.obs.metrics import MetricsRegistry, merge_metric_dicts
from repro.obs.stats import render_text, summarize_trace
from repro.obs.trace import read_trace, run_id_for
from repro.pipeline import (
    MODELS, clear_compile_cache, compile_c, set_artifact_store,
)
from repro.spec import ExploreSpec

SRC_OK = r'''
int main(void) { int a = 40; return a + 2; }
'''

# Two unsequenced pairs: a real multi-path exploration.
SRC_UNSEQ = r'''
int x, y;
int f(int v) { x = v; return v; }
int g(int v) { y = v; return v; }
int main(void) { return (f(1) + g(2)) & 1; }
'''

CORPUS = [("ok", SRC_OK), ("unseq", SRC_UNSEQ)]


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, cwd=str(cwd),
        env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})


class TestMetricsRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        r = MetricsRegistry()
        r.inc("c")
        r.inc("c", 4)
        r.gauge("g", 7.5)
        r.observe("h", 2.0)
        r.observe("h", 6.0)
        d = r.to_dict()
        assert d["counters"]["c"] == 5
        assert d["gauges"]["g"] == 7.5
        assert d["histograms"]["h"] == {
            "count": 2, "total": 8.0, "min": 2.0, "max": 6.0}

    def test_merge_sums_counts_and_widens_extrema(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.observe("h", 1.0)
        b.observe("h", 9.0)
        b.observe("h", 3.0)
        merged = merge_metric_dicts([a.to_dict(), b.to_dict(), None])
        assert merged["counters"]["c"] == 5
        assert merged["histograms"]["h"] == {
            "count": 3, "total": 13.0, "min": 1.0, "max": 9.0}

    def test_collecting_scope_is_isolated(self):
        # Worker metrics must arrive at the parent exactly once —
        # via the explicit snapshot merge, never live.
        with obs.tracing(None) as outer:
            with obs.collecting() as inner:
                obs.active().inc("task.work", 3)
            assert "task.work" not in outer.metrics.to_dict()[
                "counters"]
            outer.merge(inner.to_dict())
            assert outer.metrics.to_dict()["counters"][
                "task.work"] == 3

    def test_collecting_scope_writes_the_enclosing_trace(self, tmp_path):
        # Its metrics are its own, but its spans go to the enclosing
        # scope's trace file and captures to its profile directory,
        # numbered after the enclosing scope's own.
        path, prof = tmp_path / "t.jsonl", tmp_path / "prof"
        with obs.tracing(str(path), profile_dir=str(prof)) as outer:
            with outer.span("first", profile=True):
                pass
            with obs.collecting() as inner:
                with obs.active().span("task", profile=True):
                    pass
        spans = [r["name"] for r in read_trace(str(path))
                 if r["type"] == "span"]
        assert spans == ["first", "task"]
        assert "span.task" in inner.to_dict()["histograms"]
        assert "span.task" not in outer.metrics.to_dict()["histograms"]
        assert sorted(p.name for p in prof.glob("*.pstats")) == \
            ["001-first.pstats", "002-task.pstats"]


class TestTracing:
    def test_trace_file_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.tracing(str(path), identity="id-1") as ctx:
            with ctx.span("outer", flavour="test"):
                with ctx.span("inner"):
                    ctx.inc("things", 2)
        records = read_trace(str(path))
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds[-1] == "metrics"
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["outer"]["depth"] == 0
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["attrs"] == {"flavour": "test"}
        assert records[-1]["metrics"]["counters"]["things"] == 2
        # span histograms always recorded alongside the span records
        assert records[-1]["metrics"]["histograms"][
            "span.outer"]["count"] == 1
        run = records[0]["run"]
        assert all(r["run"] == run for r in records)

    def test_run_ids_are_content_derived(self):
        assert run_id_for("same") == run_id_for("same")
        assert run_id_for("same") != run_id_for("different")
        assert len(run_id_for("x")) == 16

    def test_disabled_is_inert(self):
        assert obs.active() is None
        with obs.maybe_span(None, "nothing"):
            pass  # must not raise, must not record anywhere

    def test_profile_dir_captures_phases(self, tmp_path):
        prof = tmp_path / "prof"
        with obs.tracing(None, profile_dir=str(prof)):
            compile_c(SRC_OK)
        pstats_files = sorted(prof.glob("*.pstats"))
        txt_files = sorted(prof.glob("*.txt"))
        assert pstats_files, "no .pstats captures written"
        assert len(txt_files) == len(pstats_files)
        names = {p.stem.split("-", 1)[1] for p in pstats_files}
        assert "pipeline.parse" in names
        assert "cumulative" in txt_files[0].read_text()


class TestCliRoundTrip:
    def test_trace_metrics_and_stats(self, tmp_path):
        (tmp_path / "p.c").write_text(SRC_UNSEQ)
        trace = tmp_path / "t.jsonl"
        r = _cli(["p.c", "--exhaustive", "--model", "concrete",
                  "--trace", str(trace), "--metrics"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "metrics:" in r.stderr
        assert "explore.paths" in r.stderr

        s = _cli(["stats", str(trace)], tmp_path)
        assert s.returncode == 0, s.stderr
        assert "pipeline.parse" in s.stdout
        assert "explore" in s.stdout
        assert "paths/s" in s.stdout

        j = _cli(["stats", str(trace), "--json"], tmp_path)
        summary = json.loads(j.stdout)
        assert summary["explorer"]["paths"] == \
            summary["metrics"]["counters"]["explore.paths"]
        assert summary["phases"]["pipeline.parse"]["count"] == 1

    def test_exhaustive_metrics_list_the_frontier_peak(self, tmp_path,
                                                        capsys):
        """The explorer observes its largest frontier once per
        exploration (``explore.frontier_peak``), so ``--exhaustive
        --metrics`` lists it."""
        (tmp_path / "p.c").write_text(SRC_UNSEQ)
        assert cli_main([str(tmp_path / "p.c"), "--model", "concrete",
                         "--exhaustive", "--metrics"]) == 0
        assert "explore.frontier_peak: count=1 " in \
            capsys.readouterr().err
        program = compile_c(SRC_UNSEQ)
        spec = ExploreSpec(max_paths=50)
        explorer = Explorer(driver_factory(
            program.core, lambda: program.make_model("concrete", spec),
            spec), spec)
        sizes = []
        push = explorer.strategy.push
        explorer.strategy.push = lambda node: (
            push(node), sizes.append(len(explorer.strategy)))
        with obs.collecting() as registry:
            explorer.run()
        peak = registry.to_dict()["histograms"]["explore.frontier_peak"]
        assert peak["count"] == 1
        assert peak["max"] == explorer.frontier_peak == max(sizes) > 1

    def test_the_trace_sees_the_import(self, tmp_path):
        """``cli.import`` runs from when the ``repro`` package started
        executing to ``main()``: before the trace opened, so its start
        offset is negative, and ``stats`` lists it among the phases."""
        (tmp_path / "p.c").write_text(SRC_OK)
        r = _cli(["p.c", "--trace", "t.jsonl"], tmp_path)
        assert r.returncode == 42, r.stderr
        spans = [rec for rec in read_trace(str(tmp_path / "t.jsonl"))
                 if rec.get("name") == "cli.import"]
        assert len(spans) == 1
        assert spans[0]["t0"] < 0 < spans[0]["wall_s"]
        assert -spans[0]["t0"] >= spans[0]["wall_s"]
        s = _cli(["stats", "t.jsonl"], tmp_path)
        assert any(line.split()[:2] == ["cli.import", "1"]
                   for line in s.stdout.splitlines())

    def test_models_trace_counts_each_task_once(self, tmp_path):
        # --models runs one farm task per model; their metrics reach
        # the trace and --metrics exactly once.
        (tmp_path / "p.c").write_text(SRC_OK)
        r = _cli(["p.c", "--models", "all", "--trace", "t.jsonl",
                  "--metrics"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert f"driver.runs = {len(MODELS)}" in r.stderr
        j = _cli(["stats", "t.jsonl", "--json"], tmp_path)
        summary = json.loads(j.stdout)
        # one translation for LP64, one for cheri's CHERI128
        assert summary["pipeline"]["translations"] == 2
        for phase in ("lex", "parse", "desugar", "typecheck",
                      "elaborate", "check_core"):
            assert summary["phases"][f"pipeline.{phase}"]["count"] == 2
        s = _cli(["stats", "t.jsonl"], tmp_path)
        assert "pipeline.parse" in s.stdout

    @pytest.mark.parametrize("flag", ["--models", "--model"])
    def test_an_in_process_task_writes_its_spans(self, tmp_path, flag):
        """A task run in-process (a single-model run, or ``--models``
        at ``--jobs 1``) writes its front-end and exploration spans and
        its paths timeline into the invocation's trace; its metrics
        still reach the trace once, through the batch's merge."""
        (tmp_path / "p.c").write_text(SRC_UNSEQ)
        trace = tmp_path / "t.jsonl"
        assert cli_main([str(tmp_path / "p.c"), flag, "concrete",
                         "--exhaustive", "--trace", str(trace)]) == 0
        records = read_trace(str(trace))
        spans = [r["name"] for r in records if r["type"] == "span"]
        for phase in ("lex", "parse", "desugar", "typecheck",
                      "elaborate", "check_core", "lower"):
            assert spans.count(f"pipeline.{phase}") == 1, phase
        assert spans.count("explore") == 1
        assert {r["name"] for r in records
                if r["type"] == "timeline"} == {"explore.paths"}
        hists = records[-1]["metrics"]["histograms"]
        assert hists["span.pipeline.parse"]["count"] == 1
        assert hists["span.explore"]["count"] == 1

    def test_in_process_tasks_write_profile_captures(self, tmp_path):
        # --models all translates twice (LP64, and CHERI128 for
        # cheri): every phase is captured twice, numbered apart.
        (tmp_path / "p.c").write_text(SRC_OK)
        prof = tmp_path / "prof"
        assert cli_main([str(tmp_path / "p.c"), "--models", "all",
                         "--profile", str(prof)]) == 0
        captures = sorted(p.stem for p in prof.glob("*.pstats"))
        phases = [c.split("-", 1)[1] for c in captures]
        for phase in ("lex", "parse", "desugar", "typecheck",
                      "elaborate", "check_core"):
            assert phases.count(f"pipeline.{phase}") == 2, phase
        assert len({c.split("-", 1)[0] for c in captures}) == \
            len(captures)
        assert len(list(prof.glob("*.txt"))) == len(captures)

    def test_run_id_is_deterministic_across_invocations(
            self, tmp_path):
        (tmp_path / "p.c").write_text(SRC_OK)
        runs = []
        for name in ("a.jsonl", "b.jsonl"):
            r = _cli(["p.c", "--model", "concrete",
                      "--trace", name], tmp_path)
            assert r.returncode == 42, r.stderr
            runs.append(read_trace(str(tmp_path / name))[0]["run"])
        assert runs[0] == runs[1], \
            "identical invocations must share a run id"
        r = _cli(["p.c", "--model", "provenance",
                  "--trace", "c.jsonl"], tmp_path)
        assert r.returncode == 42, r.stderr
        other = read_trace(str(tmp_path / "c.jsonl"))[0]["run"]
        assert other != runs[0], \
            "semantically different invocations must not collide"

    def test_stats_missing_file_is_exit_2(self, tmp_path):
        r = _cli(["stats", "no-such-trace.jsonl"], tmp_path)
        assert r.returncode == 2
        assert "stats" in r.stderr


def _deterministic_totals(metric_dict):
    """The worker counters a farm/serial comparison can pin exactly
    (timing histograms vary; their counts do not)."""
    counters = {k: v
                for k, v in metric_dict["counters"].items()
                if not k.startswith("farm.")}
    hist_counts = {k: v["count"]
                   for k, v in metric_dict["histograms"].items()
                   if not k.startswith("farm.")}
    return counters, hist_counts


class TestFarmMetrics:
    def test_worker_merge_equals_serial_totals(self, tmp_path):
        kw = dict(models=["concrete", "provenance"], mode="explore",
                  spec=ExploreSpec(max_paths=50, seed=7))
        serial = sweep(CORPUS, jobs=1,
                       store=tmp_path / "s1", **kw)
        parallel = sweep(CORPUS, jobs=2,
                         store=tmp_path / "s2", **kw)
        merged_serial = merge_metric_dicts(
            r.data["metrics"] for r in serial)
        merged_parallel = merge_metric_dicts(
            r.data["metrics"] for r in parallel)
        assert _deterministic_totals(merged_serial) == \
            _deterministic_totals(merged_parallel)
        counters = merged_parallel["counters"]
        assert counters["explore.paths"] > 2
        assert counters["driver.runs"] >= counters["explore.paths"]
        # translation is model-independent: once per program
        assert counters["pipeline.translations"] == len(CORPUS)

    def test_campaign_report_metrics_block(self, tmp_path):
        results, report = sweep_campaign(
            CORPUS, models=["concrete"], jobs=2, mode="explore",
            spec=ExploreSpec(max_paths=50), store=tmp_path / "store")
        doc = report.to_json()
        m = doc["metrics"]
        assert set(m) >= {"compile", "explore", "farm", "workers"}
        assert m["farm"]["tasks"] == len(results)
        assert m["farm"]["timeouts"] == 0
        assert m["compile"]["translations"] == \
            doc["cache"]["translations"]
        workers = merge_metric_dicts(
            r.data["metrics"] for r in results)
        assert m["workers"]["counters"] == workers["counters"]
        # exploration counters live only in the metrics block now —
        # the transitional cache scalar aliases are gone
        assert not any(k.startswith("explore_") for k in doc["cache"])
        assert set(m["explore"]) == {"hits", "misses", "puts",
                                     "hit_rate", "live_paths",
                                     "resumes"}

    def test_campaign_folds_worker_metrics_into_trace(
            self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.tracing(str(trace)):
            sweep_campaign(CORPUS, models=["concrete"], jobs=2,
                           mode="explore",
                           spec=ExploreSpec(max_paths=50),
                           store=tmp_path / "store")
        summary = summarize_trace(str(trace))
        # per-phase timings crossed the process boundary as span.*
        # histograms even though workers write no trace file
        assert summary["phases"]["pipeline.parse"]["count"] == \
            len(CORPUS)
        assert summary["explorer"]["paths"] > 2
        assert summary["stores"]["compiled"]["stores"] == len(CORPUS)
        text = render_text(summary)
        assert "pipeline.parse" in text
        assert "store kind" in text


class TestStoreCorruption:
    def _corrupt_one(self, store_dir):
        s = ArtifactStore(store_dir)
        previous = set_artifact_store(s)
        try:
            clear_compile_cache()
            compile_c(SRC_OK)
            [path] = sorted(p for p in s.objects.glob("*/*.pkl")
                            if not p.name.startswith(".tmp-"))
            path.write_bytes(b"\x00garbage")
            clear_compile_cache()
            with pytest.warns(StoreCorruptionWarning,
                              match="compiled.*falling back"):
                program = compile_c(SRC_OK)
            assert program.run("concrete").exit_code == 42
        finally:
            set_artifact_store(previous)
            clear_compile_cache()
        return s

    def test_corruption_warns_and_counts(self, tmp_path):
        # The daemon's stats table (store_stats) over the one channel.
        with obs.collecting() as registry:
            self._corrupt_one(tmp_path / "store")
        stats = store_stats(registry.to_dict())
        assert stats["corrupt"] == 1          # flat counter intact
        assert stats["by_kind"]["compiled"]["corrupt"] == 1
        assert stats["by_kind"]["compiled"]["stores"] == 2

    def test_corruption_reaches_obs_counters(self, tmp_path):
        with obs.collecting() as registry:
            self._corrupt_one(tmp_path / "store")
        counters = registry.to_dict()["counters"]
        assert counters["store.compiled.corrupt"] == 1
        # cold miss + the corrupt entry (a corrupt load is a miss too)
        assert counters["store.compiled.misses"] == 2
        assert "store.compiled.hits" not in counters


def _suite_verdicts(names, models, tracing_path=None):
    from repro.testsuite.goldens import compute_verdicts
    if tracing_path is None:
        return compute_verdicts(models=models, names=names)
    with obs.tracing(str(tracing_path)):
        return compute_verdicts(models=models, names=names)


class TestSemanticsUnchanged:
    def test_verdicts_identical_with_tracing_on(self, tmp_path):
        from repro.testsuite.programs import TESTS
        names = sorted(TESTS)[:4]
        models = ["concrete", "provenance"]
        plain = _suite_verdicts(names, models)
        clear_compile_cache()
        traced = _suite_verdicts(names, models,
                                 tmp_path / "t.jsonl")
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(traced, sort_keys=True)

    @pytest.mark.slow_sweep
    def test_full_goldens_identical_with_tracing_on(self, tmp_path):
        from repro.testsuite.goldens import diff_goldens, load_goldens
        goldens = load_goldens(
            Path(__file__).parent / "goldens" / "verdicts.json")
        with obs.tracing(str(tmp_path / "t.jsonl")):
            from repro.testsuite.goldens import compute_verdicts
            live = compute_verdicts(
                models=list(MODELS),
                spec=ExploreSpec(max_paths=goldens["max_paths"],
                                 max_steps=goldens["max_steps"]))
        assert diff_goldens(goldens, live) == []
