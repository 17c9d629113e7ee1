"""Campaign drivers: whole-corpus sweeps with JSON reports.

A *campaign* is a corpus × models sweep executed through the farm
pool (:func:`~repro.farm.pool.run_tasks`, serial at ``jobs=1``) and
summarised in a :class:`CampaignReport`: per-program verdicts,
aggregated cache counters (front-end translations, in-memory and
artifact-store hit rates, read from the tasks' metrics), and
wall-clock.  Two stock campaigns are the repo's batch consumers:

* :func:`suite_campaign` — the §2-§5 de facto test suite
  (:func:`repro.testsuite.runner.run_suite_many` is a thin wrapper);
* :func:`csmith_campaign` — the §6 Csmith differential validation
  (:func:`repro.csmith.reference.validate_programs` is a thin
  wrapper);

and :func:`sweep_campaign` runs ad-hoc corpora (the ``cerberus-py
farm sweep`` subcommand).  Sharded workers (``shard=(i, n)``) report
on disjoint slices of the corpus; their JSON reports can be
concatenated because program entries carry corpus-global names.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.metrics import merge_metric_dicts
from ..pipeline import MODELS
from ..spec import ExploreSpec
from .pool import (
    SweepTask, TaskResult, run_tasks, shard_select, sweep, task_stats,
)


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    total = hits + misses
    return round(hits / total, 4) if total else None


@dataclass
class CampaignReport:
    """The JSON-able record of one farm campaign.

    ``metrics`` is the unified observability block: per-worker
    :mod:`repro.obs` snapshots merged into one (``workers``), plus
    derived ``compile`` / ``explore`` / ``farm`` summaries.  ``cache``
    (the front-end compile/store counters) and ``metrics["explore"]``
    (the exploration-record counters) are
    :func:`~repro.farm.pool.task_stats` over ``workers``."""

    kind: str
    models: List[str]
    jobs: int
    shard: Tuple[int, int]
    programs: int
    wall_s: float
    cache: Dict[str, object] = field(default_factory=dict)
    summary: Dict[str, int] = field(default_factory=dict)
    results: List[dict] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def build(cls, kind: str, models: Sequence[str], jobs: int,
              shard: Tuple[int, int], task_results: List[TaskResult],
              wall_s: float, summary: Dict[str, int],
              results: List[dict]) -> "CampaignReport":
        workers = merge_metric_dicts(
            r.data.get("metrics") for r in task_results)
        cache = task_stats(workers)
        # Exploration-record counters report through the unified
        # metrics block only; cache keeps the compile/store counters.
        explore = {k: cache.pop(k) for k in tuple(cache)
                   if k.startswith("explore_")}
        cache["memory_hit_rate"] = _hit_rate(cache["memory_hits"],
                                             cache["memory_misses"])
        cache["store_hit_rate"] = _hit_rate(cache["store_hits"],
                                            cache["store_misses"])
        metrics = cls._build_metrics(cache, explore, workers,
                                     task_results, wall_s)
        return cls(kind, list(models), jobs, tuple(shard),
                   len(task_results), round(wall_s, 4), cache,
                   summary, results, metrics)

    @staticmethod
    def _build_metrics(cache: Dict[str, object],
                       explore: Dict[str, int],
                       workers: dict,
                       task_results: List[TaskResult],
                       wall_s: float) -> Dict[str, object]:
        """The unified ``metrics`` block: every worker's obs snapshot
        merged (exact under merging — see
        :class:`repro.obs.MetricsRegistry`), plus derived summaries.
        When an observability context is active (``--trace`` around
        the campaign), the campaign's timeout and failure counts are
        folded into it; the task snapshots already were, by the batch
        that ran them."""
        timeouts = sum(1 for r in task_results if r.timed_out)
        failures = sum(1 for r in task_results
                       if not r.ok and not r.timed_out)
        queue_wait = sum(r.queue_wait_s for r in task_results)
        task_walls = [r.wall_s for r in task_results]
        farm = {
            "tasks": len(task_results),
            "timeouts": timeouts,
            "failures": failures,
            "queue_wait_s": round(queue_wait, 4),
            "task_max_s": round(max(task_walls), 4) if task_walls
            else 0.0,
            "task_mean_s": round(sum(task_walls) / len(task_walls), 4)
            if task_walls else 0.0,
            "wall_s": round(wall_s, 4),
        }
        metrics = {
            "compile": {
                "translations": cache["translations"],
                "memory_hit_rate": cache["memory_hit_rate"],
                "store_hit_rate": cache["store_hit_rate"],
                "store_corrupt": cache.get("store_corrupt", 0),
            },
            # Exploration-record reuse (mode="explore" with a store):
            # warm campaigns show hit rate 1.0 and zero live paths.
            "explore": {
                "hits": explore.get("explore_hits", 0),
                "misses": explore.get("explore_misses", 0),
                "puts": explore.get("explore_puts", 0),
                "hit_rate": _hit_rate(
                    explore.get("explore_hits", 0),
                    explore.get("explore_misses", 0)),
                "live_paths": explore.get("explore_live_paths", 0),
                "resumes": explore.get("explore_resumes", 0),
            },
            "farm": farm,
            "workers": workers,
        }
        ctx = obs.active()
        if ctx is not None:
            ctx.inc("farm.timeouts", timeouts)
            if failures:
                ctx.inc("farm.failures", failures)
        return metrics

    def to_json(self) -> dict:
        return {
            "campaign": self.kind,
            "models": self.models,
            "jobs": self.jobs,
            "shard": list(self.shard),
            "programs": self.programs,
            "wall_s": self.wall_s,
            "cache": self.cache,
            "metrics": self.metrics,
            "summary": self.summary,
            "results": self.results,
        }

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2)
            f.write("\n")


def _base_entry(r: TaskResult) -> dict:
    entry = {"program": r.name, "wall_s": round(r.wall_s, 4)}
    if r.queue_wait_s:
        entry["queue_wait_s"] = round(r.queue_wait_s, 4)
    if r.timed_out:
        entry["timed_out"] = True
    if r.error:
        entry["error"] = r.error
    return entry


# -- the de facto test suite ---------------------------------------------------

def suite_campaign(models: Sequence[str],
                   names: Optional[Sequence[str]] = None,
                   jobs: int = 1,
                   store=None,
                   shard: Tuple[int, int] = (0, 1),
                   max_steps: int = 400_000,
                   task_timeout: Optional[float] = None,
                   lint: bool = False):
    """Sweep the de facto test suite across ``models``.

    Returns ``(SuiteReport, CampaignReport)`` — the first what
    :func:`~repro.testsuite.runner.run_suite_many` returns, the second
    the farm's JSON campaign record.  ``lint`` attaches the
    static findings (:mod:`repro.statics.lint`) to each program's
    report entry — attach-only here: suite verdicts stay the dynamic
    ground truth the static findings are gated against."""
    from ..testsuite.programs import TESTS
    from ..testsuite.runner import SuiteReport, TestResult

    all_names = list(names) if names is not None else sorted(TESTS)
    sharded = shard_select(all_names, *shard)
    spec = ExploreSpec(max_steps=max_steps)
    tasks = [SweepTask(index=i, name=name, kind="suite",
                       models=tuple(models), spec=spec, lint=lint)
             for i, name in enumerate(sharded)]
    start = time.perf_counter()
    task_results = run_tasks(tasks, jobs=jobs, store=store,
                             task_timeout=task_timeout)
    wall = time.perf_counter() - start

    suite = SuiteReport()
    entries: List[dict] = []
    for r in task_results:
        entry = _base_entry(r)
        if r.timed_out or (not r.ok and "results" not in r.data):
            # The whole task died: surface one error row per model so
            # the suite report stays per-test × per-model shaped.
            test = TESTS.get(r.name)
            for model in models:
                expected = test.expect.get(model) if test else None
                verdict = "error:FarmTimeout" if r.timed_out \
                    else f"error:{r.error}"
                suite.results.append(TestResult(
                    r.name, model, verdict, expected,
                    None if expected is None else False))
            entry["verdicts"] = {}
            entries.append(entry)
            continue
        results = r.data["results"]
        suite.results.extend(results)
        entry["verdicts"] = {t.model: t.verdict for t in results}
        entry["matches"] = {t.model: t.matches for t in results}
        if "lint" in r.data:
            entry["lint"] = r.data["lint"]
        entries.append(entry)

    summary = {
        "passed": len(suite.passed()),
        "failed": len(suite.failed()),
        "flagged": len(suite.flagged()),
        "rows": len(suite.results),
    }
    campaign = CampaignReport.build("suite", models, jobs, shard,
                                    task_results, wall, summary,
                                    entries)
    return suite, campaign


# -- csmith differential validation -------------------------------------------

def csmith_campaign(seeds: Optional[Sequence[int]] = None,
                    count: Optional[int] = None,
                    size: int = 12,
                    models: Optional[Sequence[str]] = None,
                    jobs: int = 1,
                    store=None,
                    shard: Tuple[int, int] = (0, 1),
                    max_steps: int = 300_000,
                    seed_base: int = 1000,
                    task_timeout: Optional[float] = None):
    """Differentially validate a reproducible Csmith corpus.

    The corpus is an explicit ``seeds`` list (or ``range(seed_base,
    seed_base + count)``) — sharded campaign workers therefore
    partition exactly the same corpus deterministically.  Each program
    is generated here and runs as a plain ``run`` task; its verdicts
    are classified against the generator's expected output.  Returns
    ``(ValidationReport, CampaignReport)``."""
    from ..csmith.generator import generate_program
    from ..csmith.reference import (
        ValidationReport, classify_outcomes, resolve_seeds,
    )

    seeds = resolve_seeds(count, seeds, seed_base)
    model_list = list(models) if models else ["concrete"]
    programs = [generate_program(seed, size)
                for seed in shard_select(list(seeds), *shard)]
    spec = ExploreSpec(max_steps=max_steps)
    tasks = [SweepTask(index=i, name=f"csmith-{p.seed}",
                       source=p.source, models=tuple(model_list),
                       spec=spec)
             for i, p in enumerate(programs)]
    start = time.perf_counter()
    task_results = run_tasks(tasks, jobs=jobs, store=store,
                             task_timeout=task_timeout)
    wall = time.perf_counter() - start

    report = ValidationReport()
    entries: List[dict] = []
    for program, r in zip(programs, task_results):
        report.total += 1
        entry = _base_entry(r)
        entry["seed"] = program.seed
        if r.timed_out:
            category = "timeout"
        elif not r.ok:
            category = "failed"
        else:
            category = classify_outcomes(program, r.data["verdicts"])
        entry["category"] = category
        if category == "agree":
            report.agree += 1
        elif category == "timeout":
            report.timeout += 1
        elif category == "failed":
            report.failed += 1
            report.failures.append(program.seed)
        else:
            report.disagree += 1
            report.disagreements.append(program.seed)
        entry["verdicts"] = {m: v.summary() for m, v in
                             r.data.get("verdicts", {}).items()}
        entries.append(entry)

    summary = {"agree": report.agree, "disagree": report.disagree,
               "timeout": report.timeout, "failed": report.failed}
    campaign = CampaignReport.build("csmith", model_list, jobs, shard,
                                    task_results, wall, summary,
                                    entries)
    return report, campaign


# -- ad-hoc corpora ------------------------------------------------------------

def sweep_campaign(programs: Iterable[Tuple[str, str]],
                   models: Optional[Sequence[str]] = None,
                   jobs: int = 1,
                   mode: str = "run",
                   spec: ExploreSpec = ExploreSpec(),
                   store=None,
                   shard: Tuple[int, int] = (0, 1),
                   lint: bool = False,
                   task_timeout: Optional[float] = None,
                   server=None):
    """Sweep an ad-hoc ``(name, source)`` corpus under one ``spec``;
    returns ``(task_results, CampaignReport)``.  ``store`` (a
    directory or an :class:`~repro.farm.store.ArtifactStore`) is the
    sweep's one store: compiled artifacts, statics records and, in
    explore mode, per-program × per-model exploration records — tasks
    publish what they explore, warm re-sweeps re-run zero paths (the
    report's ``metrics["explore"]`` block shows it), and interrupted
    explorations resume from their persisted frontier.  ``lint``
    runs the definite-UB linter per program and, in explore mode,
    acts as a *pre-exploration filter*: a program with a definite
    finding reports the finding instead of being path-enumerated (its
    report entry carries ``lint_filtered``).

    ``server`` (a unix socket path) routes the sweep through a running
    farm daemon (``cerberus-py serve``) instead of a local pool: jobs
    coalesce with identical in-flight submissions from other clients,
    results come from the daemon's crash-safe queue, and ``jobs`` /
    ``store`` are the *daemon's* choices, not this call's (the local
    values are ignored)."""
    model_list = list(models) if models is not None else list(MODELS)
    start = time.perf_counter()
    if server is not None:
        from .client import server_sweep
        sharded = shard_select(list(programs), *shard)
        task_results = server_sweep(
            server, sharded, spec=spec, models=model_list, mode=mode,
            lint=lint, timeout=task_timeout)
    else:
        task_results = sweep(programs, models=model_list, jobs=jobs,
                             mode=mode, spec=spec, store=store,
                             shard_index=shard[0],
                             shard_count=shard[1], lint=lint,
                             task_timeout=task_timeout)
    wall = time.perf_counter() - start

    entries: List[dict] = []
    statuses = {"ub": 0, "ok": 0, "other": 0, "lint_filtered": 0}
    for r in task_results:
        entry = _base_entry(r)
        if "lint" in r.data:
            entry["lint"] = r.data["lint"]
        if r.data.get("lint_filtered"):
            # Exploration skipped: the definite findings are the
            # verdict (each names a guaranteed UB behaviour).
            entry["lint_filtered"] = True
            statuses["lint_filtered"] += 1
            statuses["ub"] += 1
        if "verdicts" in r.data:
            entry["verdicts"] = {m: v.summary() for m, v in
                                 r.data["verdicts"].items()}
            for v in r.data["verdicts"].values():
                if v.status == "ub":
                    statuses["ub"] += 1
                elif v.status in ("done", "exit"):
                    statuses["ok"] += 1
                else:
                    statuses["other"] += 1
        if "explorations" in r.data:
            entry["explorations"] = {
                m: {"paths": e.paths_run, "exhausted": e.exhausted,
                    "behaviours": e.behaviours, "pruned": e.pruned}
                for m, e in r.data["explorations"].items()}
            for e in r.data["explorations"].values():
                if e.has_ub:
                    statuses["ub"] += 1
                else:
                    statuses["ok"] += 1
        entries.append(entry)
    campaign = CampaignReport.build(f"sweep:{mode}", model_list, jobs,
                                    shard, task_results, wall,
                                    statuses, entries)
    return task_results, campaign
