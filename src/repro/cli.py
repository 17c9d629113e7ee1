"""Command-line interface: ``cerberus-py file.c`` and ``cerberus-py
farm ...``.

Modes mirror the paper's tool: run one path, explore all allowed
behaviours, or pretty-print the elaborated Core. ``--models`` compiles
once and executes the shared artifact under a whole list of memory
object models, printing one verdict per model (the paper's cross-model
comparison).  A single-model run is a one-model batch: every verdict
but a sharded ``--exhaustive --jobs N`` one comes from
:func:`repro.farm.pool.execute_task`, and ``--pp-core`` is the one
direct compile.

Exploration flags (see :mod:`repro.dynamics.explore`):

* ``--strategy dfs|bfs|random|coverage`` — the search strategy over
  the oracle-path frontier (``--seed`` seeds random/coverage);
* ``--por`` — sleep-set partial-order reduction at unseq scheduling
  points: identical behaviour sets, several-fold fewer paths.

Farm flags (see :mod:`repro.farm`):

* ``--store DIR`` — the invocation's one persistent cross-process
  artifact store, holding every record kind: compiled Core is cached
  on disk, so repeated invocations skip the front end entirely, and
  with ``--exhaustive`` explorations persist as records
  (:mod:`repro.farm.explorestore`) — an unchanged program is never
  re-explored, an interrupted exploration resumes from its persisted
  frontier, and a single-model run prints an ``explore store:`` line
  read from the invocation's metrics (``farm sweep --store DIR``
  too);
* ``--jobs N`` — N parallel worker processes (N=1 runs in-process):
  one farm task per ``--models`` model (the same lines at any N), or
  the shards of a single-model ``--exhaustive`` frontier;
* ``cerberus-py farm suite|csmith|sweep ...`` — whole-corpus
  campaigns with JSON reports (per-program verdicts, cache hit rates,
  wall-clock); ``--shard I/N`` runs only the I-th of N deterministic
  shards of a campaign's corpus (partitioning for independent
  campaign workers).

Observability flags (see :mod:`repro.obs` for the full trace schema):

* ``--trace FILE`` — write a JSON-lines trace: pipeline-phase and
  exploration spans (wall + CPU time), a paths-over-time timeline,
  and a final metrics snapshot that includes farm workers' metrics.
  The run id on every record is a content hash of the invocation
  (never clock/RNG), so identical runs produce diffable traces;
* ``--metrics`` — print the collected metric counters after the run;
* ``--profile DIR`` — opt-in per-phase cProfile captures (one
  ``.pstats`` + top-25 ``.txt`` per instrumented phase);
* ``cerberus-py stats TRACE`` — render a trace into per-phase
  timings, per-kind store hit rates, and explorer throughput.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Optional, Tuple

from . import _started, obs
from .core.pretty import pretty_program
from .ctypes.implementation import ILP32, LP64
from .errors import CerberusError
from .pipeline import (
    MODELS, compile_for_model, get_artifact_store, lint_c, set_artifact_store,
)
from .spec import BACKENDS, STRATEGIES, ExploreSpec, SpecError


def _parse_shard(text: Optional[str]) -> Tuple[int, int]:
    """``"I/N"`` -> ``(I, N)``; None -> the whole corpus ``(0, 1)``."""
    if not text:
        return (0, 1)
    try:
        index, _, count = text.partition("/")
        shard = (int(index), int(count))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--shard wants I/N (e.g. 0/4), got {text!r}") from None
    if not (shard[1] >= 1 and 0 <= shard[0] < shard[1]):
        raise argparse.ArgumentTypeError(
            f"--shard index must be in [0, N), got {text!r}")
    return shard


def _parse_models(text: Optional[str], default=None):
    if text is None:
        return default
    if text == "all":
        return list(MODELS)
    models = [m.strip() for m in text.split(",") if m.strip()]
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown model(s): {', '.join(unknown)} (choose from "
            f"{', '.join(sorted(MODELS))})")
    return models


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSON-lines observability trace: one "
                        "record per line — meta (schema + run id), "
                        "span (named region: wall_s, cpu_s, t0 "
                        "offset, nesting depth), timeline (cumulative "
                        "explored paths over time), metrics (final "
                        "counters/gauges/histograms, farm workers "
                        "included).  The run id is a content hash of "
                        "the invocation, so identical runs produce "
                        "diffable traces.  Summarise with "
                        "'cerberus-py stats FILE'")
    p.add_argument("--metrics", action="store_true",
                   help="print the collected metric counters "
                        "(driver.*, explore.*, store.<kind>.*, "
                        "pipeline.*, farm.*) after the run")
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="capture a cProfile per instrumented phase "
                        "into DIR (NNN-<phase>.pstats + a top-25 "
                        "cumulative-time .txt each)")


def _obs_wanted(args) -> bool:
    return bool(args.trace or args.metrics or args.profile)


@contextlib.contextmanager
def _obs_scope(args, identity: str, counted: bool = False):
    """The observability context of one CLI invocation, or a no-op
    scope when no obs flag was given and the invocation need not be
    ``counted`` (a store-backed exploration reads its record counters
    from the invocation's metrics).  ``identity`` must be built
    from the invocation's *content* (source + semantic flags) — never
    from output paths like --trace/--profile/--report, which must not
    change the run id of otherwise identical runs.  The context
    starts with the ``cli.import`` span."""
    if not (counted or _obs_wanted(args)):
        yield None
        return
    with obs.tracing(args.trace or None, identity=identity,
                     profile_dir=args.profile or None) as ctx:
        ctx.add_span("cli.import", *_IMPORT_SPAN)
        yield ctx


def _print_metrics(ctx) -> None:
    if ctx is None:
        return
    snapshot = ctx.metrics.to_dict()
    print("metrics:", file=sys.stderr)
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  {name} = {value}", file=sys.stderr)
    for name, h in sorted(snapshot["histograms"].items()):
        print(f"  {name}: count={h['count']} "
              f"total={h['total']:.4f} max={h['max']:.4f}",
              file=sys.stderr)


def _add_farm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="number of parallel worker processes "
                        "(default: 1 = serial in-process)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persistent artifact store directory, the one "
                        "store of every record kind: compiled Core is "
                        "reused across processes and invocations "
                        "(skips the front end), and with --exhaustive "
                        "exploration results persist as records — an "
                        "unchanged program is never re-explored (zero "
                        "paths re-run on a warm hit) and an "
                        "interrupted exploration resumes from its "
                        "persisted frontier")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the :class:`~repro.spec.ExploreSpec` fields a
    command line can set (:func:`_spec` reads them back)."""
    p.add_argument("--strategy", choices=STRATEGIES,
                   default="dfs",
                   help="exploration search strategy (default: dfs, "
                        "the exhaustive oracle-of-record; bfs, "
                        "random and coverage reorder the frontier)")
    p.add_argument("--por", action="store_true",
                   help="sleep-set partial-order reduction: skip "
                        "unseq interleavings whose next actions "
                        "commute (same behaviours, fewer paths)")
    p.add_argument("--static-prune", action="store_true",
                   help="static pre-pruning (repro.statics): never "
                        "branch statically-commuting unseq points "
                        "and seed sleep sets from precomputed "
                        "footprints (same behaviours, fewer paths)")
    p.add_argument("--backend", choices=BACKENDS,
                   default="compiled",
                   help="evaluator back end: 'compiled' (default) "
                        "runs slotted lowered code, 'tree' walks the "
                        "Core AST (the oracle of record); both "
                        "produce identical verdicts")
    p.add_argument("--max-steps", type=int, default=2_000_000,
                   help="step budget of each run or explored path "
                        "(default: 2000000)")
    p.add_argument("--max-paths", type=int, default=500,
                   help="path budget of each exploration "
                        "(default: 500)")
    p.add_argument("--seed", type=int, default=None,
                   help="single-path mode: pseudorandom oracle seed; "
                        "exploration: random/coverage strategy seed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py",
        description="An executable de facto semantics for C "
                    "(PLDI 2016 reproduction). Batch campaigns: "
                    "cerberus-py farm {suite,csmith,sweep} --help; "
                    "static diagnostics: cerberus-py lint --help; "
                    "trace telemetry: cerberus-py stats --help")
    p.add_argument("file", help="C source file")
    p.add_argument("--model", choices=sorted(MODELS),
                   default="provenance",
                   help="memory object model (default: provenance)")
    p.add_argument("--models", default=None, metavar="M1,M2,...",
                   help="comma-separated list of memory object models "
                        "(or 'all'): compile once and print one "
                        "verdict per model")
    p.add_argument("--impl", choices=["LP64", "ILP32"], default="LP64",
                   help="implementation environment")
    p.add_argument("--exhaustive", action="store_true",
                   help="explore all allowed executions (test oracle "
                        "mode)")
    p.add_argument("--pp-core", action="store_true",
                   help="pretty-print the elaborated Core and exit")
    _add_spec_flags(p)
    _add_farm_flags(p)
    _add_obs_flags(p)
    return p


def _spec(args) -> ExploreSpec:
    """The one spec an invocation means: every spec field the parser
    has a flag for (the rest keep their defaults).  An invalid value
    is a usage error (exit 2), like argparse's own."""
    try:
        return ExploreSpec(**{k: getattr(args, k)
                              for k in ExploreSpec.field_names()
                              if hasattr(args, k)})
    except SpecError as exc:
        print(f"cerberus-py: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _main_identity(args, source: str, spec: ExploreSpec) -> str:
    """The content identity of one ``cerberus-py file.c`` invocation:
    the source, every spec field, and the flags that pick the mode
    and fan-out.  Output paths (--trace, --profile) and the cache
    location (--store) are deliberately excluded so they never
    perturb the run id."""
    return "\x00".join([
        "run", args.file, source, args.impl, args.model,
        str(args.models), str(args.exhaustive), str(args.jobs),
        str(args.pp_core),
        json.dumps(spec.to_json(), sort_keys=True)])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "farm":
        return farm_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"cerberus-py: {exc}", file=sys.stderr)
        return 2
    impl = LP64 if args.impl == "LP64" else ILP32
    spec = _spec(args)
    # --store opens the invocation's one store handle; it is
    # uninstalled again so an in-process caller's next run is not
    # served from it.
    previous = get_artifact_store()
    if args.store:
        from .farm.store import ArtifactStore
        set_artifact_store(ArtifactStore(args.store))
    try:
        with _obs_scope(args, _main_identity(args, source, spec),
                        counted=bool(args.store and args.exhaustive)
                        ) as ctx:
            code = _dispatch_main(args, source, impl, spec)
    finally:
        set_artifact_store(previous)
    if args.metrics:
        _print_metrics(ctx)
    return code


def _dispatch_main(args, source: str, impl, spec) -> int:
    if args.pp_core:
        # --pp-core wins over --models: it prints the Core --model runs.
        try:
            program = compile_for_model(source, args.model, impl,
                                        name=args.file)
        except CerberusError as exc:
            print(f"cerberus-py: {exc}", file=sys.stderr)
            return 2
        print(pretty_program(program.core))
        return 0
    from .farm.pool import ExploreSummary, SweepTask, TaskFailure, run_tasks
    if args.exhaustive and args.jobs > 1 and not args.models:
        from .farm.frontier import explore_farm
        try:
            result = ExploreSummary.from_result(explore_farm(
                source, args.model, impl, spec, jobs=args.jobs,
                store=get_artifact_store() if args.store else None,
                name=args.file))
        except CerberusError as exc:    # raised while seeding
            error = f"{type(exc).__name__}: {exc}"
        except TaskFailure as exc:      # raised in a shard
            error = str(exc)
        else:
            return _print_exploration(args, result)
        print(f"cerberus-py: {error}", file=sys.stderr)
        return 2
    try:
        models = _parse_models(args.models) if args.models \
            else [args.model]
    except argparse.ArgumentTypeError as exc:
        print(f"cerberus-py: {exc}", file=sys.stderr)
        return 2
    results = run_tasks([SweepTask(
        index=i, name=args.file, source=source, models=(model,),
        kind="explore" if args.exhaustive else "run", impl=impl,
        spec=spec) for i, model in enumerate(models)], jobs=args.jobs)
    if args.models:
        lines, code = _model_lines(zip(models, results))
        for line in lines:
            print(line)
        return code
    [r] = results
    if not r.ok:
        print(f"cerberus-py: {r.error}", file=sys.stderr)
        return 2
    if args.exhaustive:
        return _print_exploration(args, r.data["explorations"][args.model])
    return _print_verdict(r.data["verdicts"][args.model])


def _print_verdict(v) -> int:
    """Print a single-model :class:`~repro.farm.pool.Verdict` (stdout,
    then any UB, error or timeout line) and return its exit code."""
    sys.stdout.write(v.stdout)
    if v.status == "ub":
        # A UB site without a line prints as the unknown location.
        print(f"\nUndefined behaviour: {v.ub} "
              f"[{v.ub_loc or '<unknown>'}] {v.ub_detail}",
              file=sys.stderr)
        return 1
    if v.status == "error":
        print(f"\nerror: {v.error}", file=sys.stderr)
        return 2
    if v.status == "timeout":
        print("\ntimeout", file=sys.stderr)
        return 3
    return v.exit_code or 0


def _print_exploration(args, e) -> int:
    """Print a single-model :class:`~repro.farm.pool.ExploreSummary`
    (paths, ``--store`` counters, sorted behaviours); its exit code."""
    pruned = f", {e.pruned} pruned" if e.pruned else ""
    print(f"executions explored: {e.paths_run} "
          f"({'complete' if e.exhausted else 'budget hit'}{pruned})")
    if args.store:
        counters = obs.active().metrics.counters
        print(f"explore store: "
              f"hits={counters.get('store.exploration.hits', 0)} "
              f"resumes={counters.get('explore.resumes', 0)} "
              f"live paths={counters.get('explore.live_paths', 0)}")
    for behaviour in e.behaviours:
        print(f"  {behaviour}")
    return 1 if e.has_ub else 0


def _model_lines(rows):
    """The line each ``(model, task result)`` row prints —
    ``f"{model:12s} {summary}"``, what ``--models`` and ``submit``
    both print — and the exit code the rows mean, as in single-model
    mode: UB trumps errors (a failed task is one) trumps timeouts."""
    lines, statuses = [], set()
    for model, r in rows:
        if not r.ok:
            summary, status = f"error: {r.error}", "error"
        elif model in r.data.get("explorations", {}):
            e = r.data["explorations"][model]
            summary, status = e.summary(), "ub" if e.has_ub else "done"
        else:
            v = r.data["verdicts"][model]
            summary, status = v.summary(), v.status
        lines.append(f"{model:12s} {summary}")
        statuses.add(status)
    for status, code in (("ub", 1), ("error", 2), ("timeout", 3)):
        if status in statuses:
            return lines, code
    return lines, 0


# -- the lint subcommand -------------------------------------------------------

def build_lint_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py lint",
        description="Static definite-UB diagnostics over elaborated "
                    "Core (repro.statics.lint): uninitialized reads, "
                    "constant out-of-bounds accesses, over-wide "
                    "shifts, null dereferences, unsequenced races")
    p.add_argument("files", nargs="+", help="C source files")
    p.add_argument("--impl", choices=["LP64", "ILP32"], default="LP64",
                   help="implementation environment")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="artifact store: compiled Core and statics "
                        "records are cached across invocations")
    p.add_argument("--json", action="store_true",
                   help="emit findings as JSON (one object per file)")
    p.add_argument("--definite-only", action="store_true",
                   help="report (and exit on) definite findings only")
    return p


def lint_main(argv) -> int:
    args = build_lint_parser().parse_args(argv)
    impl = LP64 if args.impl == "LP64" else ILP32
    store = None
    if args.store:
        from .farm.store import ArtifactStore
        store = ArtifactStore(args.store)
        set_artifact_store(store)
    worst = 0
    payload = {}
    for path in args.files:
        try:
            with open(path) as f:
                source = f.read()
        except OSError as exc:
            print(f"cerberus-py lint: {exc}", file=sys.stderr)
            return 2
        try:
            findings = lint_c(source, impl, name=path, store=store)
        except CerberusError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        if args.definite_only:
            findings = [f for f in findings if f.definite]
        payload[path] = [f.to_dict() for f in findings]
        if not args.json:
            for f in findings:
                print(f.format())
        if any(f.definite for f in findings):
            worst = max(worst, 1)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return worst


# -- the farm subcommand -------------------------------------------------------

def build_farm_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py farm",
        description="Whole-corpus campaigns: parallel workers, "
                    "persistent artifact store, deterministic "
                    "sharding, JSON reports")
    sub = p.add_subparsers(dest="command", required=True)

    suite = sub.add_parser(
        "suite", help="sweep the de facto test suite across models")
    suite.add_argument("--models", default="all", metavar="M1,M2,...")
    suite.add_argument("--tests", default=None, metavar="T1,T2,...",
                       help="subset of test names (default: all)")
    suite.add_argument("--max-steps", type=int, default=400_000)

    csmith = sub.add_parser(
        "csmith", help="differentially validate a Csmith corpus")
    csmith.add_argument("--count", type=int, default=None,
                        help="corpus size (seeds seed-base..+count)")
    csmith.add_argument("--seeds", default=None, metavar="S1,S2,...",
                        help="explicit corpus seed list (reproducible "
                             "sharded campaigns)")
    csmith.add_argument("--seed-base", type=int, default=1000)
    csmith.add_argument("--size", type=int, default=12,
                        help="statement budget per program")
    csmith.add_argument("--models", default="concrete",
                        metavar="M1,M2,...")
    csmith.add_argument("--max-steps", type=int, default=300_000)

    sweep = sub.add_parser(
        "sweep", help="sweep ad-hoc C files across models")
    sweep.add_argument("files", nargs="+", help="C source files")
    sweep.add_argument("--models", default="all", metavar="M1,M2,...")
    sweep.add_argument("--exhaustive", action="store_true")
    _add_spec_flags(sweep)
    sweep.add_argument("--lint", action="store_true",
                       help="run the definite-UB linter per program; "
                            "with --exhaustive, a definite finding "
                            "skips that program's exploration "
                            "(pre-exploration filter)")
    sweep.add_argument("--server", default=None, metavar="SOCKET",
                       help="route the sweep through a running farm "
                            "daemon (cerberus-py serve) instead of a "
                            "local pool: identical jobs coalesce "
                            "server-side and --jobs/--store are the "
                            "daemon's choices, not this invocation's")

    for sp in (suite, csmith, sweep):
        _add_farm_flags(sp)
        sp.add_argument("--shard", type=_parse_shard, default=(0, 1),
                        metavar="I/N",
                        help="run only the I-th of N deterministic "
                             "shards of the corpus (default: 0/1 = "
                             "everything)")
        _add_obs_flags(sp)
        sp.add_argument("--report", default=None, metavar="FILE",
                        help="write the JSON campaign report here "
                             "(includes the unified 'metrics' block: "
                             "merged worker metrics + farm task "
                             "timings)")
        sp.add_argument("--task-timeout", type=float, default=None,
                        metavar="S",
                        help="per-task wall-clock timeout in seconds")
    return p


def _finish_campaign(campaign, report_path: Optional[str]) -> None:
    cache = campaign.cache
    rate = cache.get("store_hit_rate")
    print(f"wall {campaign.wall_s:.2f}s  jobs={campaign.jobs}  "
          f"translations={cache['translations']}  "
          f"store hits={cache['store_hits']}"
          + (f" (rate {rate})" if rate is not None else ""))
    explore = campaign.metrics.get("explore", {})
    if explore.get("hits") or explore.get("misses"):
        erate = explore.get("hit_rate")
        print(f"explore records: hits={explore['hits']}  "
              f"resumes={explore.get('resumes', 0)}  "
              f"live paths={explore.get('live_paths', 0)}"
              + (f" (rate {erate})" if erate is not None else ""))
    if report_path:
        campaign.write(report_path)
        print(f"campaign report: {report_path}")


def _farm_identity(args) -> str:
    """Content identity of one farm invocation: the command, every
    semantic flag, and (for sweep) the corpus sources.  Output paths
    (--report, --trace, --profile) and cache directories are excluded
    — see :func:`_main_identity`."""
    exclude = {"trace", "metrics", "profile", "report", "store",
               "server"}
    parts = [f"{k}={v}" for k, v in sorted(vars(args).items())
             if k not in exclude]
    sources = []
    for path in getattr(args, "files", None) or []:
        try:
            with open(path) as f:
                sources.append(f.read())
        except OSError:
            sources.append("")
    return "\x00".join(["farm"] + parts + sources)


def farm_main(argv) -> int:
    args = build_farm_parser().parse_args(argv)
    try:
        models = _parse_models(args.models)
    except argparse.ArgumentTypeError as exc:
        print(f"cerberus-py farm: {exc}", file=sys.stderr)
        return 2
    with _obs_scope(args, _farm_identity(args)) as ctx:
        with obs.maybe_span(ctx, "campaign", command=args.command):
            code = _dispatch_farm(args, models)
    if args.metrics:
        _print_metrics(ctx)
    return code


def _dispatch_farm(args, models) -> int:
    if args.command == "suite":
        from .farm.campaign import suite_campaign
        names = [t.strip() for t in args.tests.split(",")
                 if t.strip()] if args.tests else None
        suite, campaign = suite_campaign(
            models, names, jobs=args.jobs, store=args.store,
            shard=args.shard, max_steps=args.max_steps,
            task_timeout=args.task_timeout)
        print(suite.table())
        s = campaign.summary
        print(f"{s['rows']} rows: {s['passed']} pass, "
              f"{s['failed']} fail, {s['flagged']} flag UB")
        _finish_campaign(campaign, args.report)
        return 1 if suite.failed() else 0

    if args.command == "csmith":
        from .farm.campaign import csmith_campaign
        seeds = None
        if args.seeds:
            try:
                seeds = [int(s) for s in args.seeds.split(",")
                         if s.strip()]
            except ValueError:
                print("cerberus-py farm: --seeds wants a "
                      "comma-separated integer list", file=sys.stderr)
                return 2
        if seeds is None and args.count is None:
            print("cerberus-py farm csmith: need --count or --seeds",
                  file=sys.stderr)
            return 2
        report, campaign = csmith_campaign(
            seeds=seeds, count=args.count, size=args.size,
            models=models, jobs=args.jobs, store=args.store,
            shard=args.shard, max_steps=args.max_steps,
            seed_base=args.seed_base, task_timeout=args.task_timeout)
        print(report.summary())
        _finish_campaign(campaign, args.report)
        return 0 if report.disagree == 0 and report.failed == 0 else 1

    # sweep
    from .farm.campaign import sweep_campaign
    programs = []
    for path in args.files:
        try:
            with open(path) as f:
                programs.append((path, f.read()))
        except OSError as exc:
            print(f"cerberus-py farm: {exc}", file=sys.stderr)
            return 2
    results, campaign = sweep_campaign(
        programs, models=models, jobs=args.jobs,
        mode="explore" if args.exhaustive else "run", spec=_spec(args),
        store=args.store, shard=args.shard, lint=args.lint,
        task_timeout=args.task_timeout, server=args.server)
    for r in results:
        for model, cell in (*r.data.get("verdicts", {}).items(),
                            *r.data.get("explorations", {}).items()):
            print(f"{r.name:32s} {model:12s} {cell.summary()}")
        if r.data.get("lint_filtered"):
            print(f"{r.name:32s} {'lint':12s} "
                  f"exploration skipped (definite static finding)")
        for finding in r.data.get("lint", []):
            print(f"{r.name:32s} {'lint':12s} "
                  f"{finding['loc']}: {finding['severity']}: "
                  f"{finding['detail']}")
        if r.error:
            print(f"{r.name:32s} {'-':12s} error: {r.error}")
    _finish_campaign(campaign, args.report)
    any_ub = campaign.summary.get("ub", 0) > 0
    bad = any(not r.ok for r in results)
    return 1 if any_ub else (2 if bad else 0)


# -- the serve / submit subcommands --------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py serve",
        description="Run the long-lived farm daemon "
                    "(repro.farm.server): a persistent worker pool "
                    "plus one artifact/exploration-record store "
                    "behind a JSON protocol on a unix socket.  "
                    "Identical in-flight submissions coalesce into "
                    "one computation; accepted jobs survive kill -9 "
                    "(the queue persists as store records and the "
                    "next incarnation resumes it); SIGTERM drains "
                    "gracefully.  Submit with 'cerberus-py submit'.")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket path to serve on (an existing "
                        "socket file is replaced)")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="artifact store directory: compiled "
                        "artifacts, exploration records, AND the "
                        "crash-safe job queue live here — restart "
                        "with the same DIR to resume accepted jobs")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker processes (default: 2)")
    p.add_argument("--quota", type=int, default=16, metavar="N",
                   help="max unfinished jobs per client name "
                        "(0 = unlimited; default: 16)")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="S",
                   help="cooperative per-job wall-clock deadline "
                        "(exploration stops at the deadline)")
    p.add_argument("--hard-timeout", type=float, default=None,
                   metavar="S",
                   help="hard per-job limit from when a worker takes "
                        "it: the job is job-timeout, its worker replaced "
                        "(default: 4x --job-timeout + 30 when that is set)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="S",
                   help="seconds to wait for in-flight jobs on "
                        "SIGTERM / shutdown (default: 30)")
    p.add_argument("--max-request-bytes", type=int,
                   default=8 * 1024 * 1024, metavar="N",
                   help="cap on one request line (and on submitted "
                        "source size); larger requests get a "
                        "structured 'oversized' error")
    _add_obs_flags(p)
    return p


def serve_main(argv) -> int:
    import asyncio
    from .farm.server import FarmServer
    args = build_serve_parser().parse_args(argv)
    server = FarmServer(args.socket, args.store,
                        workers=args.workers, quota=args.quota,
                        job_timeout=args.job_timeout,
                        hard_timeout=args.hard_timeout,
                        drain_timeout=args.drain_timeout,
                        max_request_bytes=args.max_request_bytes)
    identity = "\x00".join(["serve", str(args.workers),
                            str(args.quota), str(args.job_timeout)])

    def listening(resumed: int) -> None:
        print(f"cerberus-py serve: listening on {args.socket} "
              f"({server.workers} workers"
              + (f", {resumed} jobs resumed" if resumed else "")
              + ")", file=sys.stderr, flush=True)

    with _obs_scope(args, identity) as ctx:
        asyncio.run(server.serve(listening))
    c = server.counter_table()
    print(f"cerberus-py serve: drained — {c['accepted']} accepted, "
          f"{c['jobs_completed']} completed, "
          f"{c['dedup_coalesced']} coalesced, "
          f"{c['resumed']} resumed", file=sys.stderr)
    if args.metrics:
        _print_metrics(ctx)
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py submit",
        description="Submit one C program to a running farm daemon "
                    "(cerberus-py serve) and print the verdicts.  "
                    "Exit codes: 0 ok, 1 UB found, 2 request/"
                    "protocol error (bad field, malformed input, "
                    "unknown model), 3 job failed or timed out, "
                    "4 quota exceeded, 5 server draining.")
    p.add_argument("file", help="C source file")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="the daemon's unix socket")
    p.add_argument("--models", default="all", metavar="M1,M2,...",
                   help="memory object models (or 'all')")
    p.add_argument("--impl", choices=["LP64", "ILP32"],
                   default="LP64")
    p.add_argument("--exhaustive", action="store_true",
                   help="explore all allowed executions per model "
                        "(mode=explore) instead of one run each")
    _add_spec_flags(p)
    p.add_argument("--lint", action="store_true",
                   help="attach static lint findings to the report")
    p.add_argument("--client", default="cli", metavar="NAME",
                   help="client name for the server's per-client "
                        "quota (default: cli)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and exit without waiting "
                        "(poll later with another submit — identical "
                        "requests are served from the result cache)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="client-side wait bound (default: none; the "
                        "server's own job timeouts still apply)")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON response payload")
    return p


#: submit exit codes per structured server rejection (anything
#: unlisted is a generic request error, exit 2; a job that failed or
#: timed out is exit 3).
_SUBMIT_EXIT_CODES = {
    "quota-exceeded": 4,
    "shutting-down": 5,
}


def submit_main(argv) -> int:
    from .farm.client import FarmClient, ServerError
    args = build_submit_parser().parse_args(argv)
    try:
        models = _parse_models(args.models)
    except argparse.ArgumentTypeError as exc:
        print(f"cerberus-py submit: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"cerberus-py submit: {exc}", file=sys.stderr)
        return 2
    client = FarmClient(args.socket, client=args.client,
                        wait_timeout=args.timeout)
    try:
        response = client.submit(
            source, _spec(args), name=args.file, models=models,
            mode="explore" if args.exhaustive else "run",
            impl=args.impl, lint=args.lint, wait=not args.no_wait)
    except ServerError as exc:
        print(f"cerberus-py submit: {exc.code}: {exc.detail}",
              file=sys.stderr)
        return _SUBMIT_EXIT_CODES.get(exc.code, 2)
    except (OSError, ConnectionError) as exc:
        print(f"cerberus-py submit: cannot reach server at "
              f"{args.socket}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    if args.no_wait:
        if not args.json:
            print(f"job {response['job']} {response['state']}"
                  + (" (coalesced)" if response.get("coalesced")
                     else "")
                  + (" (cached)" if response.get("cached") else ""))
        return 0
    return _render_submit_report(response, models, args.json)


def _render_submit_report(response: dict, models, as_json: bool) -> int:
    """A job's report as the lines ``--models`` prints (models in
    name order, as the daemon runs ``all``); exit 3 when the job
    failed or timed out."""
    from .farm.pool import task_result_from_json
    result = task_result_from_json(response.get("report") or {})
    if result.ok:
        models = result.data.get("verdicts") \
            or result.data.get("explorations") or ()
    lines, code = _model_lines((m, result) for m in sorted(models))
    if not as_json:
        for line in lines:
            print(line)
    return code if result.ok else 3


# -- the stats subcommand ------------------------------------------------------

def build_stats_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cerberus-py stats",
        description="Summarise a --trace JSON-lines file.  The "
                    "'phases' table aggregates spans per name (count, "
                    "total/mean/max wall seconds, CPU seconds) — the "
                    "biggest total is where the wall-clock goes; "
                    "'store' shows per-record-kind hit rates and "
                    "corruption counts; 'explorer' shows path "
                    "accounting plus sustained paths/sec and "
                    "steps/sec; 'timeline' entries are cumulative "
                    "paths over time.  Record types in the file: "
                    "meta (schema + content-derived run id), span "
                    "(name, t0 offset, wall_s, cpu_s, depth, attrs), "
                    "timeline (name + [t, value] points), metrics "
                    "(final counters/gauges/histograms, including "
                    "merged farm-worker metrics).  See repro.obs for "
                    "the full schema.")
    p.add_argument("trace", help="trace file written by --trace")
    p.add_argument("--json", action="store_true",
                   help="emit the full summary (including raw merged "
                        "metrics and timelines) as JSON")
    return p


def stats_main(argv) -> int:
    from .obs.stats import render_text, summarize_trace
    args = build_stats_parser().parse_args(argv)
    try:
        summary = summarize_trace(args.trace)
    except OSError as exc:
        print(f"cerberus-py stats: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_text(summary))
    except BrokenPipeError:
        # `stats t.jsonl | head` closing the pipe early is normal use
        sys.stderr.close()      # suppress the interpreter's warning
    return 0


#: The ``cli.import`` span, ``(start, wall, cpu)``: from when the
#: ``repro`` package started executing to the end of this module's
#: import, i.e. to :func:`main`.
_IMPORT_SPAN = (_started[0], time.perf_counter() - _started[0],
                time.process_time() - _started[1])


if __name__ == "__main__":
    sys.exit(main())
