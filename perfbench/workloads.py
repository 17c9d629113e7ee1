"""The three workloads: closed loop, one client, one job at a time.

Each workload is built from the run directory and the seed, which
generates its inputs (programs, the serve store), and offers
``setup()`` (the whole preparation, ending in one warm-up job; a run
repeats it, so each call does the same work), ``jobs()`` (the seeded
job list), ``run_job(job)`` (run it, check it, return a
:class:`JobResult`), ``trace()`` (collect per-layer spans from the
next job on), ``finish()``, ``peak_rss_mb()`` and ``close()``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

import corpus
import layers

now = time.monotonic


@dataclass
class JobResult:
    latency_s: float
    ok: bool
    digest: str                      # the verdicts, for traced == untraced
    summary: Optional[dict] = None   # per-layer spans of a traced job
    extra: dict = field(default_factory=dict)


def load_spans(path: str) -> list:
    """A child's dumped spans (consumed: the next child writes anew);
    none if it died before dumping them."""
    try:
        with open(path) as f:
            spans = json.load(f)
    except FileNotFoundError:
        return []
    os.unlink(path)
    return spans


def tree_peak_rss_mb(pid: int) -> float:
    """The largest peak RSS (``VmHWM``) of a process and of every
    process below it, in MB."""
    peak, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            with open(f"/proc/{p}/task/{p}/children") as f:
                todo += [int(c) for c in f.read().split()]
        except OSError:
            pass                 # it ended meanwhile
    return peak / 1024.0


def spawn(argv, env, cwd, err_path):
    """Run a child to completion: its stdout and peak RSS (``wait4``'s
    rusage, which also covers children it reaped).  The exit status is
    not a verdict, so it is not returned."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0


class Workload:
    """What the three workloads share: no tracing until ``trace()``,
    and nothing to drain or release unless they override it."""

    traced = False

    def finish(self) -> None:
        """End the timed jobs (the daemon drains here)."""

    def close(self) -> None:
        """Release everything, on every exit path."""


# -- cli_cold -----------------------------------------------------------------


class CliCold(Workload):
    """``python -m repro.cli FILE --models all``, one fresh process per
    job: interpreter start-up, ``import repro.cli``, both translations
    (LP64 and CHERI128), lowering and five single runs every time."""

    name = "cli_cold"
    # Each workload's timed jobs after each set-up take about
    # ``run.ROUND_S`` at reference speed; its tail percentile is fixed,
    # low enough to leave ten jobs beyond it in a run of five rounds.
    round_jobs = 9
    tail_pct = 75
    # Small enough that every run covers the whole pool at least once.
    csmith_programs = 12
    csmith_sizes = (12, 96)

    def __init__(self, run, seed: int):
        self.run = run
        self.seed = seed
        self.max_rss = 0.0
        self.dir = None
        csmith = corpus.csmith_pool(self.name, self.csmith_programs,
                                    *self.csmith_sizes)
        suite = corpus.suite_programs(corpus.load_goldens(run.root))
        random.Random(f"cli_cold:{seed}").shuffle(suite)
        order = corpus.bit_reversal_order(len(csmith))
        # Two suite jobs, then one Csmith job: the near-constant suite
        # jobs (start-up and import dominate them) hold the median, and
        # the tail sits inside the continuous Csmith size range, where
        # the front end and lowering dominate.
        self.programs: List[corpus.Program] = []
        for i in range(3 * len(suite)):
            if i % 3 == 2:
                self.programs.append(csmith[order[(i // 3) % len(order)]])
            else:
                self.programs.append(suite[(i - i // 3) % len(suite)])
        self.warm = corpus.warm_up()
        self.corpus = csmith + suite + [self.warm]

    def setup(self) -> None:
        """Write the corpus to a fresh directory and run the warm-up."""
        self.dir = self.run.fresh_dir("cli")
        for program in self.corpus:
            with open(os.path.join(self.dir, program.name + ".c"),
                      "w") as f:
                f.write(program.source)
        self.run_job(self.warm)

    def jobs(self):
        i = 0
        while True:
            yield self.programs[i % len(self.programs)]
            i += 1

    def trace(self) -> None:
        """Start the next children through the traced launcher."""
        self.traced = True

    def run_job(self, program: corpus.Program) -> JobResult:
        file_name = program.name + ".c"
        spans_path = os.path.join(self.dir, "spans.json")
        if self.traced:
            argv = [sys.executable, self.run.launcher]
            env = dict(self.run.env, PERFBENCH_SPANS=spans_path)
        else:
            argv = [sys.executable, "-m", "repro.cli"]
            env = self.run.env
        t0 = now()
        out, rss = spawn(argv + [file_name, "--models", "all"],
                         env, self.dir,
                         os.path.join(self.dir, "stderr.txt"))
        ok, digest = corpus.check_cli_output(program, out, file_name)
        latency = now() - t0
        self.max_rss = max(self.max_rss, rss)
        summary = None
        if self.traced:
            summary = layers.summarize(load_spans(spans_path))
        return JobResult(latency, ok, digest, summary)

    def peak_rss_mb(self) -> float:
        return self.max_rss


# -- explore_deep -------------------------------------------------------------


class ExploreDeep(Workload):
    """In-process exploration of the deep-loop family to a fixed path
    budget, ``dfs`` without any pruning, compiled back end, one of the
    five models per job.  Every path replays from ``main`` and every
    frontier node copies its prefix, so the explorer, the driver's
    generator path and the memory models do almost all the work; the
    front end runs only in set-up."""

    name = "explore_deep"
    tail_pct = 80
    round_jobs = 12

    def __init__(self, run, seed: int):
        self.run = run
        self.seed = seed
        self.tracer = None
        self.compiled = {}
        self.programs = corpus.deep_corpus(seed)
        # The import happens once per process, so it is kept out of
        # set-up, which a run repeats (it is ``cli.import_ms`` instead).
        t0 = now()
        import repro.cli  # noqa: F401  (the package, as users load it)
        self.import_s = now() - t0

    def setup(self) -> None:
        from repro.pipeline import clear_compile_cache, compile_for_model
        clear_compile_cache()
        self.compiled = {}
        for program in self.programs:
            for model in corpus.MODELS:
                compiled = compile_for_model(program.source, model)
                compiled.lowered()
                self.compiled[program.name, model] = compiled
        self.run_job((corpus.deep_program(random.Random(0), 4, "warm"),
                       "concrete"))

    def trace(self) -> None:
        """Switch on the layer wrappers for the jobs that follow."""
        self.tracer = layers.Tracer()
        layers.install(self.tracer)

    def jobs(self):
        return corpus.deep_jobs(self.programs)

    def run_job(self, job) -> JobResult:
        program, model = job
        tracer = self.tracer
        t0 = now()
        if tracer is not None:
            tracer.reset()
            index = tracer.begin("job")
        compiled = self.compiled.get((program.name, model))
        if compiled is None:
            from repro.pipeline import compile_for_model
            compiled = compile_for_model(program.source, model)
        try:
            result = compiled.explore(
                model, max_paths=corpus.DEEP_PATHS, strategy="dfs",
                por=False, seed=None, static_prune=False,
                backend="compiled")
        except Exception as exc:   # a failed job, never a dropped one
            ok, digest = False, repr(exc)
        else:
            ok = corpus.check_deep(program, result)
            digest = f"{result.paths_run} {result.behaviours()}"
            del result
        latency = now() - t0
        summary = None
        if tracer is not None:
            tracer.end(index)
            summary = layers.summarize(tracer.spans,
                                       keep=range(1, len(tracer.spans)))
            tracer.reset()
        return JobResult(latency, ok, digest, summary)

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.compiled = {}


# -- serve_mixed --------------------------------------------------------------


class ServeMixed(Workload):
    """A ``repro.cli serve`` daemon with one pool worker on a store
    pre-filled to a few thousand records, driven by one client
    submitting ``wait=true`` jobs back to back: fresh Csmith run jobs
    on all models, golden-suite explorations at the golden budgets,
    and a fixed tenth of exact repeats served from the result cache.
    Each set-up starts a new daemon on the same store, so later rounds
    find the earlier rounds' results there."""

    name = "serve_mixed"
    tail_pct = 75
    prefill = 2000
    csmith_sizes = (12, 40)
    # Fresh programs made before the run; more are made if a run gets
    # that far.
    csmith_programs = 128
    # The kinds of ten consecutive jobs: run, explore, repeat.
    pattern = "RERRERERRX"
    # Each daemon serves one pattern's worth of timed jobs.
    round_jobs = len(pattern)
    # Peak RSS is read once, after the run's first this many timed jobs
    # (the first daemon's), so it neither grows with the number of jobs
    # a run gets through nor depends on which jobs later daemons meet.
    rss_job = 4

    def __init__(self, run, seed: int):
        self.run = run
        self.seed = seed
        self.goldens = corpus.load_goldens(run.root)
        self.proc = None
        self.client = None
        self.rss_mb: Optional[float] = None
        self.daemon_jobs = 0
        self.spans = []
        self.entries = 0
        self.setups = 0
        self.stream = corpus.fresh_stream(self.name, *self.csmith_sizes)
        self.fresh = [next(self.stream)
                      for _ in range(self.csmith_programs)]
        self._fill_store()

    def _fill_store(self) -> None:
        """A fresh long-lived store for the daemons to start on.
        Filling it is input generation, like writing a corpus: it is not
        part of set-up, so set-up time is the daemon's start-up on a
        full store and not file-creation speed, which varies tenfold on
        a shared VM."""
        self.base = self.run.fresh_dir("serve")
        self.store_dir = os.path.join(self.base, "store")
        from repro.farm.store import ArtifactStore
        store = ArtifactStore(self.store_dir)
        rng = random.Random(f"prefill:{self.seed}")
        for i in range(self.prefill):
            store.put_record(
                store.record_key("jobresult", "%032x" % rng.getrandbits(128)),
                {"ok": True, "index": 0, "name": f"p{i}.c",
                 "kind": "run", "error": "", "timed_out": False,
                 "wall_s": rng.random(), "verdicts": {
                     m: {"status": "done", "exit_code": 0,
                         "stdout": "checksum = %d\n" % rng.getrandbits(32)}
                     for m in corpus.MODELS}},
                kind="jobresult")

    def jobs(self):
        """The job list, a pure function of the seed."""
        rng = random.Random(f"serve_mixed:{self.seed}")
        # The suite's explore jobs differ in cost by two orders of
        # magnitude, so every seed visits them, and the fresh programs,
        # in the same spread-out order; the seed picks the repeats.  A
        # run past 53 suite jobs (about 175 jobs) would meet its first
        # suite programs again as cached results.
        suite = corpus.suite_programs(self.goldens)
        suite = [suite[k] for k in corpus.bit_reversal_order(len(suite))]
        done: List[corpus.Program] = []
        runs = explores = 0
        i = 0
        while True:
            kind = self.pattern[i % len(self.pattern)]
            if kind == "R":
                while runs >= len(self.fresh):
                    self.fresh.append(next(self.stream))
                job = self.fresh[runs]
                runs += 1
            elif kind == "E":
                job = suite[explores % len(suite)]
                explores += 1
            else:
                job = done[len(done) - 1 - rng.randrange(min(len(done),
                                                             8))]
            done.append(job)
            yield job
            i += 1

    # -- daemon lifecycle -----------------------------------------------------

    def trace(self) -> None:
        """Replace the daemon with a traced one on a fresh store, so the
        same jobs are computed again rather than served from cache."""
        self.close()
        self.traced = True
        self._fill_store()
        self.setup()

    def setup(self) -> None:
        """Start a daemon on the store, wait until it answers, and run
        a warm-up job (a new program each set-up, so none of them is a
        result-cache hit)."""
        self.close()
        from repro.farm.client import FarmClient
        argv = [sys.executable]
        env = self.run.env
        if self.traced:
            self.spans_path = os.path.join(self.base, "spans.json")
            argv.append(self.run.launcher)
            env = dict(env, PERFBENCH_SPANS=self.spans_path)
        else:
            argv += ["-m", "repro.cli"]
        argv += ["serve", "--socket", "d.sock", "--store", "store",
                 "--workers", "1"]
        self.err = open(os.path.join(self.base, "daemon.err"), "wb")
        self.proc = subprocess.Popen(argv, env=env, cwd=self.base,
                                     stdout=self.err, stderr=self.err,
                                     stdin=subprocess.DEVNULL,
                                     start_new_session=True)
        self.client = FarmClient(
            os.path.relpath(os.path.join(self.base, "d.sock")),
            timeout=30.0, wait_timeout=120.0)
        deadline = now() + 60.0
        while True:
            try:
                self.client.health()
                break
            except (OSError, ValueError):
                if self.proc.poll() is not None or now() > deadline:
                    raise RuntimeError("the daemon did not come up")
                time.sleep(0.001)
        self.setups += 1
        if not self.run_job(corpus.warm_up(self.setups)).ok:
            raise RuntimeError("the daemon's warm-up job failed")
        self.daemon_jobs = 0

    def run_job(self, program: corpus.Program) -> JobResult:
        explore = program.kind == "suite"
        t0 = now()
        try:
            response = self.client.submit(
                program.source, name="<string>", models="all",
                mode="explore" if explore else "run",
                max_paths=corpus.GOLDEN_MAX_PATHS if explore else 500,
                max_steps=corpus.GOLDEN_MAX_STEPS if explore
                else 2_000_000, client="perfbench")
            report = response.get("report") or {}
        except Exception as exc:   # a failed job, never a dropped one
            response, report = {}, {"error": repr(exc)}
        t1 = now()
        if explore:
            ok = report.get("ok") is True and corpus.check_explorations(
                program, report.get("explorations", {}))
            digest = repr(sorted((report.get("explorations") or {})
                                 .items()))
        else:
            ok = report.get("ok") is True and corpus.check_run_verdicts(
                program, report.get("verdicts", {}))
            digest = repr(sorted((report.get("verdicts") or {}).items()))
        latency = now() - t0
        cached = bool(response.get("cached"))
        extra = {"cached": cached, "window": (t0, t1), "task_s": None}
        summary = None
        if self.traced and not cached:
            summary = (report.get("metrics") or {}).get("perfbench")
            if summary is not None:
                extra["task_s"] = summary["dur"]["pool.task"][1]
        self.daemon_jobs += 1
        if self.daemon_jobs == self.rss_job and self.rss_mb is None:
            self.rss_mb = tree_peak_rss_mb(self.proc.pid)
        return JobResult(latency, ok, digest, summary, extra)

    def finish(self) -> None:
        """Drain the daemon and, when traced, collect its spans."""
        if self.proc is None:
            return
        if self.rss_mb is None:
            raise RuntimeError(
                f"serve_mixed: the first daemon served {self.daemon_jobs} "
                f"timed jobs, fewer than the {self.rss_job} its peak RSS "
                "is read after; the run is too short")
        self.entries = sum(len(files) for _, _, files in
                           os.walk(os.path.join(self.store_dir,
                                                "objects")))
        try:
            self.client.shutdown()
        except (OSError, ValueError):
            pass
        deadline = now() + 30.0
        while now() < deadline and self.proc.poll() is None:
            time.sleep(0.005)
        self.close()
        if self.traced:
            self.spans = load_spans(self.spans_path)

    def peak_rss_mb(self) -> float:
        """The daemon's and its worker's peak, the larger, read after the
        run's first ``rss_job`` timed jobs."""
        return self.rss_mb

    def close(self) -> None:
        """Kill the daemon's process group, whatever state it is in."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.wait()
        self.err.close()
