"""The repository benchmark: seeded, closed-loop, single-client workloads
over the whole Cerberus-py stack, measured end to end, with a separate
traced run for the per-layer decomposition.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 28 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cli_cold`` -- ``python -m repro.cli FILE --models all`` per job;
* ``explore_deep`` -- in-process explorations of a deep-loop family;
* ``serve_mixed`` -- a ``repro.cli serve`` daemon on a long-lived store.

With ``--trace 0`` the run is ``round(seconds / ROUND_S)`` rounds, each
a fresh set-up followed by the workload's fixed number of jobs run back
to back (the job list goes on from round to round), and reports
``setup_s`` (the median set-up), ``jobs_per_s``, ``job_p50_ms``,
``job_tail_ms`` and ``peak_rss_mb``.  With ``--trace 1`` it sets up
once and runs the same job list twice, untraced for half of
``--seconds`` at reference speed and then traced (see :mod:`layers`;
``serve_mixed`` starts a traced daemon on a fresh store for it), and
reports the per-layer metrics, the tracing overhead and
``job.unaccounted_ms``; the two passes must give identical verdicts.

Every time reported is scaled to a reference host speed (see
:mod:`hostspeed`): a fixed kernel is timed before each job and around
each set-up, on the one CPU the run and its children are held to, and
each job's latency is multiplied by the reference kernel time over the
measured one.  ``jobs_per_s`` is verified jobs over the jobs' summed
scaled latency.

Every file a run creates lives in a fresh ``.perfbench-run-*``
directory in the checkout, removed on exit: a copy of ``src/repro``
with its own bytecode cache, C sources, stores and sockets.  The last
stdout line is the JSON result; the line before it is the run record
(commit, host, cores and the CPU the run was held to, Python, seed, job
count and jobs per round, tail percentile, each set-up's time, latency
deciles, the unscaled median and the quartiles of the jobs' scale
factors).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds of jobs in one round of an untraced run at reference speed:
#: each workload's ``round_jobs`` take about this long, and a run of
#: ``--seconds`` is ``round(seconds / ROUND_S)`` rounds.
ROUND_S = 4.0
#: An untraced run stops early, with fewer jobs, once its jobs have
#: taken this multiple of ``--seconds`` of wall time.
WALL_CAP = 2.0
#: A workload's tail percentile must leave this many jobs beyond it.
TAIL_JOBS = 10

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_tail_ms": "ms", "peak_rss_mb": "MB"}


class RunDir:
    """The run's private directory inside the checkout: a copy of the
    code under test with a bytecode cache this run builds itself."""

    def __init__(self, root: str):
        self.root = root
        self.path = tempfile.mkdtemp(prefix=".perfbench-run-", dir=root)
        try:
            self.src = os.path.join(self.path, "src")
            bench = os.path.join(self.path, "bench")
            shutil.copytree(os.path.join(root, "src", "repro"),
                            os.path.join(self.src, "repro"),
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          "*.pyc"))
            os.mkdir(bench)
            for name in ("launch.py", "layers.py"):
                shutil.copy(os.path.join(HERE, name), bench)
            for tree in (self.src, bench):
                if not compileall.compile_dir(tree, quiet=1):
                    raise RuntimeError(f"cannot byte-compile {tree}")
        except BaseException:
            self.remove()
            raise
        self.launcher = os.path.join(bench, "launch.py")
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONPYCACHEPREFIX"}
        self.env.update(PYTHONPATH=self.src, PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1")

    def fresh_dir(self, kind: str) -> str:
        return tempfile.mkdtemp(prefix=kind + "-", dir=self.path)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------


def tail_of(latencies, percent: int):
    """The ``percent``-th latency (nearest rank) and the number of jobs
    beyond it.  The percentile is fixed per workload, so runs with
    different job counts report the same one."""
    values = sorted(latencies)
    rank = max(1, -(-percent * len(values) // 100))
    return values[rank - 1], len(values) - rank


def timed_phase(workload, jobs, seconds: float, count=None,
                wall=math.inf):
    """Run jobs from ``jobs`` back to back, the closed loop of one
    client, until they have taken ``seconds`` at reference speed, or
    ``count`` jobs have run, or ``wall`` seconds have passed.  A
    host-speed sample is taken before each job and after the last.
    Returns the results, their scale factors to reference speed, and
    the time the jobs took at reference speed and in wall time."""
    results, samples = [], []
    scaled = 0.0
    start = time.monotonic()
    while scaled < seconds and len(results) != count \
            and time.monotonic() - start < wall:
        samples.append(hostspeed.sample())
        result = workload.run_job(next(jobs))
        scaled += result.latency_s * hostspeed.factor(samples)
        if not result.ok and sum(not r.ok for r in results) < 3:
            print(f"perfbench: job {len(results)} failed its check",
                  file=sys.stderr)
        results.append(result)
    samples.append(hostspeed.sample())
    return (results, hostspeed.factors(samples), scaled,
            time.monotonic() - start)


def e2e(workload, results, factors):
    """The end-to-end job metrics, every latency scaled to reference
    speed by its job's factor."""
    latencies = [r.latency_s * f for r, f in zip(results, factors)]
    tail, beyond = tail_of(latencies, workload.tail_pct)
    metrics = {
        "jobs_per_s": sum(r.ok for r in results) / sum(latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    facts = {"jobs": len(results), "tail_percentile": workload.tail_pct,
             "tail_jobs_beyond": beyond,
             "latency_ms_deciles": [
                 round(1000.0 * q, 1)
                 for q in statistics.quantiles(latencies, n=10)],
             "unscaled_job_p50_ms": round(1000.0 * statistics.median(
                 r.latency_s for r in results), 2),
             "speed_factor_quartiles": [
                 round(q, 3) for q in statistics.quantiles(factors, n=4)]}
    return metrics, facts


# -- the run record -----------------------------------------------------------


def commit_of(root: str):
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over ``src/``: names the code under test even where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_record(root, args, facts):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit_of(root), "source_sha256": source_digest(root),
            "host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), **facts}


# -- the two kinds of run -----------------------------------------------------


def untraced_run(workload, seconds):
    """``round(seconds / ROUND_S)`` rounds, each one fresh set-up and
    then ``workload.round_jobs`` timed jobs, the job list going on from
    round to round.  The job count depends on ``seconds`` alone, so
    every run measures the same jobs, however fast the host is just
    then, and every job holds the same place in its round: each
    ``serve_mixed`` round has a new daemon, whose worker's full
    collections grow with every job it serves."""
    setup_times, results, factors, round_jobs = [], [], [], []
    jobs = workload.jobs()
    wall = 0.0
    for _ in range(max(1, round(seconds / ROUND_S))):
        if wall >= WALL_CAP * seconds:
            break
        # What the last set-up made is released and collected first,
        # untimed, so that every set-up starts as in a fresh process.
        workload.close()
        gc.collect()
        setup_times.append(hostspeed.scaled_time(workload.setup))
        done, scale, _, took_wall = timed_phase(
            workload, jobs, math.inf, count=workload.round_jobs,
            wall=WALL_CAP * seconds - wall)
        workload.finish()
        results += done
        factors += scale
        wall += took_wall
        round_jobs.append(len(done))
    metrics, facts = e2e(workload, results, factors)
    if facts["tail_jobs_beyond"] < TAIL_JOBS:
        # Fail rather than read a lower percentile than other runs.
        raise SystemExit(
            f"perfbench: {workload.name}: {len(results)} jobs leave "
            f"{facts['tail_jobs_beyond']} beyond p{workload.tail_pct}, "
            f"fewer than {TAIL_JOBS}; the run is too short")
    metrics["setup_s"] = statistics.median(setup_times)
    facts.update(setup_s_each=[round(s, 4) for s in setup_times],
                 round_jobs=round_jobs, timed_wall_s=round(wall, 2))
    return results, metrics, facts, True


def traced_run(workload, seconds):
    """The same job list untraced for half the time, then traced: the
    per-layer metrics, the tracing overhead, and a verdict comparison."""
    import layers
    workload.setup()
    plain, plain_scale, _, _ = timed_phase(
        workload, workload.jobs(), seconds / 2, wall=WALL_CAP * seconds / 2)
    workload.finish()
    workload.trace()
    results, scale, _, _ = timed_phase(workload, workload.jobs(),
                                       math.inf, count=len(plain))
    workload.finish()
    base, _ = e2e(workload, plain, plain_scale)
    top, facts = e2e(workload, results, scale)
    metrics = layers.layer_metrics(workload, results)
    # Layer times are scaled to reference speed like the jobs, by the
    # traced phase's median factor.
    speed = statistics.median(scale)
    for name, unit in layers.UNITS.items():
        if unit == "ms" and name in metrics:
            metrics[name] *= speed
    for name in ("job_p50_ms", "job_tail_ms", "jobs_per_s"):
        metrics[f"trace.overhead.{name}"] = top[name] - base[name]
    same = [r.digest for r in plain] == [r.digest for r in results]
    facts.update(verdicts_equal=same, untraced_jobs=len(plain))
    return plain + results, metrics, facts, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_cold", "explore_deep",
                                 "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    env = os.environ
    if env.get("PYTHONHASHSEED") != "0" or "PYTHONPYCACHEPREFIX" in env \
            or env.get("PYTHONDONTWRITEBYTECODE") != "1":
        # One hash seed, no shared bytecode cache, no bytecode written
        # into the checkout: re-execute this process with them fixed.
        env = {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"}
        env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a checkout (no "
              "src/repro here)", file=sys.stderr)
        return 2

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    cpu = hostspeed.pin_one_cpu()
    run = RunDir(root)
    try:
        sys.path.insert(0, run.src)
        import layers
        import workloads
        workload = {"cli_cold": workloads.CliCold,
                    "explore_deep": workloads.ExploreDeep,
                    "serve_mixed": workloads.ServeMixed,
                    }[args.workload](run, args.seed)
        try:
            results, metrics, facts, same = (
                traced_run if args.trace else untraced_run)(
                    workload, args.seconds)
        finally:
            workload.close()
        units = layers.UNITS if args.trace else END_TO_END
    finally:
        run.remove()
    failed = sum(not r.ok for r in results)
    facts.update(cpu=cpu, speed_ref_ms=hostspeed.REF_MS)
    print(json.dumps({"run_record": run_record(root, args, facts)}))
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
