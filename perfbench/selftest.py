"""The benchmark's own accounting check.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it makes one short seeded traced run and checks that
every per-layer metric is reported, that the layers the workload
exercises saw work, that ``job.unaccounted_ms`` is reported, and that
the traced pass gave the same verdicts as the untraced one.  It then
checks that a directory holding only ``BENCHMARK.json`` and the
benchmark fails without printing a result.  Exit code 0 when all hold.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import layers  # noqa: E402

FRONT_END = ["cpp.preprocess_ms", "cparser.parse_ms", "ail.desugar_ms",
             "typing.typecheck_ms", "elab.elaborate_ms", "core.check_ms",
             "pipeline.translations"]
RUNS = ["compile.lower_ms", "compile.lowerings", "driver.run_ms",
        "driver.steps"]
MEMORY = ["memory.model_new_ms", "memory.actions", "memory.action_ms"]
EXPLORE = ["explore.paths", "explore.path_ms", "explore.self_ms",
           "explore.branch_ms", "explore.children",
           "explore.frontier_peak", "explore.replay_ratio"]
DAEMON = ["store.stats_ms", "store.stats_calls", "store.get_ms",
          "store.put_ms", "store.entries", "pool.task_ms",
          "server.overhead_ms", "server.persist_ms"]

#: The layers each workload must show work in (the table in layers.py).
WORKING = {
    "cli_cold": ["cli.import_ms"] + FRONT_END + RUNS + MEMORY,
    "explore_deep": ["cli.import_ms"] + MEMORY + EXPLORE,
    "serve_mixed": ["cli.import_ms"] + FRONT_END + RUNS + MEMORY
    + EXPLORE + DAEMON,
}

SECONDS = {"cli_cold": 6, "explore_deep": 6, "serve_mixed": 16}


def run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_workload(name: str, root: str) -> list:
    code, lines, err = run(["--workload", name, "--seed", "7",
                            "--seconds", str(SECONDS[name]),
                            "--trace", "1"], root)
    if code != 0 or len(lines) < 2:
        return [f"exit {code}: {err.strip()[-400:]}"]
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} failed jobs")
    if not record.get("verdicts_equal"):
        problems.append("traced verdicts differ from untraced ones")
    missing = sorted(set(layers.UNITS) - set(metrics))
    if missing:
        problems.append(f"missing metrics: {missing}")
    for metric in WORKING[name]:
        value = metrics.get(metric, {}).get("value", 0)
        if not value > 0:
            problems.append(f"{metric} saw no work ({value})")
    gap = metrics.get("job.unaccounted_ms", {}).get("value")
    if not isinstance(gap, (int, float)) or not math.isfinite(gap):
        problems.append(f"job.unaccounted_ms not reported ({gap})")
    return problems


def check_bare_directory(root: str) -> list:
    """Only BENCHMARK.json and the benchmark: no code to measure."""
    bare = tempfile.mkdtemp(prefix=".perfbench-run-bare-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(["--workload", "cli_cold", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"exit {code} with output {lines[-1:]}"]
    return []


def main() -> int:
    root = os.getcwd()
    failures = 0
    checks = [(name, lambda n=name: check_workload(n, root))
              for name in WORKING]
    checks.append(("bare directory", lambda: check_bare_directory(root)))
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
