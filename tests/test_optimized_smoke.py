"""Tier-1 smoke check under ``python -O``.

``-O`` strips ``assert`` statements, so any diagnostic or control flow
that leans on them silently vanishes. The subprocess driver below uses
explicit checks only (no ``assert``) and exercises the layers that
historically used bare asserts: the printf argument-type diagnostics,
the batch pipeline, the incremental re-exploration seam (cold/warm
record round-trip, budget interruption, frontier resume), and one
full de facto test-suite sweep, whose verdicts must be identical to
an in-process run without ``-O``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

_DRIVER = r'''
import sys

if sys.flags.optimize < 1:
    sys.exit("driver must run under python -O")

from repro.pipeline import run_c, run_many
from repro.testsuite import run_suite_many

OK_SRC = """#include <stdio.h>
int main(void){ printf("%u %hu\\n", -1, -1); return 0; }"""
out = run_c(OK_SRC)
if out.status != "done" or out.stdout != "4294967295 65535\n":
    sys.exit(f"width masking broken under -O: {out.summary()}")

BAD_SRC = """#include <stdio.h>
int main(void){ printf("%s\\n", 5); return 0; }"""
bad = run_c(BAD_SRC)
if bad.status != "ub" or bad.ub is None or \
        bad.ub.name != "Printf_argument_type_mismatch":
    sys.exit("mismatched conversion must stay UB under -O, got "
             f"{bad.summary()}")

many = run_many(OK_SRC, models=["concrete", "strict"])
if any(o.stdout != "4294967295 65535\n" for o in many.values()):
    sys.exit("run_many diverged under -O")

# The widened fragment's UB paths must not lean on bare asserts: the
# VLA size checks live in explicit Core undef tests plus explicit
# driver checks, and bit-field semantics must be identical under -O.
VLA_NEG = "int main(void){ int n = -1; int a[n]; return 0; }"
neg = run_c(VLA_NEG)
if neg.status != "ub" or neg.ub is None or \
        neg.ub.name != "VLA_size_not_positive":
    sys.exit(f"negative VLA size must stay UB under -O, got "
             f"{neg.summary()}")

VLA_BIG = "int main(void){ long n = 1L << 40; int a[n]; return 0; }"
big = run_c(VLA_BIG)
if big.status != "ub" or big.ub is None or \
        big.ub.name != "VLA_size_too_large":
    sys.exit(f"overflowing VLA size must stay UB under -O, got "
             f"{big.summary()}")

BF_SRC = """#include <stdio.h>
struct s { unsigned a : 4; unsigned b : 4; };
int main(void){ struct s s; s.a = 15; s.b = 3;
    printf("%x\\n", ((unsigned char *)&s)[0]); return 0; }"""
bf = run_many(BF_SRC, models=["concrete", "strict"])
if any(o.stdout != "3f\n" for o in bf.values()):
    sys.exit("bit-field packing diverged under -O")

# Incremental re-exploration must not lean on asserts either: cold
# explore -> warm record hit (zero paths re-run) -> budget-interrupted
# partial -> resumed completion, all checked explicitly.
import shutil, tempfile
from repro import obs
from repro.farm.store import ArtifactStore
from repro.pipeline import compile_c

UNSEQ = "int a, b; int main(void){ (a=1)+(b=2); return a+b-3; }"
root = tempfile.mkdtemp(prefix="smoke-explore-")
try:
    program = compile_c(UNSEQ)
    plain = program.explore("concrete", max_paths=100_000)
    es = ArtifactStore(root)
    with obs.collecting() as counted:
        cold = program.explore("concrete", max_paths=100_000, store=es)
        if cold.paths_run != plain.paths_run or \
                cold.behaviour_keys() != plain.behaviour_keys():
            sys.exit("store-backed exploration diverged under -O")
        warm = program.explore("concrete", max_paths=100_000, store=es)
    if counted.counters.get("explore.live_paths") != plain.paths_run:
        sys.exit("warm exploration re-ran paths under -O")
    if warm.behaviour_keys() != plain.behaviour_keys():
        sys.exit("warm exploration record diverged under -O")
    es2 = ArtifactStore(root + "-resume")
    with obs.collecting() as counted:
        part = program.explore("concrete", max_paths=40, store=es2)
        if part.paths_run != 40 or part.exhausted:
            sys.exit("budget interruption broke under -O")
        full = program.explore("concrete", max_paths=100_000,
                               store=es2)
    if full.paths_run != plain.paths_run or not full.exhausted or \
            full.behaviour_keys() != plain.behaviour_keys():
        sys.exit("resumed exploration diverged under -O: "
                 f"{full.paths_run} vs {plain.paths_run}")
    if counted.counters.get("explore.resumes") != 1 or \
            counted.counters.get("explore.live_paths") \
            != plain.paths_run:
        sys.exit("resume accounting broke under -O")
finally:
    shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(root + "-resume", ignore_errors=True)

# The static analysis must not lean on asserts: the definite-UB
# linter and the static POR pre-prune (annotations + collapsed
# choice points) are checked explicitly against the dynamic side.
from repro.pipeline import lint_c

RACE = "int main(void){ int x; int y = (x=1)+(x=2); return 0; }"
race_findings = lint_c(RACE)
if not any(f.definite and "Unsequenced_race" in f.names
           for f in race_findings):
    sys.exit("definite-UB linter lost the race finding under -O")
if lint_c(UNSEQ):
    sys.exit("linter flagged the commuting unseq program under -O")
sp = compile_c(UNSEQ).explore("concrete", max_paths=100_000,
                              static_prune=True)
if sp.paths_run != 1 or not sp.exhausted or \
        sp.behaviour_keys() != plain.behaviour_keys():
    sys.exit("static pre-pruning diverged under -O: "
             f"{sp.paths_run} paths")

report = run_suite_many(["concrete", "provenance"])
for r in report.results:
    print(f"{r.name}\t{r.model}\t{r.verdict!r}")
if report.failed():
    sys.exit(f"{len(report.failed())} suite expectations failed "
             "under -O")
'''


def test_suite_verdicts_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DRIVER],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, \
        f"-O smoke failed:\n{proc.stdout}\n{proc.stderr}"

    from repro.testsuite import run_suite_many
    expected = {
        (r.name, r.model): repr(r.verdict)
        for r in run_suite_many(["concrete", "provenance"]).results
    }
    seen = {}
    for line in proc.stdout.splitlines():
        name, model, verdict = line.split("\t", 2)
        seen[(name, model)] = verdict
    assert seen == expected
