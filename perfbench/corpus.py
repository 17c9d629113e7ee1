"""Seeded inputs and reference checks for the three workloads.

Every job list is a pure function of the seed, and each job carries
the reference its result is checked against:

* Csmith-style programs come from ``repro.csmith.generator`` together
  with the generator's Python-mirror expected stdout;
* suite programs are checked against ``tests/goldens/verdicts.json``;
* the deep-exploration family has a closed-form behaviour set and an
  exact ``paths_run``.

Job sizes are stratified and visited in a fixed low-discrepancy order,
so every prefix of a job list (a run measures one whose length depends
on ``--seconds`` alone) holds the same mix of small and large jobs
whatever the seed; the seed orders the cli suite jobs, picks the serve
repeats and draws the deep family's constants.  The corpora leave out the known crash classes (``void main``,
``main(argc, argv)``, deep recursion, member access on struct
rvalues): the generator and the family emit none of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The memory object models, in ``repro.pipeline.MODELS`` order (the
#: order ``--models all`` prints its per-model lines in).
MODELS = ("concrete", "provenance", "strict", "cheri", "gcc")

#: Suite explore jobs use the golden budgets, so their behaviour sets
#: must equal the pinned ones exactly.
GOLDEN_MAX_PATHS = 64
GOLDEN_MAX_STEPS = 400_000


def bit_reversal_order(n: int) -> List[int]:
    """A permutation of ``range(n)`` whose every prefix is spread
    evenly over the range (bit-reversed counting)."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for i in range(1 << bits):
        r = int(format(i, f"0{bits}b")[::-1], 2)
        if r < n:
            order.append(r)
    return order


def stratified_sizes(rng: random.Random, count: int, lo: int,
                     hi: int) -> List[int]:
    """``count`` sizes, one drawn uniformly inside each of ``count``
    equal strata of ``[lo, hi]``: every seed gets the same size
    profile, jittered."""
    width = (hi - lo + 1) / count
    return [lo + int((k + rng.random()) * width) for k in range(count)]


def spread_sizes(count: int, lo: int, hi: int) -> List[int]:
    """``count`` sizes at the middles of ``count`` equal strata of
    ``[lo, hi]``: the same size profile for every seed."""
    width = (hi - lo + 1) / count
    return [lo + int((k + 0.5) * width) for k in range(count)]


def load_goldens(root: str) -> Dict[str, Dict[str, List[str]]]:
    """The pinned per-model behaviour sets of the 53 suite programs."""
    with open(f"{root}/tests/goldens/verdicts.json") as f:
        doc = json.load(f)
    if doc.get("max_paths") != GOLDEN_MAX_PATHS \
            or doc.get("max_steps") != GOLDEN_MAX_STEPS:
        raise ValueError("golden budgets changed; update the benchmark")
    return doc["verdicts"]


@dataclass(frozen=True)
class Program:
    """One C program of a corpus and what its result must be."""

    name: str
    source: str
    kind: str                      # "csmith" | "suite" | "deep"
    expected_stdout: str = ""      # csmith
    golden: Optional[Dict[str, List[str]]] = None   # suite
    behaviour: str = ""            # deep: the one allowed behaviour
    size: int = 0                  # statements (csmith) / trips (deep)


def csmith_program(seed: int, size: int, name: str) -> Program:
    from repro.csmith.generator import generate_program
    g = generate_program(seed, size)
    return Program(name, g.source, "csmith",
                   expected_stdout=g.expected_stdout, size=size)


def csmith_pool(workload: str, count: int, lo: int, hi: int,
                prefix: str = "c") -> List[Program]:
    """A workload's Csmith programs, one per size stratum of
    ``[lo, hi]``, smallest first.  The pool and the order it is run in
    are the same for every seed: a generated program's cost varies with
    its loops and nesting as much as with its size, so which programs a
    run reaches would move its medians by itself."""
    rng = random.Random(f"{workload}:pool")
    sizes = stratified_sizes(rng, count, lo, hi)
    return [csmith_program(rng.randrange(1 << 30), size,
                           f"{prefix}{k:02d}")
            for k, size in enumerate(sizes)]


def fresh_stream(workload: str, lo: int, hi: int, block: int = 32):
    """Distinct Csmith programs without end, in blocks of ``block``,
    each block stratified over ``[lo, hi]`` and visited in bit-reversal
    order.  Job ``k`` of the stream is the same program in every run, so
    a run's content depends on its job count and never wraps into
    repeats, however fast the program under test gets."""
    order = bit_reversal_order(block)
    b = 0
    while True:
        pool = csmith_pool(f"{workload}:{b}", block, lo, hi,
                           prefix=f"c{b}_")
        for k in order:
            yield pool[k]
        b += 1


def warm_up(index: int = 0) -> Program:
    """The warm-up job ending set-up ``index``: a fixed small program,
    so set-up costs the same whatever the seed."""
    return csmith_program(1 + index, 12, f"warm{index}")


def suite_programs(goldens) -> List[Program]:
    from repro.testsuite.programs import TESTS
    return [Program(name, TESTS[name].source, "suite",
                    golden=goldens[name])
            for name in sorted(TESTS)]


# -- checks -------------------------------------------------------------------


def check_cli_output(program: Program, stdout: str,
                     file_name: str) -> Tuple[bool, str]:
    """Check the per-model lines of ``cerberus-py FILE --models all``.

    The exit status is not a verdict (a suite program that hits UB on
    one model exits 1), so only the printed lines count: one per
    model, csmith lines equal to the mirror's output with exit 0,
    suite lines members of the golden set once the file name reads
    ``<string>``.  Returns ``(ok, verdict digest)``."""
    lines = {}
    for line in stdout.splitlines():
        model, _, summary = line.partition(" ")
        if model in MODELS:
            lines[model] = summary.strip()
    digest = "\n".join(f"{m} {lines.get(m)}" for m in MODELS)
    if set(lines) != set(MODELS):
        return False, digest
    if program.kind == "csmith":
        want = f"exit=0 stdout={program.expected_stdout!r}"
        return all(lines[m] == want for m in MODELS), digest
    site = f"@ {file_name}:"
    return all(lines[m].replace(site, "@ <string>:")
               in program.golden[m] for m in MODELS), digest


def check_run_verdicts(program: Program, verdicts: dict) -> bool:
    """A daemon run-mode payload's per-model verdicts against the
    generator's mirror."""
    if set(verdicts) != set(MODELS):
        return False
    return all(v.get("status") in ("done", "exit")
               and v.get("exit_code") == 0
               and v.get("stdout") == program.expected_stdout
               for v in verdicts.values())


def check_explorations(program: Program, explorations: dict) -> bool:
    """A daemon explore-mode payload against the golden sets, exactly."""
    if set(explorations) != set(MODELS):
        return False
    return all(list(e.get("behaviours", ())) == program.golden[m]
               for m, e in explorations.items())


# -- the deep-exploration family ----------------------------------------------


#: Path budget of every explore_deep job.
DEEP_PATHS = 16
#: Trip-count range of the family: per-path cost grows linearly with
#: it and the frontier (hence peak memory) quadratically.
DEEP_TRIPS = (8, 32)
#: Distinct programs per corpus (coprime with the five models, so the
#: job cycle pairs every program with every model), one per trip count
#: or nearly, so that job costs have no gap for a median to sit in.
DEEP_PROGRAMS = 24


def deep_program(rng: random.Random, trips: int, name: str) -> Program:
    """A bounded loop whose body adds unsequenced operands, then
    unsequenced writes to two distinct objects.  Every interleaving
    prints the same line, so the behaviour set is one closed-form
    outcome, and the loop's choice points make the path tree far wider
    than the budget, so ``paths_run`` is exactly the budget."""
    start = rng.randrange(1000)
    step = rng.randrange(1, 10)
    tail = rng.randrange(1, 100)
    total = start + step * trips * (trips - 1) // 2
    stdout = f"{total} {total} {tail}\n"
    source = (
        "#include <stdio.h>\n"
        "int x, y;\n"
        "int main(void) {\n"
        f"    int s = {start};\n"
        f"    for (int i = 0; i < {trips}; i++) {{\n"
        f"        s = (s + i * {step}) + (x + y);\n"
        "    }\n"
        f"    int r = (x = s) + (y = {tail});\n"
        '    printf("%d %d %d\\n", s, x, y);\n'
        "    return r & 7;\n"
        "}\n")
    behaviour = f"exit={(total + tail) & 7} stdout={stdout!r}"
    return Program(name, source, "deep", behaviour=behaviour,
                   size=trips)


def deep_corpus(seed: int) -> List[Program]:
    """The seed draws each program's constants, hence its output; the
    trip counts, which set its cost, are the same for every seed, so
    seeds do not move the workload's timings."""
    rng = random.Random(f"explore_deep:{seed}")
    return [deep_program(rng, t, f"deep{k:02d}")
            for k, t in enumerate(spread_sizes(DEEP_PROGRAMS,
                                               *DEEP_TRIPS))]


def deep_jobs(corpus: List[Program]):
    """Job ``i`` explores program ``order[i % 24]`` under model
    ``i % 5``: 120 distinct pairs, then the cycle repeats."""
    order = bit_reversal_order(len(corpus))
    i = 0
    while True:
        yield corpus[order[i % len(order)]], MODELS[i % len(MODELS)]
        i += 1


def check_deep(program: Program, result) -> bool:
    """An explore_deep result: the closed-form behaviour, the whole
    budget explored, the tree not exhausted."""
    return (result.paths_run == DEEP_PATHS and not result.exhausted
            and result.behaviours() == [program.behaviour])
