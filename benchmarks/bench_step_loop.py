"""Compiled back end vs tree evaluator on straight-line-heavy loops.

The compiled back end (:mod:`repro.dynamics.compile`) lowers each
Core procedure once into linear code for an explicit-stack machine;
the tree evaluator — the oracle of record — re-dispatches on Core AST
nodes every step.  On straight-line-heavy programs (tight loops of
pure arithmetic, array traffic, chained assignments) the lowering
should buy at least a 3× throughput win, and this benchmark pins that
floor so a regression in the lowering or the machine fails CI instead
of silently eroding the back end's reason to exist.

Exploration runs the same machine, with every ``unseq`` interleaved
through the oracle (actions are logged only for partial-order
reduction).  One explored path (a driver handed an oracle with an
empty prefix and no event log — the explorer's first path without
POR) is timed next to the plain run of each shape, and the aggregate
explored/run ratio must stay at or below ``MAX_EXPLORED_RATIO``.

PR 7's telemetry is the measuring stick: each timed run executes
under ``obs.collecting()`` and the numbers come from the driver's own
``driver.steps`` counter and ``driver.run_s`` wall histogram — the
same feed ``cerberus-py stats`` renders as steps/s.  The two back
ends count steps differently (the compiled evaluator *elides*
request round-trips — that is much of the win), so raw steps/s is
apples-to-oranges; the asserted ratio is **work-normalized**: both
sides are charged the tree backend's step count for the identical
program, which reduces to the wall-clock ratio of the same work.

Measurement discipline: min-of-``ROUNDS`` with the two back ends
interleaved round-robin, so a machine-load spike hits both sides
rather than biasing one.  Cold numbers are recorded too: the
one-time ``lower_program`` cost and the first compiled run that pays
it, next to the warm steady-state runs the assertion uses.

The JSON perf record is printed on the ``-s`` stream and written to
``benchmarks/perf_step_loop.json``; per-shape ratios must clear
``MIN_SHAPE_RATIO`` (or their entry in ``SHAPE_FLOORS`` — the call
shapes pin the specialized call protocol at 3×), the aggregate must
clear ``MIN_RATIO`` (3.5×), and the aggregate explored/run ratio must
not exceed ``MAX_EXPLORED_RATIO`` (2×).
"""

import gc
import json
import threading
import time
from pathlib import Path

from repro import obs
from repro.dynamics.compile import lower_program
from repro.dynamics.driver import Driver, Oracle
from repro.pipeline import compile_for_model

MODEL = "concrete"
ROUNDS = 3
#: The headline floor: aggregate work-normalized steps/s, compiled
#: over tree, across every shape.
MIN_RATIO = 3.5
#: Per-shape sanity floor (a single shape collapsing below this is a
#: lowering regression even if the aggregate still clears the
#: headline).
MIN_SHAPE_RATIO = 2.0
#: Shapes with their own, higher floor.  The call shapes pin the
#: specialized call protocol: before it they measured ~2× (the
#: generic call_proc path re-dispatched and copied a dict global env
#: per call); with pre-resolved callee layouts and direct slot-write
#: argument passing they must hold >= 3×.
SHAPE_FLOORS = {"call_heavy": 3.0, "ptr_call": 3.0}
#: The ceiling on one explored path's cost over a plain run of the
#: same program, aggregated across every shape.
MAX_EXPLORED_RATIO = 2.0

# Straight-line-heavy step loops: no I/O, no nondeterminism — one
# path, thousands of evaluator steps.  Unsigned arithmetic keeps
# every operation defined under all models.
SHAPES = {
    # chained assignments: four stores per iteration, each a small
    # pure expression
    "arith_unrolled": r'''
unsigned acc;
int main(void) {
    int i;
    unsigned s = 1u;
    for (i = 0; i < 800; i++) {
        s = s * 3u + 7u;
        s = s * 5u + 1u;
        s = s * 7u + 3u;
        s = s * 9u + 5u;
    }
    acc = s;
    return 0;
}
''',
    # one wide pure expression per store: mul/div/mod/xor/or trees
    # the lowering folds into pre-resolved closures
    "heavy_expr": r'''
unsigned acc;
int main(void) {
    int i;
    unsigned s = 1u;
    for (i = 0; i < 1200; i++)
        s = ((s * 3u) ^ (s / 5u)) + ((s * 4u) | 1u) + (s % 7u);
    acc = s;
    return 0;
}
''',
    # array stencil: three indexed loads + one indexed store per
    # inner iteration — pointer arithmetic and memory traffic
    "array_stencil": r'''
unsigned acc;
int main(void) {
    unsigned t[64];
    int i, j;
    for (i = 0; i < 64; i++) t[i] = (unsigned)i;
    for (j = 0; j < 30; j++)
        for (i = 1; i < 63; i++)
            t[i] = (t[i - 1] + t[i] * 2u + t[i + 1]) / 4u;
    acc = t[32];
    return 0;
}
''',
    # call-heavy: three short calls per iteration — the specialized
    # call protocol's home turf (per-site callee cache, direct slot
    # writes into the callee frame, pure-callee fast path)
    "call_heavy": r'''
unsigned acc;
unsigned mix(unsigned s, unsigned k) {
    return s * k + (s / 8u) + 1u;
}
int main(void) {
    int i;
    unsigned s = 1u;
    for (i = 0; i < 600; i++) {
        s = mix(s, 3u);
        s = mix(s, 5u);
        s = mix(s, 7u);
    }
    acc = s;
    return 0;
}
''',
    # pointer-argument calls: the callee dereferences and stores
    # through a pointer parameter — these rode the generic ECcall
    # route before round 2 lowered them onto the same fast path
    "ptr_call": r'''
unsigned acc;
void bump(unsigned *p, unsigned k) {
    *p = *p * k + 1u;
}
int main(void) {
    int i;
    unsigned s = 1u;
    for (i = 0; i < 500; i++) {
        bump(&s, 3u);
        bump(&s, 5u);
    }
    acc = s;
    return 0;
}
''',
}


def _explored_path(program):
    """The explorer's first path without POR: the driver is handed an
    oracle with no prefix, so it asks at every choice point, and the
    oracle keeps the choice trace only (the event log is POR's)."""
    return Driver(program.core, program.make_model(MODEL),
                  Oracle()).run()


def _observed_run(program, backend, explored=False):
    """One run (or, with ``explored``, one explored path on the
    compiled back end) under a fresh metrics scope; returns the
    outcome plus the driver's own telemetry (steps, instrumented
    wall seconds).

    Two pieces of measurement hygiene isolate the run from harness
    state that would otherwise skew the ratio:

    * Cyclic GC is off during the timed run (and the heap collected
      before it): collections trigger on *allocation counts*, so the
      faster back end — same allocations in a fraction of the wall
      time — absorbs proportionally more GC pauses per second, paying
      for whatever unrelated garbage the process accumulated.
    * The run executes on a fresh thread: CPython allocates Python
      frames in fixed-size chunks, and a recursion that starts deep
      in the caller's stack (a pytest runner is ~30 frames down) can
      straddle a chunk boundary, re-allocating a chunk on every call
      cycle.  The compiled back end's closure recursion is exactly
      such a hot call cycle; starting from a shallow dedicated stack
      measures the back end, not where the harness happened to sit."""
    result = {}

    def work():
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with obs.collecting() as registry:
                result["outcome"] = _explored_path(program) if explored \
                    else program.run(MODEL, backend=backend)
        finally:
            if was_enabled:
                gc.enable()
        result["steps"] = registry.counters.get("driver.steps", 0)
        result["wall"] = registry.histograms.get(
            "driver.run_s", [0, 0.0])[1]

    t = threading.Thread(target=work)
    t.start()
    t.join()
    return result["outcome"], result["steps"], result["wall"]


def _outcome_key(o):
    return (o.status, o.exit_code, o.stdout,
            o.ub.name if o.ub else None, o.ub_detail, o.error)


def test_step_loop(benchmark):
    entries = {}
    agg = {"tree_s": 0.0, "compiled_s": 0.0, "explored_s": 0.0}
    for name, source in SHAPES.items():
        program = compile_for_model(source, MODEL)

        # Cold numbers first: the one-time lowering cost on a fresh
        # Core term, then the first compiled run that pays it inside
        # a process with no warm per-term cache.
        t0 = time.perf_counter()
        lowered = lower_program(program.core)
        cold_lower_s = time.perf_counter() - t0
        assert lowered.layout() == program.lowered().layout()
        cold_out, cold_steps, cold_run_s = \
            _observed_run(program, "compiled")

        # Both sides must be observably identical before any timing
        # is worth recording.
        tree_out, tree_steps, _ = _observed_run(program, "tree")
        assert _outcome_key(cold_out) == _outcome_key(tree_out), name
        assert tree_out.status == "done" and \
            tree_out.exit_code == 0, name
        explored_out, explored_steps, _ = \
            _observed_run(program, "compiled", explored=True)
        assert _outcome_key(explored_out) == _outcome_key(tree_out), name

        # Warm steady state: min-of-ROUNDS, back ends interleaved so
        # load spikes hit both sides.
        walls = {"tree": [], "compiled": [], "explored": []}
        if name == "array_stencil":
            out = benchmark.pedantic(
                lambda: _observed_run(program, "compiled"),
                rounds=1, iterations=1)
            walls["compiled"].append(out[2])
        for _ in range(ROUNDS):
            for backend in ("tree", "compiled"):
                walls[backend].append(
                    _observed_run(program, backend)[2])
            walls["explored"].append(
                _observed_run(program, "compiled", explored=True)[2])
        tree_s = min(walls["tree"])
        compiled_s = min(walls["compiled"])
        explored_s = min(walls["explored"])

        # Work-normalized steps/s: both sides charged the tree step
        # count for the identical program (the compiled evaluator
        # elides request round-trips, so its raw count is smaller).
        tree_sps = tree_steps / tree_s
        normalized_sps = tree_steps / compiled_s
        ratio = round(normalized_sps / tree_sps, 2)
        entries[name] = {
            "cold_lower_s": round(cold_lower_s, 4),
            "cold_first_run_s": round(cold_run_s, 4),
            "tree": {"wall_s": round(tree_s, 4),
                     "steps": tree_steps,
                     "steps_per_s": round(tree_sps, 1)},
            "compiled": {"wall_s": round(compiled_s, 4),
                         "steps": cold_steps,
                         "steps_per_s":
                             round(cold_steps / compiled_s, 1),
                         "work_normalized_steps_per_s":
                             round(normalized_sps, 1)},
            "explored": {"wall_s": round(explored_s, 4),
                         "steps": explored_steps},
            "ratio": ratio,
            "explored_over_run": round(explored_s / compiled_s, 2),
        }
        agg["tree_s"] += tree_s
        agg["compiled_s"] += compiled_s
        agg["explored_s"] += explored_s
        floor = SHAPE_FLOORS.get(name, MIN_SHAPE_RATIO)
        entries[name]["min_ratio_asserted"] = floor
        assert ratio >= floor, (name, entries)

    aggregate_ratio = round(agg["tree_s"] / agg["compiled_s"], 2)
    explored_ratio = round(agg["explored_s"] / agg["compiled_s"], 2)
    record = {
        "benchmark": "step_loop",
        "model": MODEL,
        "rounds": ROUNDS,
        "measure": "min-of-rounds interleaved, driver.run_s telemetry",
        "shapes": entries,
        "aggregate": {"tree_s": round(agg["tree_s"], 4),
                      "compiled_s": round(agg["compiled_s"], 4),
                      "explored_s": round(agg["explored_s"], 4),
                      "steps_per_s_ratio": aggregate_ratio,
                      "explored_over_run": explored_ratio},
        "min_ratio_asserted": MIN_RATIO,
        "max_explored_ratio_asserted": MAX_EXPLORED_RATIO,
    }
    out_path = Path(__file__).with_name("perf_step_loop.json")
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + json.dumps(record))
    assert aggregate_ratio >= MIN_RATIO, record
    assert explored_ratio <= MAX_EXPLORED_RATIO, record
