"""Exploration memory grows with depth, not with depth squared.

A fixed budget of ``dfs`` paths over the deep-loop family: ``TRIPS``
iterations of unsequenced operands (a few choice points each), then
two calls that both write one object.  Every path is as deep as the
loop, so after ``PATHS`` paths the frontier holds about ``PATHS x
depth`` siblings.  When every sibling copied its prefix, the
frontier's memory grew with the square of the depth; now the siblings
of one run share that run's choice tuple
(:class:`~repro.dynamics.explore.por.PathNode`), so doubling the trip
count at most about doubles it.

The assertion: the tracemalloc peak of the exploration at ``2 x
TRIPS`` is at most ``MAX_PEAK_GROWTH`` (2.5x) the peak at ``TRIPS``.
Copied prefixes measured 3.8x at 100 -> 200 trips.  Wall-clock ms per
path (min of ``ROUNDS`` untraced runs; tracemalloc slows a run
several times over) and the peak bytes at both depths are printed on
the ``-s`` stream and written to ``benchmarks/perf_explore_depth.json``.
"""

import gc
import json
import platform
import time
import tracemalloc
from pathlib import Path

from repro.dynamics.explore import Explorer, driver_factory
from repro.pipeline import compile_c
from repro.spec import ExploreSpec

MODEL = "concrete"
PATHS = 20
TRIPS = 100
ROUNDS = 2
#: The ceiling on the peak's growth when the trip count doubles.
MAX_PEAK_GROWTH = 2.5

SOURCE = r'''#include <stdio.h>
int x;
int f(void) { x = 1; return 1; }
int g(void) { x = 2; return 2; }
int main(void) {
    int s = 0;
    for (int i = 0; i < TRIPS; i++) s = (s + i) + (x + 1);
    int y = f() + g();
    printf("%d %d\n", x, s);
    return 0;
}
'''


def _explorer(program):
    spec = ExploreSpec(max_paths=PATHS, strategy="dfs", por=False,
                       static_prune=False)
    return Explorer(driver_factory(
        program.core, lambda: program.make_model(MODEL, spec), spec),
        spec)


def _measure(trips):
    program = compile_c(SOURCE.replace("TRIPS", str(trips)))
    program.lowered()
    wall = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = _explorer(program).run()
        wall = min(wall, time.perf_counter() - t0)
        assert result.paths_run == PATHS and not result.exhausted
    explorer = _explorer(program)
    gc.collect()                # no earlier garbage in the peak
    tracemalloc.start()
    try:
        explorer.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"trips": trips, "ms_per_path": round(1000 * wall / PATHS, 2),
            "peak_bytes": peak,
            "frontier_peak": explorer.frontier_peak}


def test_frontier_memory_linear_in_depth():
    shallow, deep = _measure(TRIPS), _measure(2 * TRIPS)
    growth = deep["peak_bytes"] / shallow["peak_bytes"]
    record = {
        "benchmark": "explore_depth",
        "model": MODEL,
        "paths": PATHS,
        "python": platform.python_version(),
        "depths": [shallow, deep],
        "peak_growth_x": round(growth, 2),
        "max_peak_growth_x": MAX_PEAK_GROWTH,
    }
    out_path = Path(__file__).with_name("perf_explore_depth.json")
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + json.dumps(record))
    assert growth <= MAX_PEAK_GROWTH, record
