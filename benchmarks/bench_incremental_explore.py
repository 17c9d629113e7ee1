"""Incremental re-exploration throughput: cold sweep vs warm re-sweep
of an unchanged exploration corpus.

The exploration-record seam
(:func:`repro.dynamics.explore.explore_space`) is the
PR-5 scaling lever: a campaign's explorations persist in its one
artifact store (the sweep's ``store``), so re-sweeping an unchanged
corpus replays **zero** paths — it deserialises the recorded
behaviour sets instead of re-running the state space.  Measured on
one reproducible corpus of unseq-heavy programs swept with
``mode="explore"`` through
:func:`~repro.farm.campaign.sweep_campaign`:

* the **cold** pass explores every program × model live and publishes
  one record per cell (asserted via the campaign report's
  ``metrics["explore"]`` misses/live-path counters);
* the **warm** pass must re-run **zero** paths
  (``live_paths == 0``, ``hit_rate == 1.0``) and be
  at least **3×** faster than the cold pass (asserted; in practice
  the gap is far larger).

A JSON perf record is printed on the ``-s`` stream and written to
``benchmarks/perf_incremental_explore.json``.
"""

import json
import shutil
import tempfile
from pathlib import Path

from repro.farm.campaign import sweep_campaign
from repro.pipeline import clear_compile_cache
from repro.spec import ExploreSpec

# Unseq pairs and triples: wide, quick-to-replay state spaces whose
# exploration dwarfs record deserialisation.
CORPUS = [
    ("pair", "int a, b;\n"
             "int main(void){ (a = 1) + (b = 2); return a + b - 3; }"),
    ("pair_race", "int a;\n"
                  "int main(void){ return (a = 1) + (a = 2); }"),
    ("triple", "int a, b, c;\n"
               "int main(void){ (a = 1) + (b = 2) + (c = 3);"
               " return a + b + c - 6; }"),
    ("pair_call", "int a, b;\n"
                  "int set(int *p, int v){ *p = v; return v; }\n"
                  "int main(void){ set(&a, 1) + set(&b, 2);"
                  " return a + b - 3; }"),
]
MODELS = ["concrete", "provenance"]
MAX_PATHS = 700


def _campaign(store_root):
    clear_compile_cache()   # every pass starts with a cold process cache
    results, campaign = sweep_campaign(
        CORPUS, models=MODELS, jobs=1, mode="explore",
        store=store_root / "artifacts",
        spec=ExploreSpec(max_paths=MAX_PATHS, max_steps=500_000))
    return results, campaign


def test_incremental_explore(benchmark):
    root = Path(tempfile.mkdtemp(prefix="incr-explore-bench-"))
    cells = len(CORPUS) * len(MODELS)
    try:
        cold_results, cold = _campaign(root)
        assert all(r.ok for r in cold_results)
        assert cold.metrics["explore"]["misses"] == cells
        assert cold.metrics["explore"]["puts"] == cells
        cold_paths = cold.metrics["explore"]["live_paths"]
        assert cold_paths > 0

        warm_results, warm = benchmark.pedantic(
            lambda: _campaign(root), rounds=1, iterations=1)

        # Same corpus, same behaviours — just served from records.
        def behaviours(results):
            return [{m: sorted(e.behaviours)
                     for m, e in r.data["explorations"].items()}
                    for r in results]
        assert behaviours(warm_results) == behaviours(cold_results)
        assert [r.data["explorations"][m].paths_run
                for r in warm_results for m in MODELS] == \
               [r.data["explorations"][m].paths_run
                for r in cold_results for m in MODELS]

        # The headline property: a warm re-sweep re-runs ZERO paths
        # (and, with a warm artifact store, re-translates nothing).
        assert warm.metrics["explore"]["live_paths"] == 0
        assert warm.metrics["explore"]["hits"] == cells
        assert warm.metrics["explore"]["hit_rate"] == 1.0
        assert warm.cache["translations"] == 0

        speedup = round(cold.wall_s / warm.wall_s, 2)
        record = {
            "benchmark": "incremental_explore",
            "corpus": {"programs": [name for name, _ in CORPUS],
                       "models": MODELS, "max_paths": MAX_PATHS,
                       "cells": cells},
            "cold_sweep_s": cold.wall_s,
            "warm_sweep_s": warm.wall_s,
            "speedup_warm_vs_cold": speedup,
            "paths_run_cold": cold_paths,
            "paths_run_warm": warm.metrics["explore"]["live_paths"],
            "explore_hits_warm": warm.metrics["explore"]["hits"],
            "explore_hit_rate_warm":
                warm.metrics["explore"]["hit_rate"],
        }
        out_path = Path(__file__).with_name(
            "perf_incremental_explore.json")
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print("\n" + json.dumps(record))
        assert speedup >= 3.0, record
    finally:
        shutil.rmtree(root, ignore_errors=True)
