"""Warm-store 5-model sweep over the widened fragment (bit-fields and
VLAs).

The fragment widening is only useful at farm scale if the new
constructs ride the compile-once / artifact-store seams like the rest
of the language: one front-end translation per implementation
environment, pickled `CompiledProgram` artifacts reloaded across
process-cache clears, and verdict agreement across all five registered
memory object models.  This benchmark sweeps a small corpus of
bit-field/VLA programs twice against one persistent store — cold, then
warm after clearing the in-memory cache — asserts the warm pass
performs **zero** front-end translations with identical verdicts, and
records a JSON perf record in ``benchmarks/perf_fragment_sweep.json``.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.farm.pool import task_stats
from repro.farm.store import ArtifactStore
from repro.pipeline import (
    MODELS, clear_compile_cache, run_many, set_artifact_store,
)

PROGRAMS = {
    "bitfield_pack": r'''
#include <stdio.h>
struct s { char c; unsigned lo : 4; unsigned hi : 12; int n : 9; };
int main(void) {
    struct s s;
    s.c = 'x'; s.lo = 9; s.hi = 3000; s.n = -200;
    s.hi += 77;
    printf("%u %u %d %u\n", s.lo, s.hi, s.n,
           (unsigned)sizeof(struct s));
    return s.lo;
}''',
    "bitfield_union": r'''
#include <stdio.h>
union u { unsigned word; unsigned lo : 8; };
int main(void) {
    union u u;
    u.word = 0x1234u;
    u.lo = 0xAB;
    printf("%x %u\n", u.word, u.lo);
    return 0;
}''',
    "vla_sum": r'''
#include <stdio.h>
int main(void) {
    int n = 16;
    int a[n];
    int i, s = 0;
    for (i = 0; i < n; i++) a[i] = i;
    for (i = 0; i < n; i++) s += a[i];
    printf("%d %u\n", s, (unsigned)sizeof(a));
    return s & 0x7f;
}''',
    "vla_matrix": r'''
int main(void) {
    int rows = 3;
    int m[rows][4];
    int i, j, s = 0;
    for (i = 0; i < rows; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 4 + j;
    for (i = 0; i < rows; i++)
        for (j = 0; j < 4; j++)
            s += m[i][j];
    return s;
}''',
    "vla_negative_verdict": r'''
int main(void) { int n = -3; int a[n]; return 0; }''',
    "bitfield_vla_mix": r'''
#include <stdio.h>
struct flags { unsigned ready : 1; unsigned retries : 3; };
int main(void) {
    int n = 6;
    int fib[n];
    struct flags f;
    int i;
    fib[0] = 0; fib[1] = 1;
    for (i = 2; i < n; i++) fib[i] = fib[i - 1] + fib[i - 2];
    f.ready = 1; f.retries = 7;
    printf("%d %u\n", fib[n - 1], f.retries);
    return fib[n - 1];
}''',
}


def _sweep():
    """One pass over the corpus: its verdicts and its compile/store
    counters (translations, store hits)."""
    clear_compile_cache()
    verdicts = {}
    with obs.collecting() as registry:
        for name, src in PROGRAMS.items():
            outcomes = run_many(src, name=name)
            verdicts[name] = {
                model: (o.status, o.exit_code,
                        o.ub.name if o.ub else None, o.stdout)
                for model, o in outcomes.items()
            }
    return verdicts, task_stats(registry.to_dict())


def test_fragment_sweep():
    root = Path(tempfile.mkdtemp(prefix="fragment-sweep-"))
    store = ArtifactStore(root / "store")
    previous = set_artifact_store(store)
    try:
        t0 = time.perf_counter()
        cold, cold_stats = _sweep()
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm, warm_stats = _sweep()
        warm_s = time.perf_counter() - t0

        # Same corpus, same verdicts, and the warm pass replayed
        # pickled artifacts without running the front end once.
        assert warm == cold
        assert warm_stats["translations"] == 0, warm_stats
        assert warm_stats["store_hits"] == len(PROGRAMS) * \
            len({"CHERI128", "LP64"}), warm_stats

        # The five models must agree wherever the semantics forces
        # agreement: every deterministic program here.
        for name, per_model in cold.items():
            assert len(per_model) == len(MODELS), name
            assert len(set(per_model.values())) == 1, (name, per_model)
        neg = cold["vla_negative_verdict"]["concrete"]
        assert neg[0] == "ub" and neg[2] == "VLA_size_not_positive"

        record = {
            "benchmark": "fragment_sweep",
            "corpus": sorted(PROGRAMS),
            "models": sorted(MODELS),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cold_translations": cold_stats["translations"],
            "warm_translations": warm_stats["translations"],
            "warm_store_hits": warm_stats["store_hits"],
            "speedup_warm_vs_cold": round(cold_s / warm_s, 2),
        }
        out_path = Path(__file__).with_name("perf_fragment_sweep.json")
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        print("\n" + json.dumps(record))
    finally:
        set_artifact_store(previous)
        clear_compile_cache()
        shutil.rmtree(root, ignore_errors=True)
