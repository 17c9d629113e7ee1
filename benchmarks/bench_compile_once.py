"""Compile-once batch execution vs per-model recompilation.

The paper's methodology (§2–§5) runs the *same* C program under many
memory object models and compares verdicts. Before this seam existed,
every ``run_c`` call re-ran the whole front end (preprocess -> Cabs ->
Ail -> Typed Ail -> Core); a 5-model sweep therefore paid ~5× the
translation cost. ``run_many`` translates once and executes the shared
Core artifact per model.

The sweep is run under a single implementation environment (CHERI128 —
the one the cheri model pins; the integer environment matches LP64) so
front-end translation happens exactly once per program. Both sweeps
must produce identical verdicts, the compile-once sweep must be ≥3×
faster, and a JSON perf record is printed on the ``-s`` stream and
written to ``benchmarks/perf_compile_once.json``.
"""

import json
import time
from pathlib import Path

from repro.ctypes.implementation import CHERI128
from repro.pipeline import MODELS, clear_compile_cache, compile_c, \
    run_many

# A translation-heavy, execution-light program — the shape of the
# paper's test-suite programs (many small definitions, a short main).
# The printf calls cover the width-masking and *-width fixes, so the
# sweep also guards the observable layer the verdicts depend on.
SOURCE = r'''
#include <stdio.h>
#include <limits.h>

struct point { int x, y; };
struct rect { struct point lo, hi; };
union word { unsigned u; unsigned char bytes[4]; };

static unsigned mix(unsigned h, unsigned v) { h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2); return h; }
static int clamp(int v, int lo, int hi) { return v < lo ? lo : v > hi ? hi : v; }
static int area(struct rect r) { return (r.hi.x - r.lo.x) * (r.hi.y - r.lo.y); }
static int dot(struct point a, struct point b) { return a.x * b.x + a.y * b.y; }
static long scale(long v, long num, long den) { return v * num / den; }
static unsigned rotl(unsigned v, int s) { return (v << s) | (v >> (32 - s)); }
static unsigned rotr(unsigned v, int s) { return (v >> s) | (v << (32 - s)); }
static int sign(int v) { return (v > 0) - (v < 0); }
static unsigned parity(unsigned v) { v ^= v >> 16; v ^= v >> 8; v ^= v >> 4; v ^= v >> 2; v ^= v >> 1; return v & 1u; }
static int wrap_index(int i, int n) { int m = i % n; return m < 0 ? m + n : m; }
static unsigned sat_add(unsigned a, unsigned b) { unsigned s = a + b; return s < a ? UINT_MAX : s; }
static unsigned sat_sub(unsigned a, unsigned b) { return a < b ? 0u : a - b; }
static int imin(int a, int b) { return a < b ? a : b; }
static int imax(int a, int b) { return a > b ? a : b; }
static int iabs(int v) { return v < 0 ? -v : v; }
static int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
static int lcm(int a, int b) { return a / gcd(a, b) * b; }
static unsigned popcount(unsigned v) { unsigned c = 0; while (v) { v &= v - 1; c++; } return c; }
static unsigned ilog2(unsigned v) { unsigned r = 0; while (v >>= 1) r++; return r; }
static unsigned next_pow2(unsigned v) { v--; v |= v >> 1; v |= v >> 2; v |= v >> 4; v |= v >> 8; v |= v >> 16; return v + 1; }
static int is_leap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }
static int manhattan(struct point a, struct point b) { return iabs(a.x - b.x) + iabs(a.y - b.y); }
static int chebyshev(struct point a, struct point b) { return imax(iabs(a.x - b.x), iabs(a.y - b.y)); }
static int contains(struct rect r, struct point p) { return p.x >= r.lo.x && p.x < r.hi.x && p.y >= r.lo.y && p.y < r.hi.y; }
static struct rect normalised(struct rect r) { struct rect out = {{ imin(r.lo.x, r.hi.x), imin(r.lo.y, r.hi.y) }, { imax(r.lo.x, r.hi.x), imax(r.lo.y, r.hi.y) }}; return out; }
static unsigned crc_step(unsigned crc, unsigned char byte) { crc ^= byte; for (int k = 0; k < 8; k++) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u))); return crc; }
static int str_count(const char *s, char c) { int n = 0; while (*s) n += (*s++ == c); return n; }
static void swap_ints(int *a, int *b) { int t = *a; *a = *b; *b = t; }
static void sort3(int *a, int *b, int *c) { if (*a > *b) swap_ints(a, b); if (*b > *c) swap_ints(b, c); if (*a > *b) swap_ints(a, b); }
static int median3(int a, int b, int c) { sort3(&a, &b, &c); return b; }
static long fixed_mul(long a, long b) { return (a * b) >> 16; }
static long fixed_div(long a, long b) { return (a << 16) / b; }
static unsigned to_gray(unsigned v) { return v ^ (v >> 1); }
static unsigned from_gray(unsigned g) { unsigned v = 0; for (; g; g >>= 1) v ^= g; return v; }
static int tri_area2(struct point a, struct point b, struct point c) { return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y); }
static int collinear(struct point a, struct point b, struct point c) { return tri_area2(a, b, c) == 0; }
static struct point midpoint(struct point a, struct point b) { struct point m = { (a.x + b.x) / 2, (a.y + b.y) / 2 }; return m; }
static struct rect bounding(struct point a, struct point b) { struct rect r = {{ imin(a.x, b.x), imin(a.y, b.y) }, { imax(a.x, b.x), imax(a.y, b.y) }}; return r; }
static int overlap(struct rect a, struct rect b) { return a.lo.x < b.hi.x && b.lo.x < a.hi.x && a.lo.y < b.hi.y && b.lo.y < a.hi.y; }
static unsigned hash_point(struct point p) { return mix(mix(0u, (unsigned)p.x), (unsigned)p.y); }
static unsigned bytes_reversed(unsigned v) { return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24); }
static int digit_sum(int v) { int s = 0; v = iabs(v); while (v) { s += v % 10; v /= 10; } return s; }
static int is_pow10(int v) { while (v > 9 && v % 10 == 0) v /= 10; return v == 1; }
static long tri_number(long n) { return n * (n + 1) / 2; }
static int quadrant(struct point p) { if (p.x > 0 && p.y > 0) return 1; if (p.x < 0 && p.y > 0) return 2; if (p.x < 0 && p.y < 0) return 3; if (p.x > 0 && p.y < 0) return 4; return 0; }
static unsigned interleave8(unsigned char a, unsigned char b) { unsigned out = 0; for (int k = 0; k < 8; k++) out |= ((unsigned)((a >> k) & 1) << (2 * k)) | ((unsigned)((b >> k) & 1) << (2 * k + 1)); return out; }

int main(void) {
    struct rect r = {{1, 2}, {4, 6}};
    struct point p = {3, 4};
    printf("%d %d %d %ld\n", area(r), clamp(9, 0, 5),
           sign(-3) + wrap_index(-1, 4), scale(10L, 3L, 2L));
    printf("%u %hu [%*d] %u\n", -1, -1, 5, 42,
           sat_add(4294967290u, 10u));
    return contains(r, p) - 1;
}
'''

MODEL_LIST = list(MODELS)


def _verdict(outcome):
    return (outcome.status, outcome.exit_code, outcome.stdout,
            outcome.ub.name if outcome.ub else None)


def sweep_recompile():
    """The old shape: one full front-end translation per model."""
    outcomes = {}
    for model in MODEL_LIST:
        clear_compile_cache()
        outcomes[model] = compile_c(SOURCE, CHERI128).run(model)
    return outcomes


def sweep_compile_once():
    """The batch API with a cold cache: one translation, five runs."""
    clear_compile_cache()
    return run_many(SOURCE, models=MODEL_LIST, impl=CHERI128)


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_compile_once_sweep(benchmark):
    base = sweep_recompile()
    batch = benchmark.pedantic(sweep_compile_once, rounds=1,
                               iterations=1)

    # Identical verdicts, model for model.
    assert list(batch) == MODEL_LIST
    for model in MODEL_LIST:
        assert _verdict(batch[model]) == _verdict(base[model]), model
    assert batch["concrete"].stdout.endswith(
        "4294967295 65535 [   42] 4294967295\n")

    recompile_s = _best_of(sweep_recompile)
    compile_once_s = _best_of(sweep_compile_once)
    record = {
        "benchmark": "compile_once",
        "models": MODEL_LIST,
        "impl": "CHERI128",
        "recompile_sweep_s": round(recompile_s, 4),
        "compile_once_sweep_s": round(compile_once_s, 4),
        "speedup": round(recompile_s / compile_once_s, 2),
    }
    out_path = Path(__file__).with_name("perf_compile_once.json")
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + json.dumps(record))
    assert record["speedup"] >= 3.0, record
