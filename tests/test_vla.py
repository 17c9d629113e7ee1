"""Variable length arrays (§6.7.6.2) under the five memory object
models: runtime-sized ``create`` at the declaration point, runtime
``sizeof``, lifetime per block entry, and the dedicated UB verdicts for
sizes that are negative, zero, unspecified or absurdly large.
"""

import pytest

from repro.farm.store import ArtifactStore
from repro.pipeline import (
    MODELS, clear_compile_cache, compile_c, explore_c, run_c, run_many,
    set_artifact_store,
)


class TestVlaBasics:
    def test_fill_and_sum(self, run_ok):
        out = run_ok(r'''
int main(void) {
    int n = 5;
    int a[n];
    int i, s = 0;
    for (i = 0; i < n; i++) a[i] = i * i;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}''')
        assert out.exit_code == 30

    def test_sizeof_is_a_runtime_value(self, run_ok):
        out = run_ok(r'''
int main(void) {
    int n = 3;
    long a[n];
    return (int)(sizeof(a) / sizeof(a[0]));
}''')
        assert out.exit_code == 3

    def test_size_expression_evaluated_at_declaration(self, run_ok):
        # Changing n afterwards must not resize the array (§6.7.6.2p5:
        # the size is fixed for the lifetime of the object).
        out = run_ok(r'''
int main(void) {
    int n = 4;
    int a[n + 1];
    n = 100;
    return (int)(sizeof(a) / sizeof(int));
}''')
        assert out.exit_code == 5

    def test_fresh_object_per_block_entry(self, run_ok):
        out = run_ok(r'''
int main(void) {
    int total = 0;
    int n;
    for (n = 1; n <= 3; n++) {
        int a[n];
        a[n - 1] = n;
        total += a[n - 1] + (int)(sizeof(a) / sizeof(int));
    }
    return total;
}''')
        assert out.exit_code == 12

    def test_outer_variable_dimension_over_fixed_inner(self, run_ok):
        out = run_ok(r'''
int main(void) {
    int n = 2;
    int a[n][3];
    int i, j, s = 0;
    for (i = 0; i < n; i++)
        for (j = 0; j < 3; j++)
            a[i][j] = 10 * i + j;
    for (i = 0; i < n; i++)
        for (j = 0; j < 3; j++)
            s += a[i][j];
    return s + (int)(sizeof(a) / sizeof(a[0]));
}''')
        assert out.exit_code == 36 + 2

    def test_vla_decays_to_pointer_for_calls(self, run_ok):
        out = run_ok(r'''
static int sum(int *p, int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) s += p[i];
    return s;
}
int main(void) {
    int n = 4;
    int a[n];
    int i;
    for (i = 0; i < n; i++) a[i] = i + 1;
    return sum(a, n);
}''')
        assert out.exit_code == 10

    def test_size_derived_from_another_vla_sizeof(self, run_ok):
        # sizeof(VLA) is not a constant expression, so b is a VLA too.
        out = run_ok(r'''
int main(void) {
    int n = 3;
    int a[n];
    char b[sizeof(a)];
    return (int)(sizeof(b) / sizeof(char));
}''')
        assert out.exit_code == 12

    def test_out_of_bounds_vla_access_still_checked(self, expect_ub):
        expect_ub(r'''
int main(void) {
    int n = 2;
    int a[n];
    a[0] = 1; a[1] = 2;
    return a[5];
}''', "Access_wrong_provenance", model="provenance")


class TestVlaUbVerdicts:
    def test_negative_size(self, expect_ub):
        expect_ub("int main(void){ int n = -1; int a[n]; return 0; }",
                  "VLA_size_not_positive")

    def test_zero_size(self, expect_ub):
        expect_ub("int main(void){ int n = 0; int a[n]; return 0; }",
                  "VLA_size_not_positive")

    def test_overflowing_size(self, expect_ub):
        expect_ub("int main(void){ long n = 1L << 40; int a[n]; "
                  "return 0; }", "VLA_size_too_large")

    def test_unspecified_size_is_ub(self):
        out = run_c("int main(void){ int n; int a[n]; return 0; }")
        assert out.status == "ub"

    def test_negative_size_verdict_agrees_across_models(self):
        outcomes = run_many(
            "int main(void){ int n = -2; int a[n]; return 0; }")
        assert set(outcomes) == set(MODELS)
        for model, out in outcomes.items():
            assert out.status == "ub", f"{model}: {out.summary()}"
            assert out.ub.name == "VLA_size_not_positive", model


class TestFiveModelSweep:
    SRC = r'''
#include <stdio.h>
struct flags { unsigned ready : 1; unsigned retries : 3; };
int main(void) {
    int n = 4;
    int fib[n];
    struct flags f;
    int i;
    fib[0] = 0; fib[1] = 1;
    for (i = 2; i < n; i++) fib[i] = fib[i - 1] + fib[i - 2];
    f.ready = 1;
    f.retries = 5;
    printf("%d %u %u %u\n", fib[n - 1], f.ready, f.retries,
           (unsigned)sizeof(fib));
    return fib[n - 1] + f.retries;
}'''

    def test_bitfield_vla_program_agrees_across_all_models(self):
        outcomes = run_many(self.SRC)
        assert set(outcomes) == set(MODELS)
        for model, out in outcomes.items():
            assert out.status == "done", f"{model}: {out.summary()}"
            assert out.stdout == "2 1 5 16\n", model
            assert out.exit_code == 7, model

    def test_exhaustive_exploration_handles_vla(self):
        result = explore_c(
            "int main(void){ int n = 2; int a[n]; a[0] = 1; "
            "a[1] = 2; return a[0] + a[1]; }", max_paths=50)
        assert result.outcomes
        assert all(o.exit_code == 3 for o in result.outcomes)


class TestFarmRoundTrip:
    def test_bitfield_vla_artifact_survives_the_store(self, tmp_path,
                                                      counters):
        store = ArtifactStore(tmp_path / "store")
        previous = set_artifact_store(store)
        try:
            clear_compile_cache()
            first = run_many(TestFiveModelSweep.SRC)
            clear_compile_cache()        # force the on-disk path
            again = run_many(TestFiveModelSweep.SRC)
            assert counters()["store_hits"] >= 1
            for model in MODELS:
                assert again[model].status == "done"
                assert again[model].stdout == first[model].stdout
                assert again[model].exit_code == first[model].exit_code
        finally:
            set_artifact_store(previous)
            clear_compile_cache()
