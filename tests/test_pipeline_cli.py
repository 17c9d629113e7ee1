"""The pipeline facade and command-line interface."""

import pytest

from repro.cli import main as cli_main
from repro.ctypes import ILP32
from repro.pipeline import (
    MODELS, clear_compile_cache, compile_c, explore_c, explore_many,
    run_c, run_many,
)


class TestPipeline:
    def test_models_registered(self):
        assert set(MODELS) == {"concrete", "provenance", "strict",
                               "cheri", "gcc"}

    def test_compile_reusable_across_models(self):
        pipe = compile_c("int main(void){ return 0; }")
        for model in ("concrete", "provenance", "strict"):
            out = pipe.run(model)
            assert out.exit_code == 0

    def test_ilp32_sizes(self):
        out = run_c(r'''
#include <stdio.h>
int main(void) {
    printf("%d %d %d\n", (int)sizeof(long), (int)sizeof(void*),
           (int)sizeof(long long));
    return 0;
}''', impl=ILP32)
        assert out.stdout == "4 4 8\n"

    def test_lp64_sizes(self):
        out = run_c(r'''
#include <stdio.h>
int main(void) {
    printf("%d %d\n", (int)sizeof(long), (int)sizeof(void*));
    return 0;
}''')
        assert out.stdout == "8 8\n"

    def test_seeded_random_exploration(self):
        src = r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); return 0; }'''
        outs = {run_c(src, seed=s).stdout for s in range(12)}
        assert outs == {"ab", "ba"}

    def test_max_steps_timeout(self):
        out = run_c("int main(void){ while (1) ; return 0; }",
                    max_steps=5000)
        assert out.status == "timeout"

    def test_explore_returns_result(self):
        res = explore_c("int main(void){ return 0; }")
        assert res.paths_run == 1
        assert res.exhausted


class TestCompileCache:
    SRC = "int main(void){ return 41 + 1; }"

    def test_cache_returns_same_artifact(self, counters):
        clear_compile_cache()
        a = compile_c(self.SRC)
        b = compile_c(self.SRC)
        assert a is b
        stats = counters()
        assert stats["memory_hits"] == 1
        assert stats["memory_misses"] == 1
        # one cached artifact: the second compile translated nothing
        assert stats["translations"] == 1

    def test_cache_key_discrimination(self, counters):
        clear_compile_cache()
        a = compile_c(self.SRC)
        assert compile_c(self.SRC) is a
        other_impl = compile_c(self.SRC, impl=ILP32)
        other_src = compile_c("int main(void){ return 42; }")
        assert other_impl is not a
        assert other_src is not a
        # Three cached artifacts: compiling each again is a hit and
        # translates nothing.
        before = counters()["translations"]
        assert compile_c(self.SRC) is a
        assert compile_c(self.SRC, impl=ILP32) is other_impl
        assert compile_c("int main(void){ return 42; }") is other_src
        assert counters()["memory_hits"] == 4
        assert counters()["translations"] == before

    def test_clear_resets(self, counters):
        compile_c(self.SRC)
        before = counters()["translations"]
        clear_compile_cache()
        compile_c(self.SRC)                     # translates again
        assert counters()["translations"] == before + 1

    def test_translations_counted(self, counters):
        clear_compile_cache()
        compile_c(self.SRC)
        compile_c(self.SRC)                     # in-memory hit
        assert counters()["translations"] == 1


class TestBatchExecution:
    # Observable on every model, with model-divergent UB available via
    # the uninitialised read below.
    SRC = r'''
#include <stdio.h>
int main(void) {
    unsigned u = 7;
    printf("%u %u\n", u, -1);
    return 0;
}'''

    DIVERGENT = r'''
int main(void) {
    int x;
    int y = x;
    return 0;
}'''

    def test_run_many_matches_individual_run_c(self):
        many = run_many(self.SRC)
        assert list(many) == list(MODELS)
        for model in MODELS:
            solo = run_c(self.SRC, model=model)
            o = many[model]
            assert (o.status, o.exit_code, o.stdout, o.ub) == \
                (solo.status, solo.exit_code, solo.stdout, solo.ub)

    def test_run_many_preserves_model_divergence(self):
        many = run_many(self.DIVERGENT)
        for model in MODELS:
            solo = run_c(self.DIVERGENT, model=model)
            o = many[model]
            assert (o.status, o.ub) == (solo.status, solo.ub)
        assert many["strict"].status == "ub"
        assert many["concrete"].status == "done"

    def test_run_many_compiles_once_per_impl(self, counters):
        clear_compile_cache()
        run_many(self.SRC)
        stats = counters()
        # One translation per distinct implementation environment,
        # shared across all five models without even consulting the
        # cache again.
        assert stats["memory_misses"] == 2     # LP64 + CHERI128
        assert stats["memory_hits"] == 0
        run_many(self.SRC)              # warm: both impls cache-hit
        stats = counters()
        assert stats["memory_misses"] == 2
        assert stats["memory_hits"] == 2

    def test_run_many_model_subset(self):
        many = run_many(self.SRC, models=["gcc", "concrete"])
        assert list(many) == ["gcc", "concrete"]

    def test_explore_many_matches_explore_c(self):
        src = r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); return 0; }'''
        many = explore_many(src, models=["concrete", "provenance"])
        for model, res in many.items():
            solo = explore_c(src, model=model)
            assert res.paths_run == solo.paths_run
            assert res.behaviours() == solo.behaviours()
            assert {o.stdout for o in res.distinct()} == {"ab", "ba"}

    def test_suite_sweep_matches_per_model_suites(self):
        from repro.testsuite import TESTS, run_suite, run_suite_many
        names = sorted(TESTS)[:6]
        sweep = run_suite_many(["concrete", "strict"], names=names)
        singles = [r for model in ["concrete", "strict"]
                   for r in run_suite(model, names=names).results]
        sweep_key = {(r.name, r.model): r.verdict
                     for r in sweep.results}
        single_key = {(r.name, r.model): r.verdict for r in singles}
        assert sweep_key == single_key


class TestMainResult:
    """A ``main`` whose result is not an integer — ``void main``, or
    an unspecified ``int`` under the models that read it as such —
    exits 0 on both back ends, in one run and under ``--models
    all``, instead of ending in a Python exception."""

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("source, models", [
        ("void main(void){}\n", list(MODELS)),
        ("int main(void){ int x; return x; }\n",
         ["provenance", "cheri", "gcc"]),
    ], ids=["void_main", "unspecified_result"])
    def test_exits_zero(self, tmp_path, capsys, source, models,
                        backend):
        path = tmp_path / "p.c"
        path.write_text(source)
        assert cli_main([str(path), "--backend", backend]) == 0
        cli_main([str(path), "--models", "all", "--backend", backend])
        lines = dict(line.split(None, 1)
                     for line in capsys.readouterr().out.splitlines())
        assert len(lines) == len(MODELS)
        for model in models:
            assert lines[model] == "exit=0 stdout=''", model


class TestModelImplementation:
    """A single-model run compiles for its model as ``--models`` does:
    cheri upgrades LP64 to CHERI128 (16-byte pointers), an explicit
    ``--impl ILP32`` wins, and the other models keep the ``--impl``
    sizes; ``--pp-core`` prints the Core that ``--model`` runs."""

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("impl, size, cheri",
                             [("LP64", 8, 16), ("ILP32", 4, 4)])
    def test_model_and_models_agree(self, tmp_path, capsys, backend,
                                    impl, size, cheri):
        path = tmp_path / "p.c"
        path.write_text("int main(void){ return (int)sizeof(void*); }\n")
        flags = ["--impl", impl, "--backend", backend]
        cli_main([str(path), "--models", "all", *flags])
        lines = dict(line.split(None, 1)
                     for line in capsys.readouterr().out.splitlines())
        for model in MODELS:
            want = cheri if model == "cheri" else size
            assert cli_main([str(path), "--model", model, *flags]) \
                == want, model
            assert lines[model] == f"exit={want} stdout=''", model
        cli_main([str(path), "--model", "cheri", "--pp-core", *flags])
        assert f"Specified({cheri})" in capsys.readouterr().out


class TestCli:
    def _write(self, tmp_path, source):
        f = tmp_path / "prog.c"
        f.write_text(source)
        return str(f)

    def test_run_ok(self, tmp_path, capsys):
        path = self._write(tmp_path,
                           '#include <stdio.h>\n'
                           'int main(void){ printf("hi\\n"); '
                           'return 0; }')
        code = cli_main([path])
        assert code == 0
        assert capsys.readouterr().out == "hi\n"

    def test_exit_code_propagates(self, tmp_path):
        path = self._write(tmp_path, "int main(void){ return 5; }")
        assert cli_main([path]) == 5

    def test_ub_reported(self, tmp_path, capsys):
        path = self._write(tmp_path,
                           "int main(void){ int x = 2147483647; "
                           "return x + 1; }")
        code = cli_main([path])
        assert code == 1
        assert "Exceptional_condition" in capsys.readouterr().err

    def test_static_error_reported(self, tmp_path, capsys):
        path = self._write(tmp_path, "int main(void){ return y; }")
        assert cli_main([path]) == 2
        err = capsys.readouterr().err
        # the failed task's text: the exception named, as --models
        assert err.startswith("cerberus-py: DesugarError: ")
        assert "desugaring" in err

    def test_pp_core(self, tmp_path, capsys):
        path = self._write(tmp_path, "int main(void){ return 1 << 2; }")
        assert cli_main([path, "--pp-core"]) == 0
        out = capsys.readouterr().out
        assert "proc main" in out

    def test_exhaustive_mode(self, tmp_path, capsys):
        path = self._write(tmp_path, r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); return 0; }''')
        code = cli_main([path, "--exhaustive", "--max-paths", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "executions explored" in out
        assert "ab" in out and "ba" in out

    def test_exhaustive_strategy_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); return 0; }''')
        for strategy in ("dfs", "bfs", "random", "coverage"):
            code = cli_main([path, "--exhaustive", "--max-paths",
                             "300", "--strategy", strategy,
                             "--seed", "3"])
            assert code == 0
            out = capsys.readouterr().out
            assert "ab" in out and "ba" in out, strategy

    def test_exhaustive_por_flag(self, tmp_path, capsys):
        path = self._write(tmp_path,
                           "int a, b; int main(void)"
                           "{ (a=1)+(b=2); return a+b-3; }")
        assert cli_main([path, "--exhaustive"]) == 0
        base = capsys.readouterr().out
        assert cli_main([path, "--exhaustive", "--por"]) == 0
        por = capsys.readouterr().out
        assert "pruned" in por and "pruned" not in base
        assert "exit=0" in por

    def test_exhaustive_explore_jobs(self, tmp_path, capsys):
        # --jobs shards a single-model exploration across the workers.
        path = self._write(tmp_path,
                           "int a, b; int main(void)"
                           "{ (a=1)+(b=2); return a+b-3; }")
        code = cli_main([path, "--exhaustive", "--jobs", "2",
                         "--max-paths", "5000", "--metrics"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "executions explored: 576 (complete)" in out
        assert "farm.shards = " in err

    def test_model_flag(self, tmp_path):
        path = self._write(tmp_path, r'''
int main(void) {
    unsigned int x;
    unsigned int y = x;  /* uninit read: UB under strict only */
    return 0;
}''')
        assert cli_main([path, "--model", "concrete"]) == 0
        assert cli_main([path, "--model", "strict"]) == 1

    def test_missing_file(self, capsys):
        assert cli_main(["/nonexistent/prog.c"]) == 2

    def test_models_batch_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, r'''
int main(void) {
    unsigned int x;
    unsigned int y = x;  /* uninit read: UB under strict only */
    return 0;
}''')
        code = cli_main([path, "--models", "concrete,strict"])
        out = capsys.readouterr().out
        assert code == 1                      # strict flags UB
        assert "concrete" in out and "strict" in out
        assert "Read_uninitialised" in out
        assert cli_main([path, "--models", "concrete,gcc"]) == 0

    def test_models_batch_exit_codes(self, tmp_path, capsys):
        slow = self._write(tmp_path,
                           "int main(void){ while (1) ; return 0; }")
        code = cli_main([slow, "--models", "concrete,gcc",
                         "--max-steps", "5000"])
        capsys.readouterr()
        assert code == 3                      # timeout, as single mode
        pp = self._write(tmp_path, "int main(void){ return 1 << 2; }")
        code = cli_main([pp, "--models", "all", "--pp-core"])
        out = capsys.readouterr().out
        assert code == 0                      # --pp-core wins
        assert "proc main" in out

    @pytest.mark.parametrize("source, flags", [
        ("void main(void){}\n", []),
        ("int main(void){ int x = 2147483647; return x + 1; }\n", []),
        # two behaviours: f and g both write x, unsequenced
        ("#include <stdio.h>\nint x;\n"
         "int f(void){ x = 1; return 0; }\n"
         "int g(void){ x = 2; return 0; }\n"
         "int main(void){ int y = f() + g(); printf(\"%d\\n\", x);"
         " return y; }\n", ["--exhaustive"]),
    ])
    def test_models_lines_identical_at_any_jobs(self, tmp_path, capsys,
                                                source, flags):
        # --models is one farm task per model at any --jobs: the same
        # lines and exit code in-process and across workers.
        path = self._write(tmp_path, source)
        runs = []
        for jobs in ("1", "2"):
            code = cli_main([path, "--models", "concrete,strict",
                             "--jobs", jobs, *flags])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert len(runs[0][1].splitlines()) == 2
        if flags:
            assert "exit=0 stdout='1\\n' | exit=0 stdout='2\\n'" \
                in runs[0][1]

    def test_models_all_and_unknown(self, tmp_path, capsys):
        path = self._write(tmp_path,
                           "int main(void){ return 0; }")
        assert cli_main([path, "--models", "all"]) == 0
        out = capsys.readouterr().out
        assert all(m in out for m in MODELS)
        assert cli_main([path, "--models", "nope"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestSingleModelTask:
    """A single-model run is a one-model batch through ``run_tasks``
    -> ``execute_task``: a program that raises is a classified failure
    — ``cerberus-py: <error>``, exit 2, no traceback — in run mode and
    exhaustive mode alike, as ``--models`` reports it."""

    PROBES = {
        "printf-n": ('#include <stdio.h>\nint main(void){ int n = 0; '
                     'printf("ab%n\\n", &n); return n; }\n', "%n"),
        "printf-Lf": ('#include <stdio.h>\nint main(void){ long double '
                      'x = 1.5L; printf("%Lf\\n", x); return 0; }\n',
                      "%L"),
    }

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("mode", [[], ["--exhaustive", "--jobs", "1"]],
                             ids=["run", "exhaustive"])
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_a_raising_program_is_a_classified_failure(
            self, tmp_path, capsys, probe, mode, backend):
        source, conversion = self.PROBES[probe]
        path = tmp_path / "p.c"
        path.write_text(source)
        assert cli_main([str(path), "--model", "concrete",
                         "--backend", backend, *mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cerberus-py: InternalError: "), err
        assert f"unsupported conversion {conversion}" in err
        assert "Traceback" not in err
        cli_main([str(path), "--models", "concrete",
                  "--backend", backend, *mode])
        line = capsys.readouterr().out
        assert line == f"concrete     error: {err[len('cerberus-py: '):]}"

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    def test_a_raising_shard_fails_as_a_serial_run(self, tmp_path,
                                                   capsys, backend):
        # Only paths where f wrote x last reach the %n printf: at
        # --jobs 2 one of them runs in a shard, whose error is the
        # exploration's, as at --jobs 1.
        path = tmp_path / "p.c"
        path.write_text(
            "#include <stdio.h>\nint x;\n"
            "int f(void){ x = 1; return 0; }\n"
            "int g(void){ x = 2; return 0; }\n"
            "int h(void){ return 0; }\n"
            "int main(void){ int n; int y = f() + g();"
            " int z = h() + h() + h();"
            " if (x == 1) printf(\"%n\", &n); return y + z; }\n")
        runs = []
        for jobs in ("1", "2"):
            code = cli_main([str(path), "--model", "concrete",
                             "--exhaustive", "--backend", backend,
                             "--jobs", jobs])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, out) == (2, "")
        assert err.startswith("cerberus-py: InternalError: ")
        assert err.endswith("unsupported conversion %n\n")

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    def test_one_line_per_behaviour(self, tmp_path, capsys, backend):
        # Two timeouts told apart by their stdout are two behaviours,
        # and list as two lines.
        path = tmp_path / "p.c"
        path.write_text(
            "#include <stdio.h>\n"
            "int f(void){ putchar('a'); return 0; }\n"
            "int g(void){ putchar('b'); return 0; }\n"
            "int main(void){ f() + g(); for(;;); }\n")
        flags = ["--exhaustive", "--max-steps", "3000", "--backend",
                 backend]
        assert cli_main([str(path), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  timeout stdout='ab'", "  timeout stdout='ba'"]
        assert cli_main([str(path), "--models", "concrete,strict",
                         *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{model:12s}    8 paths  timeout stdout='ab' | "
            "timeout stdout='ba'" for model in ("concrete", "strict")]

    def test_exhaustive_listing_identical_at_any_jobs(self, tmp_path,
                                                      capsys):
        # --jobs 1 runs one explore task, --jobs 2 shards the frontier
        # (explore_farm): one listing, behaviours sorted.
        path = tmp_path / "p.c"
        path.write_text("#include <stdio.h>\nint x;\n"
                        "int f(void){ x = 1; return 0; }\n"
                        "int g(void){ x = 2; return 0; }\n"
                        "int main(void){ int y = f() + g();"
                        " printf(\"%d\\n\", x); return y; }\n")
        runs = []
        for jobs in ("1", "2"):
            code = cli_main([str(path), "--exhaustive", "--jobs", jobs])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("executions explored: ")
        assert lines[0].endswith(" (complete)")
        assert lines[1:] == ["  exit=0 stdout='1\\n'",
                             "  exit=0 stdout='2\\n'"]


class TestUnspecifiedOptions:
    """§2.4/§2.5: the uninit and padding semantic options diverge
    observably — the E15 experiment's core claims."""

    UNINIT = r'''
#include <stdio.h>
int main(void) {
    unsigned int x;
    unsigned int a = x, b = x;
    printf("%d\n", a == b);
    return 0;
}'''

    def test_option_stable_vs_ub(self):
        from repro.memory.base import MemoryOptions
        stable = run_c(self.UNINIT, model="concrete")
        assert stable.stdout == "1\n"   # option (4): stable
        strict = run_c(self.UNINIT, model="strict")
        assert strict.status == "ub"    # option (1): UB

    PADDING = r'''
#include <stdio.h>
#include <string.h>
struct padded { char c; int i; };
int main(void) {
    struct padded s;
    memset(&s, 0, sizeof(s));
    unsigned char *bytes = (unsigned char *)&s;
    s.c = 'x';
    printf("%d\n", bytes[1]);
    return 0;
}'''

    def test_padding_keep_vs_unspec(self):
        from repro.memory.base import MemoryOptions
        keep = run_c(self.PADDING, model="concrete")
        assert keep.stdout == "0\n"     # option (4): untouched
        opts = MemoryOptions(uninit_read="stable",
                             padding_on_member_store="zero")
        zero = run_c(self.PADDING, model="concrete", options=opts)
        assert zero.stdout == "0\n"     # option (3): zeroed
        opts2 = MemoryOptions(uninit_read="unspecified",
                              padding_on_member_store="unspec")
        unspec = run_c(self.PADDING, model="concrete", options=opts2)
        assert unspec.stdout == "<unspec>\n"  # option (2)
