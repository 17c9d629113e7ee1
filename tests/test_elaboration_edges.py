"""Elaboration edge cases: goto restrictions, switch shapes, nested
scopes, initialiser corner cases, conversions."""

import pytest

from repro.errors import UnsupportedError
from repro.pipeline import compile_c, run_c, run_many


class TestGotoRestrictions:
    def test_top_level_labels_fine(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    int n = 0;
top:
    n++;
    if (n < 3) goto top;
    goto done;
    n = 100;
done:
    printf("%d\n", n);
    return 0;
}''')
        assert out.stdout == "3\n"

    def test_nested_label_rejected(self):
        with pytest.raises(UnsupportedError):
            compile_c(r'''
int main(void) {
    goto inner;
    { inner: return 1; }
    return 0;
}''')

    def test_goto_skips_initialiser_object_exists(self, run_ok):
        # §6.2.4: lifetime starts at block entry; the initialiser is
        # skipped but the object exists (uninitialised).
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    goto after;
    int x = 99;     /* skipped */
after:
    x = 5;          /* object exists: lifetime began at block entry */
    printf("%d\n", x);
    return 0;
}''')
        assert out.stdout == "5\n"

    def test_goto_into_loop_body_rejected(self):
        with pytest.raises(UnsupportedError):
            compile_c(r'''
int main(void) {
    goto inside;
    for (int i = 0; i < 3; i++) { inside: i++; }
    return 0;
}''')


class TestSwitchShapes:
    def test_empty_switch(self, run_ok):
        run_ok("int main(void) { switch (1) { } return 0; }")

    def test_switch_no_match_no_default(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    switch (9) { case 1: printf("one\n"); }
    printf("after\n");
    return 0;
}''')
        assert out.stdout == "after\n"

    def test_adjacent_case_labels(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int f(int x) {
    switch (x) { case 1: case 2: case 3: return 10; default: return 20; }
}
int main(void) { printf("%d %d\n", f(2), f(4)); return 0; }''')
        assert out.stdout == "10 20\n"

    def test_declaration_in_switch_body(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    switch (1) {
        case 1: { int local = 7; printf("%d\n", local); break; }
        default: break;
    }
    return 0;
}''')
        assert out.stdout == "7\n"

    def test_case_promotion(self, run_ok):
        # Controlling expression char promotes; case constants
        # converted to the promoted type (§6.8.4.2p5).
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    char c = 'x';
    switch (c) { case 'x': printf("match\n"); break; default: ; }
    return 0;
}''')
        assert out.stdout == "match\n"


class TestScopes:
    def test_shadowing(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int x = 1;
int main(void) {
    int x = 2;
    { int x = 3; printf("%d", x); }
    printf("%d", x);
    { printf("%d", x); }
    printf("\n");
    return 0;
}''')
        assert out.stdout == "322\n"

    def test_sibling_blocks_reuse_names(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    int total = 0;
    { int v = 1; total += v; }
    { int v = 10; total += v; }
    printf("%d\n", total);
    return 0;
}''')
        assert out.stdout == "11\n"

    def test_for_init_scope(self, run_ok):
        # The for-init declaration scopes over the loop only.
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    int i = 100;
    for (int i = 0; i < 3; i++) ;
    printf("%d\n", i);
    return 0;
}''')
        assert out.stdout == "100\n"


class TestScopeOfOwnInitialiser:
    """§6.2.1p7: an identifier's scope begins just after its
    declarator, so its own initialiser can name it."""

    PROGRAMS = [
        # The standard allocation idiom.
        (r'''
#include <stdlib.h>
int main(void) {
    int *p = malloc(4 * sizeof *p);
    if (!p) return 1;
    p[3] = 7;
    int r = p[3];
    free(p);
    return r;
}''', 7),
        (r'''
int main(void) {
    void *p = &p;
    return p == (void *)&p ? 5 : 0;
}''', 5),
        # The inner declaration, not the outer char, is in scope.
        ("char c; int main(void) { long c = sizeof c; return (int)c; }",
         8),
    ]

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("src,code", PROGRAMS,
                             ids=["malloc_sizeof_self", "address_of_self",
                                  "sizeof_shadowing_self"])
    def test_own_initialiser_sees_the_declaration(self, src, code,
                                                  backend):
        outcomes = run_many(src, backend=backend)
        assert len(outcomes) == 5
        for model, out in outcomes.items():
            assert out.status in ("done", "exit"), (model, out)
            assert out.exit_code == code, model


class TestBlockScopeExtern:
    """§6.2.2p4: a block-scope ``extern`` declaration names the
    file-scope object, whether it is defined before or after."""

    PROGRAMS = [
        ("int x = 5; int main(void){ extern int x; return x; }", 5),
        ("int main(void){ extern int y; return y; } int y = 3;", 3),
        # The assignment goes to the file-scope y, the return reads
        # the automatic one.
        ("int main(void){ int y = 1; { extern int y; y = 4; }"
         " return y; } int y;", 1),
    ]

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("src,code", PROGRAMS,
                             ids=["defined_before", "defined_after",
                                  "shadows_automatic"])
    def test_extern_names_the_file_scope_object(self, src, code,
                                                backend):
        outcomes = run_many(src, backend=backend)
        assert len(outcomes) == 5
        for model, out in outcomes.items():
            assert out.status in ("done", "exit"), (model, out)
            assert out.exit_code == code, model


class TestRvalueMember:
    """§6.5.2.3p3: a member of a struct or union rvalue — a call's
    result — is read from a temporary holding the value."""

    PROGRAMS = [
        ("struct S { int x; int y; };\n"
         "struct S mk(void){ struct S s = {1, 2}; return s; }\n"
         "int main(void){ return mk().y; }", 2),
        # a nested member, and three temporaries in one expression
        ("struct In { int z; };\n"
         "struct S { int x; struct In in; int y; };\n"
         "struct S mk(int k){ struct S s = {k, {k}, k - 3}; return s; }\n"
         "int main(void){ return mk(5).y*10 + mk(7).in.z + mk(1).x; }",
         28),
        ("union U { int i; unsigned char c[4]; };\n"
         "union U mk(void){ union U u; u.i = 9; return u; }\n"
         "int main(void){ return mk().i; }", 9),
        # bit-field members load through loadbf
        ("struct B { unsigned a : 3; unsigned b : 5; };\n"
         "struct B mk(void){ struct B s = {5, 17}; return s; }\n"
         "int main(void){ return mk().b + mk().a; }", 22),
    ]

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("src,code", PROGRAMS,
                             ids=["struct", "nested", "union",
                                  "bitfield"])
    def test_member_of_a_call_result(self, src, code, backend):
        outcomes = run_many(src, backend=backend)
        assert len(outcomes) == 5
        for model, out in outcomes.items():
            assert out.status in ("done", "exit"), (model, out)
            assert out.exit_code == code, model


class TestFallingOffTheEnd:
    """§6.9.1p12: using the value of a call whose callee reached its
    ``}`` is undefined; discarding that value is not."""

    NORET = "int f(void){}\n"

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("main", [
        "int main(void){ return f(); }",
        # only the path that reaches } makes the call's value unusable
        "int g(int x){ if (x) return 2; }\n"
        "int main(void){ return g(1) + g(0); }",
    ], ids=["plain", "one-path"])
    def test_using_the_value_is_ub(self, main, backend):
        src = self.NORET + main
        outcomes = run_many(src, backend=backend)
        assert len(outcomes) == 5
        for model, out in outcomes.items():
            assert out.status == "ub", (model, out)
            assert out.ub.name == "Function_no_return_value_used"
            # the site is the call, on main's line
            assert out.loc.line == src.count("\n") + 1, model

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    @pytest.mark.parametrize("main", [
        "int main(void){ f(); return 4; }",
        "int main(void){ (void)f(); return 4; }",
        "int main(void){ int i; for (i = 0; i < 2; f(), i++) f(), f();"
        " return (f(), 4); }",
    ], ids=["statement", "void-cast", "comma-and-for"])
    def test_discarding_the_value_is_defined(self, main, backend):
        outcomes = run_many(self.NORET + main, backend=backend)
        assert len(outcomes) == 5
        for model, out in outcomes.items():
            assert out.status in ("done", "exit"), (model, out)
            assert out.exit_code == 4, model

    @pytest.mark.parametrize("backend", ["compiled", "tree"])
    def test_main_returns_zero_from_its_end(self, backend):
        outcomes = run_many("int main(void){ }", backend=backend)
        assert {out.exit_code for out in outcomes.values()} == {0}


class TestInitialiserEdges:
    def test_partial_array_zeroes_rest(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    int a[5] = { 1, 2 };
    printf("%d %d %d\n", a[1], a[2], a[4]);
    return 0;
}''')
        assert out.stdout == "2 0 0\n"

    def test_designated_gap_zeroed(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    int a[4] = { [2] = 9 };
    printf("%d %d %d %d\n", a[0], a[1], a[2], a[3]);
    return 0;
}''')
        assert out.stdout == "0 0 9 0\n"

    def test_string_shorter_than_array(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    char s[8] = "ab";
    printf("%d %d %d\n", s[1], s[2], s[7]);
    return 0;
}''')
        assert out.stdout == "98 0 0\n"

    def test_nested_designators(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
struct in { int a, b; };
struct out { struct in x; int y; };
int main(void) {
    struct out v = { .x.b = 5, .y = 6 };
    printf("%d %d %d\n", v.x.a, v.x.b, v.y);
    return 0;
}''')
        assert out.stdout == "0 5 6\n"

    def test_init_expr_order_sequenced(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int n = 0;
int next(void) { return ++n; }
int main(void) {
    int a[3] = { next(), next(), next() };
    printf("%d %d %d\n", a[0], a[1], a[2]);
    return 0;
}''')
        assert out.stdout == "1 2 3\n"


class TestConversionEdges:
    def test_bool_conversion_clamps(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
#include <stdbool.h>
int main(void) {
    bool a = 42, b = 0, c = -1;
    printf("%d %d %d\n", a, b, c);
    return 0;
}''')
        assert out.stdout == "1 0 1\n"

    def test_pointer_to_bool(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
#include <stdbool.h>
int main(void) {
    int x;
    bool p = &x, q = (int *)0;
    printf("%d %d\n", p, q);
    return 0;
}''')
        assert out.stdout == "1 0\n"

    def test_double_to_int_truncates(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    printf("%d %d\n", (int)3.9, (int)-3.9);
    return 0;
}''')
        assert out.stdout == "3 -3\n"

    def test_narrowing_assignment(self, run_ok):
        out = run_ok(r'''
#include <stdio.h>
int main(void) {
    unsigned char c = 0x1234;   /* wraps modulo 256 */
    printf("%d\n", c);
    return 0;
}''')
        assert out.stdout == "52\n"

    def test_void_cast_discards(self, run_ok):
        run_ok("int main(void) { (void)42; (void)(1 + 2); return 0; }")
