"""Executable semantic test cases for the design-space questions
(paper §2: "a suite of semantic test cases ... gathered experimental
data from multiple implementations").

Each :class:`TestCase` carries the C source and the *expected verdict
per memory model*, expressed as one of:

* ``"ok"`` — terminates normally (any stdout);
* ``"ok:<text>"`` — terminates normally with exactly this stdout;
* ``"ub"`` — some undefined behaviour is flagged;
* ``"ub:<Name>"`` — that specific undefined behaviour;
* ``"either"`` — both behaviours are allowed (nondeterministic
  questions like Q2).

The model keys are "concrete", "provenance" (the candidate de facto
model), "strict" (the strict ISO-leaning model) and optionally "cheri".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class TestCase:
    name: str
    questions: Tuple[str, ...]
    source: str
    expect: Dict[str, str]
    # Features used, consulted by the KCC persona's supported() check.
    features: Tuple[str, ...] = ()
    exhaustive: bool = False   # needs exploration (nondeterminism)


TESTS: Dict[str, TestCase] = {}


def _add(name: str, questions, source: str, expect: Dict[str, str],
         features=(), exhaustive=False) -> None:
    TESTS[name] = TestCase(name, tuple(questions), source, expect,
                           tuple(features), exhaustive)


# ---------------------------------------------------------------------------
# Pointer provenance basics (Q1, Q17) — the DR260 example, §2.1
# ---------------------------------------------------------------------------

_add("provenance_basic_global_yx", ["Q1", "Q17"], r"""
#include <stdio.h>
#include <string.h>
int y=2, x=1;
int main() {
  int *p = &x + 1;
  int *q = &y;
  printf("Addresses: p=%p q=%p\n",(void*)p,(void*)q);
  if (memcmp(&p, &q, sizeof(p)) == 0) {
    *p = 11; // does this have undefined behaviour?
    printf("x=%d y=%d *p=%d *q=%d\n",x,y,*p,*q);
  }
  return 0;
}
""", {"concrete": "ok", "provenance": "ub:Access_wrong_provenance",
      "strict": "ub"}, features=("memcmp", "ptr-bytes"))

_add("provenance_equality_adjacent", ["Q3", "Q23"], r"""
#include <stdio.h>
int y = 2, x = 1;
int main(void) {
  int *p = &x + 1;
  int *q = &y;
  if ((char*)p == (char*)q) printf("equal\n");
  else printf("unequal\n");
  return 0;
}
""", {"concrete": "ok", "provenance": "ok", "strict": "ok"},
    features=("one-past",))

_add("provenance_equality_gcc", ["Q2"], r"""
#include <stdio.h>
int y = 2, x = 1;
int main(void) {
  int *p = &x + 1;
  int *q = &y;
  if (p == q) printf("eq\n"); else printf("neq\n");
  return 0;
}
""", {"concrete": "ok:eq\n", "provenance": "ok:eq\n", "gcc": "either",
      "strict": "ok"}, features=("one-past",), exhaustive=True)

# ---------------------------------------------------------------------------
# Provenance via integers (Q5-Q8)
# ---------------------------------------------------------------------------

_add("int_cast_roundtrip", ["Q5", "Q6"], r"""
#include <stdio.h>
#include <stdint.h>
int main(void) {
  int x = 7;
  uintptr_t i = (uintptr_t)&x;
  int *p = (int *)i;
  *p = 8;
  printf("%d\n", x);
  return 0;
}
""", {"concrete": "ok:8\n", "provenance": "ok:8\n", "strict": "ok",
      "cheri": "ok:8\n"}, features=("intptr",))

_add("tag_bits_roundtrip", ["Q7"], r"""
#include <stdio.h>
#include <stdint.h>
int main(void) {
  int x = 5;
  uintptr_t i = (uintptr_t)&x;
  i = i | 1;           /* stash a tag bit (alignment spare) */
  i = i & ~(uintptr_t)1;
  int *p = (int *)i;
  printf("%d\n", *p);
  return 0;
}
""", {"concrete": "ok:5\n", "provenance": "ok:5\n", "strict": "ok"},
    features=("intptr", "bit-stash"))

_add("fabricated_pointer", ["Q8"], r"""
#include <stdio.h>
int main(void) {
  int *p = (int *)0xdead0;   /* no object lives here */
  *p = 1;
  return 0;
}
""", {"concrete": "ub", "provenance": "ub", "strict": "ub"},
    features=("wild-int",))

# ---------------------------------------------------------------------------
# Multiple provenances (Q9): the per-CPU-variable idiom
# ---------------------------------------------------------------------------

_add("inter_object_offset", ["Q9"], r"""
#include <stdio.h>
#include <stdint.h>
int a = 10, b = 20;
int main(void) {
  intptr_t off = (intptr_t)&b - (intptr_t)&a;  /* inter-object offset */
  int *p = (int *)((intptr_t)&a + off);        /* reconstruct &b */
  *p = 30;                                     /* Linux per-CPU idiom */
  printf("b=%d\n", b);
  return 0;
}
""", {"concrete": "ok:b=30\n", "provenance": "ub", "strict": "ub"},
    features=("intptr", "inter-object"))

# ---------------------------------------------------------------------------
# Representation copying (Q13, Q14) — §2.3
# ---------------------------------------------------------------------------

_add("ptr_copy_memcpy", ["Q13"], r"""
#include <stdio.h>
#include <string.h>
int main(void) {
  int x = 9;
  int *p = &x, *q;
  memcpy(&q, &p, sizeof(p));
  *q = 10;
  printf("%d\n", x);
  return 0;
}
""", {"concrete": "ok:10\n", "provenance": "ok:10\n", "strict": "ok"},
    features=("ptr-bytes",))

_add("ptr_copy_userbytes", ["Q14"], r"""
#include <stdio.h>
int main(void) {
  int x = 3;
  int *p = &x, *q;
  unsigned char *src = (unsigned char *)&p;
  unsigned char *dst = (unsigned char *)&q;
  for (unsigned i = 0; i < sizeof(p); i++) dst[i] = src[i];
  *q = 4;                     /* Windows /GS-cookie-style copy */
  printf("%d\n", x);
  return 0;
}
""", {"concrete": "ok:4\n", "provenance": "ok:4\n", "strict": "ok"},
    features=("ptr-bytes",))

# ---------------------------------------------------------------------------
# Union punning (Q19, Q20)
# ---------------------------------------------------------------------------

_add("union_pun_pointer", ["Q19"], r"""
#include <stdio.h>
#include <stdint.h>
union u { int *p; uintptr_t i; };
int main(void) {
  int x = 1;
  union u v;
  v.p = &x;
  uintptr_t i = v.i;          /* read the other member */
  union u w;
  w.i = i;
  *w.p = 2;
  printf("%d\n", x);
  return 0;
}
""", {"concrete": "ok:2\n", "provenance": "ok:2\n", "strict": "ok"},
    features=("union-pun", "intptr"))

_add("union_pun_int", ["Q20"], r"""
#include <stdio.h>
union u { unsigned int i; unsigned char c[4]; };
int main(void) {
  union u v;
  v.i = 0x01020304u;
  printf("%u %u %u %u\n", v.c[0], v.c[1], v.c[2], v.c[3]);
  return 0;
}
""", {"concrete": "ok:4 3 2 1\n", "provenance": "ok:4 3 2 1\n",
      "strict": "ok"}, features=("union-pun",))

# ---------------------------------------------------------------------------
# Equality / relational comparison (Q25) — §2.1
# ---------------------------------------------------------------------------

_add("relational_cross_object", ["Q25", "Q26"], r"""
#include <stdio.h>
int a, b;
int main(void) {
  /* global lock ordering idiom */
  if (&a < &b) printf("a-first\n");
  else printf("b-first\n");
  return 0;
}
""", {"concrete": "ok", "provenance": "ok",
      "strict": "ub:Relational_distinct_objects"},
    features=("cross-relational",))

# ---------------------------------------------------------------------------
# Null pointers (Q28, Q30)
# ---------------------------------------------------------------------------

_add("null_representation", ["Q28"], r"""
#include <stdio.h>
#include <string.h>
int main(void) {
  int *p = 0;
  unsigned char bytes[sizeof(p)];
  memcpy(bytes, &p, sizeof(p));
  int zero = 1;
  for (unsigned i = 0; i < sizeof(p); i++)
    if (bytes[i] != 0) zero = 0;
  printf("all-zero=%d\n", zero);
  return 0;
}
""", {"concrete": "ok:all-zero=1\n", "provenance": "ok:all-zero=1\n",
      "strict": "ok"}, features=("ptr-bytes",))

_add("null_deref", ["Q30"], r"""
int main(void) { int *p = 0; return *p; }
""", {"concrete": "ub:Null_pointer_dereference",
      "provenance": "ub:Null_pointer_dereference",
      "strict": "ub:Null_pointer_dereference"})

# ---------------------------------------------------------------------------
# Pointer arithmetic (Q31, Q34, Q36) — §2.2
# ---------------------------------------------------------------------------

_add("oob_transient", ["Q31", "Q34"], r"""
#include <stdio.h>
int main(void) {
  int a[4] = {1,2,3,4};
  int *p = a + 7;      /* transiently out of bounds */
  p = p - 5;           /* back in bounds */
  printf("%d\n", *p);  /* a[2] */
  return 0;
}
""", {"concrete": "ok:3\n", "provenance": "ok:3\n",
      "strict": "ub:Out_of_bounds_pointer_arithmetic",
      "cheri": "ok:3\n"}, features=("oob",))

_add("deref_addrof_noop", ["Q36"], r"""
#include <stdio.h>
int main(void) {
  int a[2] = {1, 2};
  int *end = &a[2];          /* one-past: no access */
  int *p = &*end;            /* &* is a no-op */
  printf("%d\n", (int)(p - a));
  return 0;
}
""", {"concrete": "ok:2\n", "provenance": "ok:2\n", "strict": "ok"})

# ---------------------------------------------------------------------------
# Struct/union relations (Q39, Q42)
# ---------------------------------------------------------------------------

_add("first_member_cast", ["Q39"], r"""
#include <stdio.h>
struct s { int head; int tail; };
int main(void) {
  struct s v = { 5, 6 };
  int *p = (int *)&v;        /* pointer to first member */
  *p = 7;
  printf("%d %d\n", v.head, v.tail);
  return 0;
}
""", {"concrete": "ok:7 6\n", "provenance": "ok:7 6\n",
      "strict": "ok"})

_add("container_of", ["Q42"], r"""
#include <stdio.h>
#include <stddef.h>
struct outer { int a; int inner; int b; };
int main(void) {
  struct outer o = { 1, 2, 3 };
  int *ip = &o.inner;
  struct outer *back = (struct outer *)
      ((char *)ip - offsetof(struct outer, inner));
  printf("%d %d %d\n", back->a, back->inner, back->b);
  return 0;
}
""", {"concrete": "ok:1 2 3\n", "provenance": "ok:1 2 3\n",
      "strict": "ok"}, features=("container-of",))

# ---------------------------------------------------------------------------
# Lifetime (Q44, Q47)
# ---------------------------------------------------------------------------

_add("dangling_inspect", ["Q44"], r"""
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
int main(void) {
  int *p = malloc(sizeof(int));
  uintptr_t before = (uintptr_t)p;
  free(p);
  uintptr_t after = (uintptr_t)p;   /* inspect dangling value */
  printf("stable=%d\n", before == after);
  return 0;
}
""", {"concrete": "ok:stable=1\n", "provenance": "ok:stable=1\n",
      "strict": "ok:stable=1\n"}, features=("dangling",))

_add("use_after_free", ["Q47"], r"""
#include <stdlib.h>
int main(void) {
  int *p = malloc(sizeof(int));
  *p = 1;
  free(p);
  return *p;
}
""", {"concrete": "ub", "provenance": "ub:Access_dead_object",
      "strict": "ub"}, features=("dangling",))

_add("wild_access", ["Q46"], r"""
int main(void) {
  int a[2] = {0, 0};
  return a[5];
}
""", {"concrete": "ub", "provenance": "ub:Access_wrong_provenance",
      "strict": "ub"})

# ---------------------------------------------------------------------------
# Unspecified values (Q43, Q48-Q50, Q54, Q56) — §2.4
# ---------------------------------------------------------------------------

_add("uninit_read", ["Q48"], r"""
#include <stdio.h>
int main(void) {
  unsigned int x;      /* never initialised */
  unsigned int y = x;  /* copy it */
  printf("copied\n");
  return 0;
}
""", {"concrete": "ok:copied\n", "provenance": "ok:copied\n",
      "strict": "ub:Read_uninitialised"}, features=("uninit",))

_add("unspec_propagation", ["Q43"], r"""
#include <stdio.h>
int main(void) {
  unsigned int x;
  unsigned int y = x + 1;   /* unspecified propagates (unsigned) */
  printf("%u\n", y);
  return 0;
}
""", {"concrete": "ok", "provenance": "ok:<unspec>\n",
      "strict": "ub:Read_uninitialised"}, features=("uninit",))

_add("unspec_to_library", ["Q49"], r"""
#include <stdio.h>
int main(void) {
  unsigned int x;
  printf("%u\n", x);   /* unspecified straight into printf */
  return 0;
}
""", {"concrete": "ok", "provenance": "ok:<unspec>\n",
      "strict": "ub:Read_uninitialised"}, features=("uninit",))

_add("unspec_control_flow", ["Q50"], r"""
int main(void) {
  unsigned int x;
  if (x) return 1;     /* control-flow choice on unspecified */
  return 0;
}
""", {"concrete": "ok", "provenance":
      "ub:Unspecified_value_control_flow",
      "strict": "ub:Read_uninitialised"}, features=("uninit",))

_add("copy_partial_struct", ["Q54"], r"""
#include <stdio.h>
struct pair { int a; int b; };
int main(void) {
  struct pair p;
  p.a = 1;             /* p.b stays uninitialised */
  struct pair q = p;   /* copying partially-initialised struct */
  printf("%d\n", q.a);
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ok:1\n",
      "strict": "ok:1\n"}, features=("uninit",))

_add("uninit_stability", ["Q56"], r"""
#include <stdio.h>
int main(void) {
  unsigned int x;
  unsigned int a = x, b = x;
  printf("%d\n", a == b);   /* stable? (§2.4 options 3 vs 4) */
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ub",
      "strict": "ub:Read_uninitialised"}, features=("uninit",),
    exhaustive=False)

# ---------------------------------------------------------------------------
# Padding (Q60-Q63) — §2.5
# ---------------------------------------------------------------------------

_PADDING_DECL = r"""
#include <stdio.h>
#include <string.h>
struct padded { char c; /* 3 bytes padding */ int i; };
"""

_add("padding_persistence", ["Q60"], _PADDING_DECL + r"""
int main(void) {
  struct padded s;
  unsigned char *bytes = (unsigned char *)&s;
  bytes[1] = 0xAB;           /* write a padding byte */
  s.c = 'x';                 /* member store */
  printf("pad=%x\n", bytes[1]);
  return 0;
}
""", {"concrete": "ok:pad=ab\n", "provenance": "ok:pad=ab\n",
      "strict": "ok"}, features=("padding",))

_add("padding_member_store", ["Q61"], _PADDING_DECL + r"""
int main(void) {
  struct padded s;
  memset(&s, 0, sizeof(s));
  s.c = 'x';                 /* does this clobber padding? */
  unsigned char *bytes = (unsigned char *)&s;
  printf("pad=%d\n", bytes[1]);
  return 0;
}
""", {"concrete": "ok:pad=0\n", "provenance": "ok:pad=0\n",
      "strict": "ok"}, features=("padding",))

_add("padding_struct_assign", ["Q62"], _PADDING_DECL + r"""
int main(void) {
  struct padded a, b;
  memset(&a, 0xFF, sizeof(a));
  a.c = 1; a.i = 2;
  b = a;                     /* whole-struct store */
  unsigned char *bytes = (unsigned char *)&b;
  /* padding of b is unspecified after struct assignment */
  printf("c=%d i=%d\n", b.c, b.i);
  return 0;
}
""", {"concrete": "ok:c=1 i=2\n", "provenance": "ok:c=1 i=2\n",
      "strict": "ok"}, features=("padding",))

_add("padding_memset_cas", ["Q63"], _PADDING_DECL + r"""
int main(void) {
  struct padded a, b;
  memset(&a, 0, sizeof(a));
  memset(&b, 0, sizeof(b));
  a.c = 7; a.i = 9; b.c = 7; b.i = 9;
  printf("bitwise-equal=%d\n", memcmp(&a, &b, sizeof(a)) == 0);
  return 0;
}
""", {"concrete": "ok:bitwise-equal=1\n",
      "provenance": "ok:bitwise-equal=1\n", "strict": "ok"},
    features=("padding", "memcmp"))

# ---------------------------------------------------------------------------
# Effective types (Q73, Q75, Q77) — §2.6
# ---------------------------------------------------------------------------

_add("effective_type_basic", ["Q73"], r"""
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  void *m = malloc(8);
  float *f = m;
  *f = 1.0f;                 /* effective type becomes float */
  int *i = m;
  printf("%d\n", *i != 0);   /* int read of float-typed memory */
  return 0;
}
""", {"concrete": "ok", "provenance": "ok",
      "strict": "ub:Effective_type_mismatch"}, features=("tbaa",))

_add("char_array_as_heap", ["Q75"], r"""
#include <stdio.h>
static unsigned char arena[64];
int main(void) {
  int *slot = (int *)arena;   /* use char array as an allocator */
  slot[0] = 11;
  slot[1] = 22;
  printf("%d %d\n", slot[0], slot[1]);
  return 0;
}
""", {"concrete": "ok:11 22\n", "provenance": "ok:11 22\n",
      "strict": "ub:Effective_type_mismatch"}, features=("tbaa",))

_add("effective_type_subobject", ["Q77"], r"""
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  long *l = malloc(sizeof(long));
  *l = 5L;
  int *i = (int *)l;
  printf("%d\n", (int)(*i >= 0));   /* int read of long-typed mem */
  return 0;
}
""", {"concrete": "ok", "provenance": "ok",
      "strict": "ub:Effective_type_mismatch"}, features=("tbaa",))

# ---------------------------------------------------------------------------
# Sequencing / unsequenced races (§5.6)
# ---------------------------------------------------------------------------

_add("unsequenced_race", [], r"""
int main(void) {
  int x = 0;
  int y = (x = 1) + (x = 2);   /* two unsequenced stores */
  return y;
}
""", {"concrete": "ub:Unsequenced_race",
      "provenance": "ub:Unsequenced_race",
      "strict": "ub:Unsequenced_race"})

_add("postfix_self_assign", [], r"""
int main(void) {
  int x = 0;
  x = x++;                     /* classic §6.5p2 example */
  return x;
}
""", {"concrete": "ub:Unsequenced_race",
      "provenance": "ub:Unsequenced_race",
      "strict": "ub:Unsequenced_race"})

# ---------------------------------------------------------------------------
# Signed overflow and shifts (§5.5, Fig. 3)
# ---------------------------------------------------------------------------

_add("signed_overflow", [], r"""
int main(void) {
  int x = 2147483647;
  return x + 1;                /* signed overflow: UB */
}
""", {"concrete": "ub:Exceptional_condition",
      "provenance": "ub:Exceptional_condition",
      "strict": "ub:Exceptional_condition"})

_add("shift_too_large", ["Q52"], r"""
int main(void) {
  int x = 1;
  return x << 33;              /* §6.5.7p3 */
}
""", {"concrete": "ub:Shift_too_large",
      "provenance": "ub:Shift_too_large",
      "strict": "ub:Shift_too_large"})

_add("negative_shift", ["Q52"], r"""
int main(void) {
  int x = 1;
  int n = -1;
  return x << n;
}
""", {"concrete": "ub:Negative_shift",
      "provenance": "ub:Negative_shift",
      "strict": "ub:Negative_shift"})

_add("unsigned_wraparound", [], r"""
#include <stdio.h>
int main(void) {
  unsigned int x = 4294967295u;
  printf("%u\n", x + 1u);      /* defined: wraps to 0 */
  return 0;
}
""", {"concrete": "ok:0\n", "provenance": "ok:0\n",
      "strict": "ok:0\n"})

_add("minus_one_lt_unsigned", [], r"""
#include <stdio.h>
int main(void) {
  printf("%d\n", -1 < (unsigned int)0);  /* §5.5: evaluates to 0 */
  return 0;
}
""", {"concrete": "ok:0\n", "provenance": "ok:0\n",
      "strict": "ok:0\n"})

# ---------------------------------------------------------------------------
# Additional coverage across the question categories
# ---------------------------------------------------------------------------

_add("cond_provenance_choice", ["Q12"], r"""
#include <stdio.h>
int a = 1, b = 2;
int main(void) {
  int flag = 1;
  int *p = flag ? &a : &b;   /* chosen operand's provenance flows */
  *p = 10;
  printf("%d %d\n", a, b);
  return 0;
}
""", {"concrete": "ok:10 2\n", "provenance": "ok:10 2\n",
      "strict": "ok:10 2\n"})

_add("same_array_relational", ["Q27"], r"""
#include <stdio.h>
int main(void) {
  int a[8];
  int *lo = &a[1], *hi = &a[6];
  printf("%d %d\n", lo < hi, hi <= lo);
  return 0;
}
""", {"concrete": "ok:1 0\n", "provenance": "ok:1 0\n",
      "strict": "ok:1 0\n"})

_add("computed_zero_is_null", ["Q29"], r"""
#include <stdio.h>
int main(void) {
  int z = 0;
  int *p = (int *)(z + 0);   /* computed zero converts to null */
  printf("%d\n", p == 0);
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ok:1\n", "strict": "ok"})

_add("one_past_arithmetic", ["Q32"], r"""
#include <stdio.h>
int main(void) {
  int a[4] = {1, 2, 3, 4};
  int *end = a + 4;          /* one past: always permitted */
  int sum = 0;
  for (int *p = a; p != end; p++) sum += *p;
  printf("%d\n", sum);
  return 0;
}
""", {"concrete": "ok:10\n", "provenance": "ok:10\n",
      "strict": "ok:10\n"})

_add("ptr_cast_roundtrip", ["Q37"], r"""
#include <stdio.h>
int main(void) {
  int x = 6;
  void *v = &x;
  char *c = (char *)v;
  int *back = (int *)c;      /* casts preserve address+provenance */
  *back = 7;
  printf("%d\n", x);
  return 0;
}
""", {"concrete": "ok:7\n", "provenance": "ok:7\n",
      "strict": "ok:7\n"})

_add("union_member_overwrite", ["Q57"], r"""
#include <stdio.h>
union u { unsigned int i; unsigned char c[4]; };
int main(void) {
  union u v;
  v.i = 0xAABBCCDDu;
  v.c[0] = 0x11;             /* partial overwrite via other member */
  printf("%x\n", v.i);
  return 0;
}
""", {"concrete": "ok:aabbcc11\n", "provenance": "ok:aabbcc11\n",
      "strict": "ok"}, features=("union-pun",))

_add("padding_byte_read", ["Q64"], r"""
#include <stdio.h>
#include <string.h>
struct padded { char c; int i; };
int main(void) {
  struct padded s;
  memset(&s, 0x5A, sizeof(s));
  unsigned char *bytes = (unsigned char *)&s;
  printf("%x\n", bytes[1]);  /* reading a padding byte via char* */
  return 0;
}
""", {"concrete": "ok:5a\n", "provenance": "ok:5a\n", "strict": "ok"},
    features=("padding",))

_add("calloc_zero_padding", ["Q66"], r"""
#include <stdio.h>
#include <stdlib.h>
struct padded { char c; int i; };
int main(void) {
  struct padded *s = calloc(1, sizeof(struct padded));
  unsigned char *bytes = (unsigned char *)s;
  int zeroed = 1;
  for (unsigned k = 0; k < sizeof(struct padded); k++)
    if (bytes[k] != 0) zeroed = 0;
  printf("%d\n", zeroed);
  free(s);
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ok:1\n",
      "strict": "ok:1\n"}, features=("padding",))

_add("char_access_escapes_tbaa", ["Q74"], r"""
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  int *p = malloc(sizeof(int));
  *p = 0x01020304;
  unsigned char *c = (unsigned char *)p;  /* char access: always ok */
  printf("%d\n", c[0]);
  free(p);
  return 0;
}
""", {"concrete": "ok:4\n", "provenance": "ok:4\n",
      "strict": "ok:4\n"}, features=("tbaa",))

_add("member_after_whole_struct_write", ["Q76"], r"""
#include <stdio.h>
struct s { int a; int b; };
int main(void) {
  struct s v, w = { 7, 8 };
  v = w;                     /* whole-struct write */
  printf("%d\n", v.b);       /* member-typed read */
  return 0;
}
""", {"concrete": "ok:8\n", "provenance": "ok:8\n",
      "strict": "ok:8\n"})

_add("pointer_bytes_stable", ["Q22"], r"""
#include <stdio.h>
#include <string.h>
int main(void) {
  int x = 1;
  int *p = &x;
  unsigned char a[sizeof(p)], b[sizeof(p)];
  memcpy(a, &p, sizeof(p));
  memcpy(b, &p, sizeof(p));  /* two reads of the representation */
  printf("%d\n", memcmp(a, b, sizeof(p)) == 0);
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ok:1\n",
      "strict": "ok:1\n"}, features=("ptr-bytes",))

_add("dangling_equality", ["Q45"], r"""
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  int *p = malloc(sizeof(int));
  int *q = p;
  free(p);
  printf("%d\n", p == q);    /* using (not deref'ing) dangling */
  return 0;
}
""", {"concrete": "ok:1\n", "provenance": "ok:1\n",
      "strict": "ok:1\n"}, features=("dangling",))
