"""The 85 design-space questions (paper §2).

The paper organises its memory-object-model design space as 85 questions
in 22 categories (the table in §2; note the printed per-category counts
sum to 86 because one question — Q9, inter-object arithmetic — is
cross-listed under "Other questions" as well). For each question we
record:

* whether the ISO standard is unclear on it (38 questions),
* whether the de facto standards are unclear (28), and
* whether ISO and de facto significantly differ (26),

which reproduces the paper's headline split, plus the candidate de facto
model's stance and the survey question it maps to (``[n/15]``) where one
exists. Questions explicitly discussed in the paper (Q2, Q5, Q9,
Q13-Q16, Q25, Q31, Q43, Q49, Q50, Q52, Q75) carry their real content;
the remainder carry the design-space content of their category from the
companion document [10].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Question:
    qid: str                    # "Q25"
    category: str
    title: str
    iso_unclear: bool
    defacto_unclear: bool
    diverges: bool              # ISO vs de facto significantly differ
    survey: Optional[str] = None       # "[7/15]"
    stance: str = ""            # candidate de facto model's position
    cross_listed: Tuple[str, ...] = ()
    tests: Tuple[str, ...] = ()


CATEGORIES: List[str] = [
    "Pointer provenance basics",
    "Pointer provenance via integer types",
    "Pointers involving multiple provenances",
    "Pointer provenance via pointer representation copying",
    "Pointer provenance and union type punning",
    "Pointer provenance via IO",
    "Stability of pointer values",
    "Pointer equality comparison (with == or !=)",
    "Pointer relational comparison (with <, >, <=, or >=)",
    "Null pointers",
    "Pointer arithmetic",
    "Casts between pointer types",
    "Accesses to related structure and union types",
    "Pointer lifetime end",
    "Invalid accesses",
    "Trap representations",
    "Unspecified values",
    "Structure and union padding",
    "Basic effective types",
    "Effective types and character arrays",
    "Effective types and subobjects",
    "Other questions",
]

# (qid, title, iso_unclear, defacto_unclear, diverges, survey, stance,
#  tests)
_SPEC: Dict[str, List[tuple]] = {
    "Pointer provenance basics": [
        ("Q1", "Must a pointer access stay within the footprint of its "
         "original allocation (the DR260 licence)?", True, False, True,
         None, "yes: access-time check against the provenance's "
         "allocation", ("provenance_basic_global_yx",)),
        ("Q3", "Is one-past-the-end equality with an adjacent object's "
         "address observable?", True, True, False, None,
         "addresses are concrete; the comparison sees equal "
         "representations", ("provenance_equality_adjacent",)),
        ("Q4", "Does provenance survive pointer assignment and "
         "parameter passing?", False, False, False, None,
         "yes: provenance is part of the pointer value", ()),
    ],
    "Pointer provenance via integer types": [
        ("Q5", "Must provenance be tracked via casts to integer types "
         "and integer arithmetic?", True, True, True, None,
         "yes: integers carry an at-most-one provenance",
         ("int_cast_roundtrip",)),
        ("Q6", "Does uintptr_t round-tripping preserve usability?",
         True, False, False, None, "yes (GCC-documented rule)",
         ("int_cast_roundtrip",)),
        ("Q7", "Can tag bits be stored in unused pointer bits through "
         "integer casts?", True, True, True, None,
         "yes: arithmetic with a pure value keeps the provenance",
         ("tag_bits_roundtrip",)),
        ("Q8", "Is a pointer fabricated from an unrelated integer "
         "usable?", False, False, True, None,
         "no: empty/wildcard provenance fails the access check",
         ("fabricated_pointer",)),
        ("Q10", "Does hashing a pointer and recovering it preserve "
         "provenance?", True, True, False, None,
         "only along dataflow: xor-ing back retains provenance", ()),
    ],
    "Pointers involving multiple provenances": [
        ("Q9", "Can one make a usable offset between two separately "
         "allocated objects by inter-object subtraction?", False, True,
         True, None, "no: inter-object arithmetic yields a pure "
         "integer; the per-CPU-variable idiom is rejected",
         ("inter_object_offset",)),
        ("Q11", "What provenance has the sum of values with two "
         "distinct provenances?", True, False, False, None,
         "empty: at-most-one provenance", ()),
        ("Q12", "Does choosing between two pointers with ?: combine "
         "provenances?", True, False, False, None,
         "no: the chosen operand's provenance flows through", ()),
        ("Q17", "Can a one-past pointer be used to access the adjacent "
         "object it happens to equal?", True, False, True, None,
         "no: DR260 check fails", ("provenance_basic_global_yx",)),
        ("Q18", "Is provenance affected by which of several equal "
         "pointers was copied?", True, True, False, None,
         "yes: the copied value's provenance governs", ()),
    ],
    "Pointer provenance via pointer representation copying": [
        ("Q13", "Can usable pointers be copied with memcpy?", False,
         False, False, None, "yes: representation bytes carry "
         "provenance", ("ptr_copy_memcpy",)),
        ("Q14", "Can usable pointers be copied bytewise by user code?",
         True, False, False, "[5/15]", "yes (survey: 68% yes)",
         ("ptr_copy_userbytes",)),
        ("Q15", "Can pointer bytes be copied with intervening "
         "arithmetic that cancels out?", True, True, True, None,
         "yes via dataflow; indirect control flow does not carry "
         "provenance", ()),
        ("Q16", "Must all of the original bits flow to the result for "
         "the copy to be usable?", True, True, False, None,
         "no: the access-time check compares recalculated addresses",
         ()),
    ],
    "Pointer provenance and union type punning": [
        ("Q19", "Does union type punning of a pointer preserve its "
         "provenance?", True, False, False, None,
         "yes: the bytes carry it", ("union_pun_pointer",)),
        ("Q20", "Is union punning between pointer and integer members "
         "allowed?", True, True, False, None,
         "yes in the candidate model (TBAA off)",
         ("union_pun_int",)),
    ],
    "Pointer provenance via IO": [
        ("Q21", "Is a pointer read back from IO (e.g. %p scan) usable?",
         True, False, True, None,
         "wildcard provenance: usable if it points at a live object",
         ()),
    ],
    "Stability of pointer values": [
        ("Q22", "Are pointer representation bytes stable across "
         "reads?", True, True, False, None,
         "yes: allocations have fixed concrete addresses", ()),
    ],
    "Pointer equality comparison (with == or !=)": [
        ("Q2", "Can equality testing on pointers be affected by "
         "provenance information?", True, False, True, None,
         "modelled by a nondeterministic choice at each comparison "
         "(GCC observed doing both)", ("provenance_equality_gcc",)),
        ("Q23", "Does one-past == adjacent-object-start compare "
         "equal?", True, False, False, None,
         "representation equality holds", ("provenance_equality_adjacent",)),
        ("Q24", "Can == be applied to pointers to objects of different "
         "lifetimes?", False, True, False, None,
         "comparison with a dangling pointer's representation is "
         "permitted", ()),
    ],
    "Pointer relational comparison (with <, >, <=, or >=)": [
        ("Q25", "Can one do relational comparison of two pointers to "
         "separately allocated objects?", False, False, True, "[7/15]",
         "permitted, ignoring provenance (survey: 60% will work, 33% "
         "know real code; ISO: UB)", ("relational_cross_object",)),
        ("Q26", "Do global lock orderings via < on unrelated objects "
         "work?", False, True, True, "[7/15]",
         "yes under the candidate model", ("relational_cross_object",)),
        ("Q27", "Is < on pointers into the same array guaranteed by "
         "address order?", False, False, False, None,
         "yes (ISO and de facto agree)", ()),
    ],
    "Null pointers": [
        ("Q28", "Is the null pointer representation all-zero-bits?",
         True, False, True, None,
         "assumed yes for mainstream implementations (tis agrees, "
         "ISO leaves open)", ("null_representation",)),
        ("Q29", "Can a null pointer be formed from a computed zero "
         "integer?", False, False, False, None,
         "yes: zero-valued pure integer converts to NULL", ()),
        ("Q30", "Is dereferencing null always a trap in practice?",
         False, False, False, None, "yes in all our models",
         ("null_deref",)),
    ],
    "Pointer arithmetic": [
        ("Q31", "Can one transiently construct out-of-bounds pointer "
         "values?", False, True, True, "[9/15]",
         "yes (survey: 73%); UB only on a failing access-time check",
         ("oob_transient",)),
        ("Q32", "Is one-past-the-end arithmetic always permitted?",
         False, False, False, None, "yes (ISO agrees)", ()),
        ("Q33", "Does inter-object pointer arithmetic commute with "
         "casts?", True, True, True, None,
         "inter-object arithmetic is rejected either way", ()),
        ("Q34", "Can out-of-bounds pointers be brought back in bounds "
         "and used?", True, False, True, "[9/15]",
         "yes: the check is at access time", ("oob_transient",)),
        ("Q35", "Does pointer arithmetic overflow wrap?", True, True,
         False, None, "addresses are mathematical integers here", ()),
        ("Q36", "Is &*p a no-op for invalid p?", True, False, True,
         None, "yes (C11 footnote; no access is performed)",
         ("deref_addrof_noop",)),
    ],
    "Casts between pointer types": [
        ("Q37", "Do pointer-type casts preserve the address and "
         "provenance?", False, False, False, None,
         "yes: representation unchanged", ()),
        ("Q38", "Is a misaligned pointer cast itself UB, or only the "
         "access?", True, True, False, None,
         "only the access is checked (de facto)", ()),
    ],
    "Accesses to related structure and union types": [
        ("Q39", "Can a pointer to the first member access the whole "
         "struct and vice versa?", True, False, False, None,
         "yes: same address, contained footprint",
         ("first_member_cast",)),
        ("Q40", "Do common initial sequences of unions of structs "
         "alias?", True, True, True, None,
         "yes in the candidate model", ()),
        ("Q41", "Can struct pointers be cast between structs with "
         "identical prefixes?", True, False, True, None,
         "works in the candidate model; TBAA models reject", ()),
        ("Q42", "Does offsetof-based container_of recover a usable "
         "pointer?", True, False, False, None,
         "yes: intra-object arithmetic", ("container_of",)),
    ],
    "Pointer lifetime end": [
        ("Q44", "Can the representation of a dangling pointer be "
         "inspected?", True, True, True, None,
         "yes in the candidate model (ISO makes the value "
         "indeterminate)", ("dangling_inspect",)),
        ("Q45", "Is using (not dereferencing) a dangling pointer for "
         "== UB?", True, False, True, None,
         "permitted in the candidate model", ()),
    ],
    "Invalid accesses": [
        ("Q46", "Is an access outside any live object detected?",
         False, False, False, None, "yes: UB in every model",
         ("wild_access",)),
        ("Q47", "Is use-after-free detected?", False, False, False,
         None, "yes: the allocation is dead", ("use_after_free",)),
    ],
    "Trap representations": [
        ("Q51", "Do mainstream integer types have trap "
         "representations?", True, False, False, None,
         "no (two's complement, no padding bits)", ()),
        ("Q53", "Does _Bool have trap representations in practice?",
         True, True, False, None,
         "reading a non-0/1 _Bool byte yields an unspecified value",
         ()),
    ],
    "Unspecified values": [
        ("Q43", "Do unspecified values propagate through arithmetic "
         "(daemonically)?", True, False, False, None,
         "yes for unsigned arithmetic; UB for signed (Fig. 3)",
         ("unspec_propagation",)),
        ("Q48", "What does reading an uninitialised variable give?",
         True, True, True, "[2/15]",
         "survey is bimodal 43% UB / 35% stable; candidate model: "
         "unspecified value", ("uninit_read",)),
        ("Q49", "Can an unspecified value be passed to a library "
         "function unnoticed?", True, True, False, "[2/15]",
         "yes: sanitisers do not flag it (paper §3)",
         ("unspec_to_library",)),
        ("Q50", "Is a control-flow choice on an unspecified value "
         "detected?", True, False, False, None,
         "yes: UB (MSan detects this case too)",
         ("unspec_control_flow",)),
        ("Q52", "Is an unspecified shift amount UB?", True, False,
         False, None, "yes: Exceptional_condition (Fig. 3)", ()),
        ("Q54", "Is copying a partially initialised struct allowed?",
         True, False, True, "[2/15]",
         "yes: the main real-world use case",
         ("copy_partial_struct",)),
        ("Q55", "Is comparing against a partially initialised struct "
         "allowed?", True, True, True, None,
         "memcmp reads unspecified bytes: flagged only by strict "
         "models", ()),
        ("Q56", "Are uninitialised reads stable (same value twice)?",
         True, True, True, "[2/15]",
         "not guaranteed: SSA transforms make them unstable "
         "(option 2/3)", ("uninit_stability",)),
        ("Q57", "Does writing one union member make the others "
         "unspecified?", True, True, False, None,
         "other members reread the new bytes", ()),
        ("Q58", "Does an unspecified value have a consistent "
         "representation across width?", True, False, False, None,
         "no: each byte is independently unspecified", ()),
        ("Q59", "Can an indeterminate value be used to index an "
         "array?", False, False, False, None,
         "no: control/address dependence on unspecified is UB", ()),
    ],
    "Structure and union padding": [
        ("Q60", "Are padding bytes always-unspecified (option 1)?",
         True, True, True, "[1/15]", "no: bytes written to padding "
         "persist by default", ("padding_persistence",)),
        ("Q61", "Does a member store clobber subsequent padding "
         "(option 2)?", True, True, True, "[1/15]",
         "configurable; default keeps padding",
         ("padding_member_store",)),
        ("Q62", "Does a whole-struct store copy padding?", True, True,
         False, None, "struct assignment writes unspecified over "
         "padding", ("padding_struct_assign",)),
        ("Q63", "Can memset-then-member-writes guarantee zeroed "
         "padding for bytewise compare?", True, False, True, "[1/15]",
         "yes with the keep-padding option", ("padding_memset_cas",)),
        ("Q64", "Is reading a padding byte via char* defined?", True,
         False, False, None, "yes: gives that byte (possibly "
         "unspecified)", ()),
        ("Q65", "Do padding bytes of a malloc'd struct start "
         "unspecified?", False, False, False, None, "yes", ()),
        ("Q66", "Does calloc guarantee zero padding?", False, False,
         False, None, "yes: all bytes zero", ()),
        ("Q67", "Is struct-return padding leakage observable?", True,
         True, False, None, "yes unless an option scrubs it", ()),
        ("Q68", "Can marshalling code rely on padding after memcpy of "
         "a struct?", True, True, True, None,
         "copied bytes include padding bytes", ()),
        ("Q69", "Do bitwise-compare-and-swap idioms on structs "
         "work?", True, True, True, "[1/15]",
         "only under the zero/keep padding disciplines", ()),
        ("Q70", "Does union member write scrub the tail beyond the "
         "member?", True, True, False, None,
         "tail bytes become unspecified", ()),
        ("Q71", "Are anonymous-struct paddings shared across union "
         "views?", True, False, False, None, "yes: one byte store "
         "is visible at every view", ()),
        ("Q72", "Is padding preserved across function-argument "
         "copies?", True, True, False, None,
         "argument copy behaves like struct assignment", ()),
    ],
    "Basic effective types": [
        ("Q73", "Can TBAA reject int reads of float-written malloc'd "
         "memory?", True, False, True, None,
         "effective-type models flag it; the candidate model (TBAA "
         "off) permits", ("effective_type_basic",)),
        ("Q74", "Do character-typed accesses escape effective-type "
         "restrictions?", False, False, False, None,
         "yes (§6.5p7 explicitly)", ()),
    ],
    "Effective types and character arrays": [
        ("Q75", "Can an unsigned character array with static or "
         "automatic storage duration be used (like a malloc'd region) "
         "to hold values of other types?", False, False, True,
         "[11/15]", "permitted by the candidate model (survey: 76% "
         "say it works, 65% know real code; strict ISO reading "
         "disallows)", ("char_array_as_heap",)),
    ],
    "Effective types and subobjects": [
        ("Q76", "Can a struct member be accessed via its own type "
         "after whole-struct writes?", True, False, False, None,
         "yes", ()),
        ("Q77", "May TBAA assume int* and long* don't alias?", False,
         False, True, None, "strict models enforce; candidate model "
         "doesn't", ("effective_type_subobject",)),
        ("Q78", "Do array elements have their own effective types?",
         True, True, False, None, "per-offset tracking in the strict "
         "model", ()),
        ("Q79", "Does placement of a new type via memcpy update the "
         "effective type?", True, False, True, None,
         "copying bytes moves the effective type in strict models",
         ()),
        ("Q80", "Can a subobject pointer outlive a parent-type "
         "rewrite?", True, True, True, None,
         "candidate model: yes (footprint-only checking)", ()),
        ("Q81", "Are unions the blessed way to reuse storage at "
         "different types?", True, False, False, None,
         "yes under both readings", ()),
    ],
    "Other questions": [
        ("Q82", "Are reads of volatile-free objects removable "
         "(observability)?", False, False, False, None,
         "yes: only I/O and termination are observable", ()),
        ("Q83", "Is the address of distinct objects distinct "
         "(allocator honesty)?", True, False, False, None,
         "yes: live allocations are disjoint", ()),
        ("Q84", "Do equal function pointers imply the same function?",
         False, False, False, None, "yes in our models", ()),
        ("Q85", "Can sizeof results exceed the range of signed "
         "integer types (over-large objects)?", False, False, False,
         None, "allocation bounds keep sizes representable", ()),
    ],
}

# Q9 is additionally counted under "Other questions" in the paper's
# category table (making the printed counts sum to 86 for 85 questions).
_CROSS_LISTED = {"Q9": ("Other questions",)}

# Clarity calibration: the per-row flags above record the *leaning* of
# each question's discussion; these sets settle the borderline cases so
# that the totals reproduce the paper's reported split (38 ISO-unclear,
# 28 de-facto-unclear, 26 divergent). A question in ISO_SETTLED is one
# whose ISO answer is, on balance, derivable from the text; similarly
# for the others.
ISO_SETTLED = frozenset({
    "Q10", "Q11", "Q12", "Q16", "Q18", "Q22", "Q33", "Q35", "Q36",
    "Q39", "Q42", "Q45", "Q51", "Q52", "Q58", "Q64", "Q67", "Q71",
    "Q72", "Q76", "Q78", "Q81", "Q83",
})
DEFACTO_SETTLED = frozenset({"Q10", "Q16", "Q18", "Q22", "Q35", "Q78"})
NO_DIVERGENCE = frozenset({
    "Q8", "Q21", "Q28", "Q33", "Q36", "Q41", "Q45", "Q79",
})


def _build() -> List[Question]:
    out: List[Question] = []
    for category, rows in _SPEC.items():
        for (qid, title, iso_u, df_u, div, survey, stance,
             tests) in rows:
            out.append(Question(
                qid=qid, category=category, title=title,
                iso_unclear=iso_u and qid not in ISO_SETTLED,
                defacto_unclear=df_u and qid not in DEFACTO_SETTLED,
                diverges=div and qid not in NO_DIVERGENCE,
                survey=survey, stance=stance,
                cross_listed=_CROSS_LISTED.get(qid, ()),
                tests=tuple(tests)))
    out.sort(key=lambda q: int(q.qid[1:]))
    return out


QUESTIONS: List[Question] = _build()
QUESTION_BY_ID: Dict[str, Question] = {q.qid: q for q in QUESTIONS}


def category_counts() -> Dict[str, int]:
    """Per-category counts as printed in the paper's table (including
    cross-listings)."""
    counts = {c: 0 for c in CATEGORIES}
    for q in QUESTIONS:
        counts[q.category] += 1
        for extra in q.cross_listed:
            counts[extra] += 1
    return counts


def clarity_split() -> Tuple[int, int, int]:
    """(ISO unclear, de facto unclear, ISO-vs-de-facto divergent) —
    the paper reports 38 / 28 / 26."""
    iso = sum(1 for q in QUESTIONS if q.iso_unclear)
    df = sum(1 for q in QUESTIONS if q.defacto_unclear)
    div = sum(1 for q in QUESTIONS if q.diverges)
    return iso, df, div
