"""E9 — Fig. 2: coverage of the Core syntax.

Checks that every construct of the paper's Core grammar exists in our
Core AST (with the save/run re-establishment deviation that the module
docstring of ``repro.core.ast`` documents, and its ``EScope``
addition), and that the elaboration of a feature-rich program
exercises the sequencing constructs.
"""

from repro.core import ast as K, pretty_program
from repro.pipeline import compile_c

FIG2_PURE = {
    "PSym": K.PSym, "PImpl": K.PImpl, "PVal": K.PVal,
    "PUndef": K.PUndef, "PError": K.PError, "PCtor": K.PCtor,
    "PCase": K.PCase, "PArrayShift": K.PArrayShift,
    "PMemberShift": K.PMemberShift, "PNot": K.PNot,
    "PBinop": K.PBinop, "PStruct": K.PStruct, "PUnion": K.PUnion,
    "PCall": K.PCall, "PLet": K.PLet, "PIf": K.PIf,
}
FIG2_EFFECT = {
    "EPure": K.EPure, "EPtrOp": K.EPtrOp, "EAction": K.EAction,
    "ECase": K.ECase, "ELet": K.ELet, "EIf": K.EIf, "ESkip": K.ESkip,
    "EProc": K.EProc, "ECcall": K.ECcall, "EReturn": K.EReturn,
    "EUnseq": K.EUnseq, "EWseq": K.EWseq, "ESseq": K.ESseq,
    "EAtomicSeq": K.EAtomicSeq, "EIndet": K.EIndet,
    "EBound": K.EBound, "ENd": K.ENd, "ESave": K.ESave,
    "ERun": K.ERun, "EPar": K.EPar, "EWait": K.EWait,
}
ACTIONS = ["create", "alloc", "kill", "store", "load", "rmw"]

RICH = r'''
#include <stdio.h>
struct s { int a; int b; };
int f(int x) { return x + 1; }
int main(void) {
    struct s v = { 1, 2 };
    int i = 0, w;
    while (i < 3) { i++; if (i == 2) continue; }
    w = i++ + f(v.a);
    switch (w) { case 4: v.b = 9; break; default: ; }
    printf("%d %d\n", w, v.b);
    return 0;
}
'''


def elaborate_and_render():
    pipe = compile_c(RICH)
    return pretty_program(pipe.core)


def test_e9_core_syntax(benchmark):
    text = benchmark(elaborate_and_render)
    # All Fig. 2 constructs exist as AST classes.
    for name, cls in {**FIG2_PURE, **FIG2_EFFECT}.items():
        assert isinstance(cls, type), name
    # The rich program exercises the key sequencing forms.
    for needle in ("unseq(", "let weak", "let strong", "let atomic",
                   "save", "run", "ccall(", "load(", "store(",
                   "member_shift", "case ", "Specified"):
        assert needle in text, needle
    print("\nFig. 2 Core constructs implemented: "
          f"{len(FIG2_PURE)} pure, {len(FIG2_EFFECT)} effectful, "
          f"{len(ACTIONS)} actions")
    print("sequencing forms exercised by the sample program: "
          "unseq / let weak / let strong / let atomic / save / run")
