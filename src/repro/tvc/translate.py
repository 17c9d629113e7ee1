"""The compiler-front-end proxy: Typed Ail -> mini IR.

Supports only the tvc program class of paper §6: a single function
``main`` of type ``int(void)``, no I/O, no calls, ``int`` locals,
assignments, arithmetic, if/while, return. Anything else raises
:class:`TvcUnsupported` — mirroring tvc's "extremely limited" scope.
"""

from __future__ import annotations

import itertools
from typing import Dict

from ..ail import ast as A
from ..ctypes.types import Function, Integer, IntKind
from .minir import IRBlock, IRFunction, IRInstr


class TvcUnsupported(Exception):
    pass


class _Translator:
    def __init__(self) -> None:
        self.fn = IRFunction("main")
        self.current = self.fn.block("entry")
        self.counter = itertools.count(1)
        self.slots: Dict[str, str] = {}   # C symbol -> slot name

    def fresh(self, base: str = "t") -> str:
        return f"{base}{next(self.counter)}"

    def emit(self, instr: IRInstr) -> None:
        self.current.instrs.append(instr)

    def new_block(self, base: str) -> IRBlock:
        return self.fn.block(f"{base}{next(self.counter)}")

    # -- expressions ------------------------------------------------------------

    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.EConv):
            if e.kind == "lvalue":
                slot = self.lvalue_slot(e.operand)
                dest = self.fresh()
                self.emit(IRInstr("load", dest, [slot]))
                return dest
            if e.kind == "assign":
                return self.expr(e.operand)
            raise TvcUnsupported(f"conversion {e.kind}")
        if isinstance(e, A.EConstInt):
            dest = self.fresh()
            self.emit(IRInstr("const", dest, [e.value]))
            return dest
        if isinstance(e, A.EBinary):
            return self.binary(e)
        if isinstance(e, A.EUnary):
            if e.op == "-":
                zero = self.fresh()
                self.emit(IRInstr("const", zero, [0]))
                operand = self.expr(e.operand)
                dest = self.fresh()
                self.emit(IRInstr("sub", dest, [zero, operand]))
                return dest
            if e.op == "+":
                return self.expr(e.operand)
            if e.op == "!":
                operand = self.expr(e.operand)
                zero = self.fresh()
                self.emit(IRInstr("const", zero, [0]))
                dest = self.fresh()
                self.emit(IRInstr("icmp", dest, [operand, zero],
                                  pred="eq"))
                return dest
            raise TvcUnsupported(f"unary {e.op}")
        if isinstance(e, A.EAssign):
            if e.op != "=":
                raise TvcUnsupported("compound assignment")
            value = self.expr(e.rhs)
            slot = self.lvalue_slot(e.lhs)
            self.emit(IRInstr("store", None, [value, slot]))
            return value
        if isinstance(e, A.ECond):
            raise TvcUnsupported("?:")
        raise TvcUnsupported(type(e).__name__)

    def binary(self, e: A.EBinary) -> str:
        ops = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv",
               "%": "srem", "&": "and", "|": "or", "^": "xor",
               "<<": "shl", ">>": "ashr"}
        preds = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                 ">": "sgt", ">=": "sge"}
        if e.op in ops:
            a = self.expr(e.lhs)
            b = self.expr(e.rhs)
            dest = self.fresh()
            self.emit(IRInstr(ops[e.op], dest, [a, b]))
            return dest
        if e.op in preds:
            a = self.expr(e.lhs)
            b = self.expr(e.rhs)
            dest = self.fresh()
            self.emit(IRInstr("icmp", dest, [a, b], pred=preds[e.op]))
            return dest
        raise TvcUnsupported(f"binary {e.op}")

    def lvalue_slot(self, e: A.Expr) -> str:
        if isinstance(e, A.EId):
            slot = self.slots.get(str(e.sym))
            if slot is None:
                raise TvcUnsupported(f"unknown variable {e.sym}")
            return slot
        raise TvcUnsupported("non-variable lvalue")

    # -- statements ---------------------------------------------------------------

    def stmt(self, s: A.Stmt) -> bool:
        """Translate; returns True if the statement always transfers
        control (so the block is terminated)."""
        if isinstance(s, A.SBlock):
            for item in s.items:
                if self.stmt(item):
                    return True
            return False
        if isinstance(s, A.SDecl):
            ty = s.qty.ty
            if not (isinstance(ty, Integer) and ty.kind is IntKind.INT):
                raise TvcUnsupported("non-int local")
            slot = self.fresh("slot")
            self.slots[str(s.sym)] = slot
            self.emit(IRInstr("alloca", slot, []))
            if s.init is not None:
                if not isinstance(s.init, A.InitScalar):
                    raise TvcUnsupported("aggregate init")
                value = self.expr(s.init.expr)
                self.emit(IRInstr("store", None, [value, slot]))
            return False
        if isinstance(s, A.SExpr):
            if s.expr is not None:
                self.expr(s.expr)
            return False
        if isinstance(s, A.SReturn):
            if s.expr is None:
                raise TvcUnsupported("return without value")
            value = self.expr(s.expr)
            self.emit(IRInstr("ret", None, [value]))
            return True
        if isinstance(s, A.SIf):
            cond = self.expr(s.cond)
            then_b = self.new_block("then")
            else_b = self.new_block("else")
            join_b = self.new_block("join")
            self.emit(IRInstr("condbr", None,
                              [cond, then_b.label, else_b.label]))
            self.current = then_b
            done_then = self.stmt(s.then)
            if not done_then:
                self.emit(IRInstr("br", None, [join_b.label]))
            self.current = else_b
            done_else = self.stmt(s.els) if s.els is not None else False
            if not done_else:
                self.emit(IRInstr("br", None, [join_b.label]))
            self.current = join_b
            return False
        if isinstance(s, A.SWhile):
            if s.loc_hint == "do" or s.step is not None:
                raise TvcUnsupported("do/for loop")
            head = self.new_block("head")
            body = self.new_block("body")
            exit_b = self.new_block("exit")
            self.emit(IRInstr("br", None, [head.label]))
            self.current = head
            cond = self.expr(s.cond)
            self.emit(IRInstr("condbr", None,
                              [cond, body.label, exit_b.label]))
            self.current = body
            if not self.stmt(s.body):
                self.emit(IRInstr("br", None, [head.label]))
            self.current = exit_b
            return False
        raise TvcUnsupported(type(s).__name__)


def translate_main(program: A.Program) -> IRFunction:
    """Translate the ``main`` of a Typed Ail program (tvc class)."""
    if program.main is None:
        raise TvcUnsupported("no main")
    if len(program.functions) != \
            len([f for f in program.functions.values()
                 if f.body is None]) + 1:
        raise TvcUnsupported("more than one defined function")
    if any(obj for obj in program.objects):
        raise TvcUnsupported("global objects")
    main = program.functions[program.main]
    fty = main.qty.ty
    assert isinstance(fty, Function)
    if fty.params or not isinstance(fty.ret.ty, Integer):
        raise TvcUnsupported("main must be int(void)")
    tr = _Translator()
    assert main.body is not None
    if not tr.stmt(main.body):
        zero = tr.fresh()
        tr.emit(IRInstr("const", zero, [0]))
        tr.emit(IRInstr("ret", None, [zero]))
    return tr.fn
