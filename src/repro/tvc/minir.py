"""A small Vellvm-flavoured IR with an independent operational
semantics.

Instructions operate on virtual registers and a set of stack slots
(alloca), in basic blocks ended by branches or ``ret``. Signed 32-bit
arithmetic traps on the same conditions LLVM marks poison/UB (signed
overflow with nsw semantics, division by zero, oversized shifts), so
refinement against Cerberus is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1


class IRTrap(Exception):
    """The IR execution reached undefined behaviour."""


@dataclass
class IRInstr:
    op: str                  # const/add/sub/mul/sdiv/srem/icmp/and/or/
    #                          xor/shl/ashr/alloca/load/store/br/condbr/
    #                          ret
    dest: Optional[str] = None
    args: List[Union[str, int]] = field(default_factory=list)
    pred: Optional[str] = None     # icmp predicate

    def __repr__(self) -> str:
        head = f"%{self.dest} = " if self.dest else ""
        pred = f" {self.pred}" if self.pred else ""
        return f"{head}{self.op}{pred} " + \
            ", ".join(str(a) for a in self.args)


@dataclass
class IRBlock:
    label: str
    instrs: List[IRInstr] = field(default_factory=list)


@dataclass
class IRFunction:
    name: str
    blocks: Dict[str, IRBlock] = field(default_factory=dict)
    entry: str = "entry"

    def block(self, label: str) -> IRBlock:
        if label not in self.blocks:
            self.blocks[label] = IRBlock(label)
        return self.blocks[label]

    def pretty(self) -> str:
        out = [f"define i32 @{self.name}() {{"]
        for block in self.blocks.values():
            out.append(f"{block.label}:")
            for instr in block.instrs:
                out.append(f"  {instr!r}")
        out.append("}")
        return "\n".join(out)


def _wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >= (1 << 31) else v


def run_ir(fn: IRFunction, max_steps: int = 200_000) -> int:
    """Execute; returns the i32 return value. Raises IRTrap on UB."""
    regs: Dict[str, int] = {}
    slots: Dict[str, Optional[int]] = {}
    label = fn.entry
    steps = 0

    def val(x: Union[str, int]) -> int:
        if isinstance(x, int):
            return x
        if x not in regs:
            raise IRTrap(f"use of undefined register %{x}")
        return regs[x]

    while True:
        block = fn.blocks.get(label)
        if block is None:
            raise IRTrap(f"branch to unknown block {label}")
        for instr in block.instrs:
            steps += 1
            if steps > max_steps:
                raise IRTrap("step limit")
            op = instr.op
            if op == "const":
                regs[instr.dest] = _wrap32(val(instr.args[0]))
            elif op in ("add", "sub", "mul"):
                a, b = val(instr.args[0]), val(instr.args[1])
                raw = {"add": a + b, "sub": a - b,
                       "mul": a * b}[op]
                if not (_INT_MIN <= raw <= _INT_MAX):
                    raise IRTrap(f"nsw {op} overflow")
                regs[instr.dest] = raw
            elif op == "sdiv":
                a, b = val(instr.args[0]), val(instr.args[1])
                if b == 0 or (a == _INT_MIN and b == -1):
                    raise IRTrap("sdiv UB")
                q = abs(a) // abs(b)
                regs[instr.dest] = q if (a < 0) == (b < 0) else -q
            elif op == "srem":
                a, b = val(instr.args[0]), val(instr.args[1])
                if b == 0 or (a == _INT_MIN and b == -1):
                    raise IRTrap("srem UB")
                q = abs(a) // abs(b)
                q = q if (a < 0) == (b < 0) else -q
                regs[instr.dest] = a - b * q
            elif op in ("and", "or", "xor"):
                a, b = val(instr.args[0]), val(instr.args[1])
                regs[instr.dest] = _wrap32(
                    {"and": a & b, "or": a | b, "xor": a ^ b}[op])
            elif op in ("shl", "ashr"):
                a, b = val(instr.args[0]), val(instr.args[1])
                if b < 0 or b >= 32:
                    raise IRTrap("shift amount out of range")
                if op == "shl":
                    raw = a << b
                    if not (_INT_MIN <= raw <= _INT_MAX):
                        raise IRTrap("nsw shl overflow")
                    regs[instr.dest] = raw
                else:
                    regs[instr.dest] = a >> b
            elif op == "icmp":
                a, b = val(instr.args[0]), val(instr.args[1])
                table = {"eq": a == b, "ne": a != b, "slt": a < b,
                         "sle": a <= b, "sgt": a > b, "sge": a >= b}
                regs[instr.dest] = int(table[instr.pred])
            elif op == "alloca":
                slots[instr.dest] = None
                regs[instr.dest] = 0  # opaque slot handle
            elif op == "load":
                slot = instr.args[0]
                if slot not in slots:
                    raise IRTrap(f"load from unknown slot {slot}")
                stored = slots[slot]
                if stored is None:
                    raise IRTrap(f"load of uninitialised slot {slot}")
                regs[instr.dest] = stored
            elif op == "store":
                slot = instr.args[1]
                if slot not in slots:
                    raise IRTrap(f"store to unknown slot {slot}")
                slots[slot] = val(instr.args[0])
            elif op == "br":
                label = instr.args[0]
                break
            elif op == "condbr":
                cond = val(instr.args[0])
                label = instr.args[1] if cond else instr.args[2]
                break
            elif op == "ret":
                return val(instr.args[0])
            else:
                raise IRTrap(f"unknown opcode {op}")
        else:
            raise IRTrap(f"block {block.label} falls through")
