"""A Csmith-style random generator of *defined-behaviour* C programs
(paper §6: validation against Csmith tests).

Like Csmith, the generator only emits programs free of undefined and
unspecified behaviour: all arithmetic is unsigned or guarded, shifts are
masked, divisions guarded against zero, array indices reduced modulo the
array length, and loops strictly bounded. Unlike Csmith, it *executes
the program as it generates it* against a Python mirror state, so every
generated program comes with its independently computed expected output
— the role GCC plays in the paper's comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class GeneratedProgram:
    seed: int
    source: str
    expected_stdout: str
    statements: int


class _Gen:
    """Generates statements while mirroring their effect in Python."""

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.size = size
        self.lines: List[str] = []
        self.globals: Dict[str, int] = {}
        self.global_arrays: Dict[str, List[int]] = {}
        self.locals: Dict[str, int] = {}
        self.out: List[str] = []
        self.checksum = 0
        self._tmp = 0

    # -- helpers ------------------------------------------------------------

    def fresh(self, base: str) -> str:
        self._tmp += 1
        return f"{base}{self._tmp}"

    def all_scalars(self) -> List[str]:
        return list(self.globals) + list(self.locals)

    def read(self, name: str) -> int:
        if name in self.locals:
            return self.locals[name]
        return self.globals[name]

    def write(self, name: str, value: int) -> None:
        value &= _MASK32
        if name in self.locals:
            self.locals[name] = value
        else:
            self.globals[name] = value

    # -- expressions -----------------------------------------------------------

    def expr(self, depth: int = 0) -> Tuple[str, int]:
        """Generate an unsigned-int expression; returns (text, value)."""
        rng = self.rng
        choice = rng.random()
        if depth > 3 or choice < 0.25:
            value = rng.randrange(0, 1 << 31)
            return f"{value}u", value
        if choice < 0.5 and self.all_scalars():
            name = rng.choice(self.all_scalars())
            return name, self.read(name)
        if choice < 0.6 and self.global_arrays:
            name = rng.choice(list(self.global_arrays))
            arr = self.global_arrays[name]
            idx_text, idx = self.expr(depth + 1)
            reduced = idx % len(arr)
            return (f"{name}[({idx_text}) % {len(arr)}u]",
                    arr[reduced])
        a_text, a = self.expr(depth + 1)
        b_text, b = self.expr(depth + 1)
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<<", ">>",
                         "/", "%"])
        if op == "+":
            return f"({a_text} + {b_text})", (a + b) & _MASK32
        if op == "-":
            return f"({a_text} - {b_text})", (a - b) & _MASK32
        if op == "*":
            return f"({a_text} * {b_text})", (a * b) & _MASK32
        if op == "&":
            return f"({a_text} & {b_text})", a & b
        if op == "|":
            return f"({a_text} | {b_text})", a | b
        if op == "^":
            return f"({a_text} ^ {b_text})", a ^ b
        if op == "<<":
            return (f"({a_text} << (({b_text}) & 31u))",
                    (a << (b & 31)) & _MASK32)
        if op == ">>":
            return (f"({a_text} >> (({b_text}) & 31u))",
                    a >> (b & 31))
        if op == "/":
            return (f"(({b_text}) != 0u ? ({a_text}) / ({b_text}) "
                    f": 1u)", (a // b) if b else 1)
        return (f"(({b_text}) != 0u ? ({a_text}) % ({b_text}) : "
                f"({a_text}))", (a % b) if b else a)

    def condition(self) -> Tuple[str, bool]:
        a_text, a = self.expr(2)
        b_text, b = self.expr(2)
        op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
        table = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b,
                 "==": a == b, "!=": a != b}
        return f"({a_text}) {op} ({b_text})", table[op]

    # -- statements ---------------------------------------------------------------

    def emit(self, text: str, indent: int) -> None:
        self.lines.append("    " * indent + text)

    def statement(self, indent: int, budget: int) -> int:
        """Generate one statement; returns remaining budget."""
        rng = self.rng
        kind = rng.random()
        if kind < 0.40 or budget <= 1:
            # assignment
            if not self.all_scalars():
                return budget
            name = rng.choice(self.all_scalars())
            text, value = self.expr()
            self.emit(f"{name} = {text};", indent)
            self.write(name, value)
            return budget - 1
        if kind < 0.55 and self.global_arrays:
            name = rng.choice(list(self.global_arrays))
            arr = self.global_arrays[name]
            idx_text, idx = self.expr(2)
            val_text, val = self.expr()
            reduced = idx % len(arr)
            self.emit(f"{name}[({idx_text}) % {len(arr)}u] = "
                      f"{val_text};", indent)
            arr[reduced] = val & _MASK32
            return budget - 1
        if kind < 0.75:
            # if/else: both branches generated; mirror follows the
            # actually-taken branch by re-simulating (we generate the
            # not-taken branch against a scratch copy of the state).
            cond_text, taken = self.condition()
            self.emit(f"if ({cond_text}) {{", indent)
            budget -= 1
            saved = (dict(self.globals),
                     {k: list(v) for k, v in
                      self.global_arrays.items()},
                     dict(self.locals), self.checksum, list(self.out))
            n = rng.randint(1, 2)
            for _ in range(n):
                budget = self.statement(indent + 1, budget)
            then_state = (dict(self.globals),
                          {k: list(v) for k, v in
                           self.global_arrays.items()},
                          dict(self.locals), self.checksum,
                          list(self.out))
            # restore, generate else against real-or-scratch
            (self.globals, self.global_arrays, self.locals,
             self.checksum, self.out) = \
                (dict(saved[0]), {k: list(v) for k, v in
                                  saved[1].items()}, dict(saved[2]),
                 saved[3], list(saved[4]))
            self.emit("} else {", indent)
            for _ in range(rng.randint(1, 2)):
                budget = self.statement(indent + 1, budget)
            self.emit("}", indent)
            if taken:
                (self.globals, self.global_arrays, self.locals,
                 self.checksum, self.out) = \
                    (then_state[0], then_state[1], then_state[2],
                     then_state[3], then_state[4])
            return budget
        if kind < 0.9:
            # bounded for loop over a fresh counter
            name = self.fresh("i")
            count = rng.randint(1, 6)
            target = rng.choice(self.all_scalars()) \
                if self.all_scalars() else None
            if target is None:
                return budget
            text, value = self.expr(2)
            # Hoist the step expression: inside the loop it would be
            # re-evaluated against mutated state, desynchronising the
            # mirror.
            step = self.fresh("step")
            self.emit(f"unsigned int {step} = {text};", indent)
            self.emit(f"for (unsigned int {name} = 0u; {name} < "
                      f"{count}u; {name}++) {{", indent)
            self.emit(f"{target} = {target} + {step} + {name};",
                      indent + 1)
            self.emit("}", indent)
            acc = self.read(target)
            for i in range(count):
                acc = (acc + value + i) & _MASK32
            self.write(target, acc)
            return budget - 1
        # checksum print
        if self.all_scalars():
            name = rng.choice(self.all_scalars())
            self.emit(f'printf("%u\\n", {name});', indent)
            self.out.append(f"{self.read(name)}\n")
        return budget - 1

    # -- whole program ----------------------------------------------------------------

    def program(self) -> Tuple[str, str]:
        rng = self.rng
        header = ["#include <stdio.h>", ""]
        for i in range(rng.randint(2, 5)):
            name = f"g{i}"
            value = rng.randrange(0, 1 << 31)
            self.globals[name] = value
            header.append(f"unsigned int {name} = {value}u;")
        for i in range(rng.randint(0, 2)):
            name = f"arr{i}"
            length = rng.randint(2, 8)
            values = [rng.randrange(0, 1 << 31) for _ in range(length)]
            self.global_arrays[name] = values
            vals = ", ".join(f"{v}u" for v in values)
            header.append(f"unsigned int {name}[{length}] = "
                          f"{{ {vals} }};")
        header.append("")
        header.append("int main(void) {")
        for i in range(rng.randint(1, 3)):
            name = f"l{i}"
            value = rng.randrange(0, 1 << 31)
            self.locals[name] = value
            self.lines.append(f"    unsigned int {name} = {value}u;")
        budget = self.size
        while budget > 0:
            budget = self.statement(1, budget)
        # final checksum over everything
        acc_terms = []
        acc = 0
        for name in sorted(self.globals):
            acc_terms.append(name)
            acc = (acc + self.globals[name]) & _MASK32
        for name in sorted(self.locals):
            acc_terms.append(name)
            acc = (acc + self.locals[name]) & _MASK32
        for name, arr in sorted(self.global_arrays.items()):
            for i, v in enumerate(arr):
                acc_terms.append(f"{name}[{i}]")
                acc = (acc + v) & _MASK32
        expr = " + ".join(acc_terms) if acc_terms else "0u"
        self.lines.append(f'    printf("checksum = %u\\n", {expr});')
        self.out.append(f"checksum = {acc}\n")
        self.lines.append("    return 0;")
        self.lines.append("}")
        return ("\n".join(header + self.lines) + "\n",
                "".join(self.out))


def generate_program(seed: int, size: int = 12) -> GeneratedProgram:
    """Generate a (program, expected output) pair.

    ``size`` is a statement budget; the paper's "small tests" map to
    the default, its 40-600-line "larger tests" to sizes of 40+.
    """
    rng = random.Random(seed)
    gen = _Gen(rng, size)
    source, expected = gen.program()
    return GeneratedProgram(seed, source, expected,
                            statements=size)
