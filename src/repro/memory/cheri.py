"""A CHERI-capability memory model (paper §4).

Pointers are unforgeable, bounds-checked capabilities: (base, length,
offset, tag, perms). The model reproduces the paper's findings on the
pre-fix CHERI implementation:

* **Equality bug**: pointer ``==`` compared only the addresses, so two
  pointers with different provenance (different capabilities) compared
  equal but were not interchangeable. The fix added a
  compare-exactly-equal instruction; ``CheriModel(exact_equality=True)``
  models the fixed behaviour.
* **uintptr_t masking bug**: ``(i & 3u)`` where ``i`` is a ``uintptr_t``
  evaluated to false even with zero low address bits, because the result
  was the fat pointer ``i`` with its *offset* anded with 3 (a non-zero
  address). ``int_binop`` reproduces this offset-arithmetic semantics.
* **Left-biased provenance**: non-``intptr_t`` integers carry no pointer
  provenance, and provenance in arithmetic is inherited only from the
  left-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..ctypes.implementation import CHERI128, Implementation
from ..ctypes.types import CType, Integer, IntKind, TagEnv
from .. import ub
from .base import Allocation, MemoryError_, MemoryModel, MemoryOptions
from .values import IntegerValue, NULL_POINTER, PointerValue, PROV_EMPTY


@dataclass(frozen=True)
class Capability:
    """A 128-bit CHERI capability (uncompressed model)."""

    base: int
    length: int
    offset: int
    tag: bool = True
    perms: str = "rw"

    @property
    def address(self) -> int:
        return self.base + self.offset

    def with_offset(self, offset: int) -> "Capability":
        return replace(self, offset=offset)

    def in_bounds(self, size: int) -> bool:
        return 0 <= self.offset and self.offset + size <= self.length

    def __repr__(self) -> str:
        t = "t" if self.tag else "-"
        return (f"cap[{t} 0x{self.base:x}+{self.offset} "
                f"len={self.length}]")


class CheriModel(MemoryModel):
    """CHERI C: every pointer carries a capability in ``meta``."""

    name = "cheri"

    def __init__(self, impl: Implementation = CHERI128,
                 tags: Optional[TagEnv] = None,
                 options: Optional[MemoryOptions] = None,
                 exact_equality: bool = False):
        opts = options or MemoryOptions(
            uninit_read="unspecified",
            check_provenance=True,
            allow_inter_object_relational=True,
            allow_inter_object_ptrdiff=False,
            allow_oob_construction=True,   # construction ok; deref traps
            track_int_provenance=True,
            check_effective_types=False,
        )
        super().__init__(impl, tags if tags is not None else TagEnv(),
                         opts)
        # False reproduces the pre-fix behaviour the paper reports.
        self.exact_equality = exact_equality

    # -- capability plumbing -----------------------------------------------------

    def make_pointer(self, alloc: Allocation) -> PointerValue:
        cap = Capability(alloc.base, alloc.size, 0)
        return PointerValue(alloc.base, alloc.aid, meta=cap)

    def _shift(self, ptr: PointerValue, delta: int) -> PointerValue:
        cap = ptr.meta
        new_addr = ptr.addr + delta
        if isinstance(cap, Capability):
            return PointerValue(new_addr, ptr.prov,
                                meta=cap.with_offset(cap.offset + delta))
        return ptr.with_addr(new_addr)

    def array_shift(self, ptr: PointerValue, elem_ty: CType,
                    index: IntegerValue) -> PointerValue:
        esize = self.impl.sizeof(elem_ty, self.tags)
        return self._shift(ptr, esize * index.value)

    def member_shift(self, ptr: PointerValue, tag: str,
                     member: str) -> PointerValue:
        from ..ctypes.types import StructRef, UnionRef
        defn = self.tags.require(tag)
        ref = UnionRef(tag) if defn.is_union else StructRef(tag)
        off = self.impl.offsetof(ref, member, self.tags)
        return self._shift(ptr, off)

    # -- access checks are capability checks ----------------------------------------

    def _locate(self, ptr: PointerValue, size: int,
                writing: bool) -> Allocation:
        cap = ptr.meta
        if isinstance(cap, Capability):
            if not cap.tag:
                raise MemoryError_(
                    ub.ACCESS_EMPTY_PROVENANCE,
                    "capability tag violation (untagged capability "
                    "dereference)")
            if not cap.in_bounds(size):
                raise MemoryError_(
                    ub.ACCESS_OUT_OF_BOUNDS,
                    f"capability bounds violation: offset {cap.offset} "
                    f"size {size} length {cap.length}")
        elif ptr.addr != 0:
            raise MemoryError_(
                ub.ACCESS_EMPTY_PROVENANCE,
                "dereference of non-capability pointer value")
        return super()._locate(ptr, size, writing)

    # -- integer interaction: the §4 findings -------------------------------------------

    def int_from_ptr(self, ptr: PointerValue,
                     to: Integer) -> IntegerValue:
        # uintptr_t/intptr_t keep the capability; narrower integer types
        # do not carry pointer provenance (paper §4: "its non-intptr_t
        # integer values do not carry pointer provenance").
        if to.kind in (IntKind.ULONG, IntKind.LONG):
            return IntegerValue(ptr.addr, ptr.prov, meta=ptr.meta)
        return IntegerValue(ptr.addr)

    def ptr_from_int(self, iv: IntegerValue) -> PointerValue:
        if isinstance(iv.meta, Capability):
            cap = iv.meta
            return PointerValue(cap.address,
                                iv.prov if iv.prov is not PROV_EMPTY
                                else PROV_EMPTY, meta=cap)
        if iv.value == 0:
            return NULL_POINTER
        # A pointer fabricated from a plain integer: untagged capability.
        return PointerValue(iv.value, PROV_EMPTY,
                            meta=Capability(iv.value, 0, 0, tag=False))

    def int_binop(self, op: str, a: IntegerValue, b: IntegerValue,
                  math_result: int) -> Optional[IntegerValue]:
        """Hook consulted by the evaluator for integer arithmetic on
        capability-carrying integers (uintptr_t).

        Reproduces the masking bug: bitwise ops apply to the *offset*
        of the capability, so the resulting uintptr_t's value is
        ``base + (offset OP operand)``, not ``address OP operand``.
        Provenance/capability is inherited from the left operand only.
        """
        cap_a = a.meta if isinstance(a.meta, Capability) else None
        cap_b = b.meta if isinstance(b.meta, Capability) else None
        if cap_a is None and cap_b is None:
            return None  # plain integers: default mathematical result
        if op in ("&", "|", "^", "<<", ">>"):
            if cap_a is not None:
                table = {
                    "&": cap_a.offset & b.value,
                    "|": cap_a.offset | b.value,
                    "^": cap_a.offset ^ b.value,
                    "<<": cap_a.offset << min(b.value, 64),
                    ">>": cap_a.offset >> min(b.value, 64),
                }
                new_cap = cap_a.with_offset(table[op])
                return IntegerValue(new_cap.address, a.prov, meta=new_cap)
            return IntegerValue(math_result)  # rhs capability dropped
        if op in ("+", "-"):
            if cap_a is not None:
                delta = b.value if op == "+" else -b.value
                new_cap = cap_a.with_offset(cap_a.offset + delta)
                return IntegerValue(new_cap.address, a.prov, meta=new_cap)
            return IntegerValue(math_result)
        return IntegerValue(math_result)

    # -- comparisons -----------------------------------------------------------------------

    def eq(self, a: PointerValue, b: PointerValue) -> int:
        if not self.exact_equality:
            # Pre-fix behaviour: address-only comparison (the bug).
            return int(a.addr == b.addr)
        # Fixed: compare address *and* metadata (CExEq).
        return int(a.addr == b.addr and a.meta == b.meta)
