"""Unit tests for the memory object models (paper §2, §5.9)."""

import pytest

from repro.ctypes import LP64, QualType, TagEnv
from repro.ctypes.types import Integer, IntKind
from repro.memory import (
    ConcreteModel, MemoryError_, MemoryOptions, ProvenanceModel,
    StrictIsoModel,
)
from repro.memory.values import (
    IntegerValue, MVInteger, PointerValue, PROV_EMPTY, PROV_WILDCARD,
)

_INT = Integer(IntKind.INT)
_QINT = QualType(_INT)


def iv(n):
    return MVInteger(_INT, IntegerValue(n))


class TestAllocation:
    def test_fresh_ids(self):
        m = ProvenanceModel(LP64, TagEnv())
        p1 = m.create(_INT, 4, "a", "static")
        p2 = m.create(_INT, 4, "b", "static")
        assert p1.prov != p2.prov
        assert p1.addr != p2.addr

    def test_alignment_respected(self):
        m = ProvenanceModel(LP64, TagEnv())
        m.create(Integer(IntKind.CHAR), 1, "c", "static")
        p = m.create(Integer(IntKind.LONG), 8, "l", "static")
        assert p.addr % 8 == 0

    def test_store_load_roundtrip(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        m.store(_QINT, p, iv(42))
        _, out = m.load(_QINT, p)
        assert out.ival.value == 42

    def test_kill_then_access(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "automatic")
        m.kill(p, dyn=False)
        with pytest.raises(MemoryError_) as e:
            m.load(_QINT, p)
        assert e.value.entry.name == "Access_dead_object"

    def test_double_free(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.alloc_region(16, 16)
        m.kill(p, dyn=True)
        with pytest.raises(MemoryError_) as e:
            m.kill(p, dyn=True)
        assert e.value.entry.name == "Free_invalid_pointer"

    def test_free_interior_pointer(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.alloc_region(16, 16)
        with pytest.raises(MemoryError_):
            m.kill(p.with_addr(p.addr + 4), dyn=True)


class TestProvenanceChecking:
    def test_wrong_provenance_flagged(self):
        m = ProvenanceModel(LP64, TagEnv())
        p1 = m.create(_INT, 4, "a", "static")
        m.create(_INT, 4, "b", "static")
        with pytest.raises(MemoryError_) as e:
            m.store(_QINT, p1.with_addr(p1.addr + 4), iv(1))
        assert e.value.entry.name == "Access_wrong_provenance"

    def test_concrete_model_allows_adjacent(self):
        m = ConcreteModel(LP64, TagEnv())
        p1 = m.create(_INT, 4, "a", "static")
        p2 = m.create(_INT, 4, "b", "static")
        lo, hi = (p1, p2) if p1.addr < p2.addr else (p2, p1)
        if hi.addr - lo.addr == 4:
            m.store(_QINT, lo.with_addr(hi.addr), iv(9))
            _, out = m.load(_QINT, hi)
            assert out.ival.value == 9

    def test_null_access(self):
        m = ConcreteModel(LP64, TagEnv())
        with pytest.raises(MemoryError_) as e:
            m.load(_QINT, PointerValue(0))
        assert e.value.entry.name == "Null_pointer_dereference"

    def test_wildcard_provenance_allowed_on_live_object(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        wild = PointerValue(p.addr, PROV_WILDCARD)
        m.store(_QINT, wild, iv(3))
        _, out = m.load(_QINT, p)
        assert out.ival.value == 3

    def test_misaligned_access(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(Integer(IntKind.LONG), 8, "l", "static")
        with pytest.raises(MemoryError_) as e:
            m.load(_QINT, p.with_addr(p.addr + 1))
        assert e.value.entry.name == "Misaligned_access"


class TestPointerOps:
    def test_relational_same_object(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.alloc_region(16, 16)
        q = p.with_addr(p.addr + 8)
        assert m.relational("<", p, q) == 1
        assert m.relational(">=", p, q) == 0

    def test_relational_cross_object_defacto_ok(self):
        m = ProvenanceModel(LP64, TagEnv())
        a = m.create(_INT, 4, "a", "static")
        b = m.create(_INT, 4, "b", "static")
        assert m.relational("<", a, b) in (0, 1)  # permitted (Q25)

    def test_relational_cross_object_strict_ub(self):
        m = StrictIsoModel(LP64, TagEnv())
        a = m.create(_INT, 4, "a", "static")
        b = m.create(_INT, 4, "b", "static")
        with pytest.raises(MemoryError_) as e:
            m.relational("<", a, b)
        assert e.value.entry.name == "Relational_distinct_objects"

    def test_ptrdiff_same_object(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.alloc_region(40, 16)
        q = m.array_shift(p, _INT, IntegerValue(5))
        assert m.ptrdiff(_INT, q, p).value == 5

    def test_ptrdiff_cross_object_ub(self):
        m = ProvenanceModel(LP64, TagEnv())
        a = m.create(_INT, 4, "a", "static")
        b = m.create(_INT, 4, "b", "static")
        with pytest.raises(MemoryError_) as e:
            m.ptrdiff(_INT, a, b)
        assert e.value.entry.name == "Ptrdiff_distinct_objects"

    def test_oob_construction_allowed_defacto(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.alloc_region(16, 16)
        q = m.array_shift(p, _INT, IntegerValue(100))  # way OOB: fine
        back = m.array_shift(q, _INT, IntegerValue(-100))
        assert back.addr == p.addr

    def test_oob_construction_strict_ub(self):
        m = StrictIsoModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        with pytest.raises(MemoryError_) as e:
            m.array_shift(p, _INT, IntegerValue(5))
        assert e.value.entry.name == \
            "Out_of_bounds_pointer_arithmetic"

    def test_one_past_allowed_strict(self):
        m = StrictIsoModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        m.array_shift(p, _INT, IntegerValue(1))  # one-past ok

    def test_int_roundtrip_provenance(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        i = m.int_from_ptr(p, Integer(IntKind.ULONG))
        assert i.prov == p.prov
        back = m.ptr_from_int(i)
        assert back.prov == p.prov
        m.store(_QINT, back, iv(5))

    def test_equality_provenance_nondet(self):
        opts = MemoryOptions(check_provenance=True,
                             provenance_sensitive_equality=True)
        m = ProvenanceModel(LP64, TagEnv(), opts)
        choices = []
        m.choose = lambda tag, n: choices.append(tag) or 0
        a = PointerValue(0x1000, 1)
        b = PointerValue(0x1000, 2)
        m.eq(a, b)
        assert choices == ["ptr-eq-provenance"]


class TestUninitPolicies:
    def test_unspecified_policy(self):
        m = ProvenanceModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        from repro.memory.values import MVUnspecified
        _, out = m.load(_QINT, p)
        assert isinstance(out, MVUnspecified)

    def test_ub_policy(self):
        m = StrictIsoModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        with pytest.raises(MemoryError_) as e:
            m.load(_QINT, p)
        assert e.value.entry.name == "Read_uninitialised"

    def test_stable_policy(self):
        m = ConcreteModel(LP64, TagEnv())
        p = m.create(_INT, 4, "x", "static")
        _, first = m.load(_QINT, p)
        _, second = m.load(_QINT, p)
        assert first.ival.value == second.ival.value  # §2.4 option 4

    def test_effective_types(self):
        from repro.ctypes.types import Floating, FloatKind
        m = StrictIsoModel(LP64, TagEnv())
        p = m.alloc_region(8, 8)
        fty = Floating(FloatKind.FLOAT)
        from repro.memory.values import FloatingValue, MVFloating
        m.store(QualType(fty), p, MVFloating(fty, FloatingValue(1.0)))
        with pytest.raises(MemoryError_) as e:
            m.load(_QINT, p)
        assert e.value.entry.name == "Effective_type_mismatch"
