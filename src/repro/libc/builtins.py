"""Native implementations of the supported standard-library functions.

Each native is a generator ``native(evaluator, args, loc)`` that yields
driver requests (actions / raw byte services / stdout) and returns the
call's Core value. They operate *through the memory object model* — e.g.
``memcpy`` copies abstract bytes, so per-byte provenance flows exactly as
the candidate de facto model prescribes for pointer copying (§2.3).
"""

from __future__ import annotations


from ..ctypes.types import Integer, IntKind
from ..memory.values import AByte, IntegerValue, PointerValue
from ..dynamics.values import (
    UNIT, Value, VInteger, VPointer, VSpecified, VUnspecified,
)
from ..dynamics.evaluator import ProgramExit
from ..errors import InternalError
from .printf import format_string, string_argument_specs

_INT = Integer(IntKind.INT)


def _int(v: Value, loc) -> int:
    if isinstance(v, VSpecified):
        return _int(v.value, loc)
    if isinstance(v, VInteger):
        return v.ival.value
    if isinstance(v, VUnspecified):
        raise InternalError("unspecified integer argument to libc", loc)
    raise InternalError(f"expected integer argument, got {v!r}", loc)


def _ptr(v: Value, loc) -> PointerValue:
    if isinstance(v, VSpecified):
        return _ptr(v.value, loc)
    if isinstance(v, VPointer):
        return v.ptr
    if isinstance(v, VInteger) and v.ival.value == 0:
        from ..memory.values import NULL_POINTER
        return NULL_POINTER
    raise InternalError(f"expected pointer argument, got {v!r}", loc)


def _ret_int(n: int) -> Value:
    return VSpecified(VInteger(IntegerValue(n)))


def _ret_ptr(p: PointerValue) -> Value:
    return VSpecified(VPointer(p))


# ---- stdio ------------------------------------------------------------------

def _do_printf(evaluator, args, loc, out_sink):
    fmt_ptr = _ptr(args[0], loc)
    fmt = yield ("raw", "cstring", (fmt_ptr,), loc)
    if fmt is None:
        raise InternalError("printf format string is unspecified", loc)
    strings = {}
    # Pre-fetch the C strings of the arguments %s conversions actually
    # consume (they need driver requests).  Only those: reading through
    # every pointer argument would trip the memory model's checks on
    # valid non-%s pointers — e.g. %p of a one-past-the-end pointer.
    # An explicit precision bounds the read (§7.21.6.1p8: the array
    # need not be null-terminated then).
    rest = list(args[1:])
    # One fetch per distinct pointer, under the *weakest* constraint
    # any of its %s conversions imposes: an unbounded conversion needs
    # the terminator anyway; otherwise the largest precision suffices
    # and each conversion truncates its own view.
    bounds = {}
    for i, bound in string_argument_specs(fmt):
        if i >= len(rest):
            continue
        if isinstance(bound, tuple):  # ("arg", k): dynamic .* value
            k = bound[1]
            bound = None
            if k < len(rest):
                prec = rest[k].value if isinstance(rest[k], VSpecified) \
                    else rest[k]
                if isinstance(prec, VInteger) and prec.ival.value >= 0:
                    bound = prec.ival.value
        inner = rest[i].value if isinstance(rest[i], VSpecified) \
            else rest[i]
        if isinstance(inner, VPointer) and inner.ptr.addr != 0:
            if inner.ptr in bounds and (bounds[inner.ptr] is None
                                        or bound is None):
                bounds[inner.ptr] = None
            else:
                bounds[inner.ptr] = bound if inner.ptr not in bounds \
                    else max(bounds[inner.ptr], bound)
    for ptr, bound in bounds.items():
        strings[ptr] = yield ("raw", "cstring", (ptr, bound), loc)
    text, _ = format_string(fmt, rest,
                            lambda p: strings.get(p),
                            impl=evaluator.impl, loc=loc)
    yield from out_sink(text)
    return text


def native_printf(evaluator, args, loc):
    chunks = []

    def sink(text):
        chunks.append(text)
        yield ("stdout", text)

    text = yield from _do_printf(evaluator, args, loc, sink)
    return _ret_int(len(text))


def native_puts(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    data = yield ("raw", "cstring", (ptr,), loc)
    text = ("<unspec>" if data is None else data.decode("latin-1")) + "\n"
    yield ("stdout", text)
    return _ret_int(len(text))


def native_putchar(evaluator, args, loc):
    c = _int(args[0], loc)
    yield ("stdout", chr(c & 0xFF))
    return _ret_int(c)


def native_sprintf(evaluator, args, loc):
    buf = _ptr(args[0], loc)
    text = yield from _do_printf(evaluator, list(args[1:]), loc,
                                 lambda t: iter(()))
    data = [AByte(b) for b in text.encode("latin-1")] + [AByte(0)]
    yield ("raw", "store_bytes", (buf, data), loc)
    return _ret_int(len(text))


def native_snprintf(evaluator, args, loc):
    buf = _ptr(args[0], loc)
    n = _int(args[1], loc)
    text = yield from _do_printf(evaluator, [args[2]] + list(args[3:]),
                                 loc, lambda t: iter(()))
    encoded = text.encode("latin-1")
    if n > 0:
        clipped = encoded[:n - 1]
        data = [AByte(b) for b in clipped] + [AByte(0)]
        yield ("raw", "store_bytes", (buf, data), loc)
    return _ret_int(len(encoded))


# ---- stdlib -----------------------------------------------------------------

def native_malloc(evaluator, args, loc):
    size = _int(args[0], loc)
    value, _record = yield ("action", "alloc",
                            [VInteger(IntegerValue(16)),
                             VInteger(IntegerValue(size))],
                            "pos", "na", loc)
    return VSpecified(value)


def native_calloc(evaluator, args, loc):
    n = _int(args[0], loc)
    size = _int(args[1], loc)
    total = n * size
    value, _record = yield ("action", "alloc",
                            [VInteger(IntegerValue(16)),
                             VInteger(IntegerValue(total))],
                            "pos", "na", loc)
    assert isinstance(value, VPointer)
    yield ("raw", "store_bytes", (value.ptr, [AByte(0)] * total), loc)
    return VSpecified(value)


def native_free(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    from ..dynamics.values import VBool
    yield ("action", "kill", [VPointer(ptr), VBool(True)], "pos", "na",
           loc)
    return UNIT


def native_realloc(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    size = _int(args[1], loc)
    from ..dynamics.values import VBool
    new_value, _ = yield ("action", "alloc",
                          [VInteger(IntegerValue(16)),
                           VInteger(IntegerValue(size))], "pos", "na",
                          loc)
    assert isinstance(new_value, VPointer)
    if ptr.addr != 0:
        alloc = yield ("raw", "allocation_of", (ptr,), loc)
        if alloc is not None:
            n = min(alloc.size, size)
            data = yield ("raw", "load_bytes", (ptr, n), loc)
            yield ("raw", "store_bytes", (new_value.ptr, data), loc)
        yield ("action", "kill", [VPointer(ptr), VBool(True)], "pos",
               "na", loc)
    return VSpecified(new_value)


def native_abort(evaluator, args, loc):
    raise ProgramExit(134, aborted=True)
    yield  # pragma: no cover


def native_exit(evaluator, args, loc):
    raise ProgramExit(_int(args[0], loc))
    yield  # pragma: no cover


def native_abs(evaluator, args, loc):
    return _ret_int(abs(_int(args[0], loc)))
    yield  # pragma: no cover


def native_atoi(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    data = yield ("raw", "cstring", (ptr,), loc)
    text = (data or b"").decode("latin-1").strip()
    sign = 1
    if text[:1] in ("-", "+"):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    for ch in text:
        if not ch.isdigit():
            break
        digits += ch
    return _ret_int(sign * int(digits) if digits else 0)


def native_strtol(evaluator, args, loc):
    # Only the (nptr, NULL, 10) form is supported.
    value = yield from native_atoi(evaluator, args[:1], loc)
    return value


def native_rand(evaluator, args, loc):
    state = getattr(evaluator, "_rand_state", 1)
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    evaluator._rand_state = state
    return _ret_int(state)
    yield  # pragma: no cover


def native_srand(evaluator, args, loc):
    evaluator._rand_state = _int(args[0], loc) or 1
    return UNIT
    yield  # pragma: no cover


def native_assert_fail(evaluator, args, loc):
    expr_ptr = _ptr(args[0], loc)
    data = yield ("raw", "cstring", (expr_ptr,), loc)
    text = (data or b"?").decode("latin-1")
    yield ("stdout", f"Assertion failed: {text}\n")
    raise ProgramExit(134, aborted=True)


# ---- string.h ----------------------------------------------------------------

def native_memcpy(evaluator, args, loc):
    dest = _ptr(args[0], loc)
    src = _ptr(args[1], loc)
    n = _int(args[2], loc)
    if n:
        data = yield ("raw", "load_bytes", (src, n), loc)
        yield ("raw", "store_bytes", (dest, data), loc)
    return _ret_ptr(dest)


native_memmove = native_memcpy


def native_memset(evaluator, args, loc):
    dest = _ptr(args[0], loc)
    c = _int(args[1], loc) & 0xFF
    n = _int(args[2], loc)
    if n:
        yield ("raw", "store_bytes", (dest, [AByte(c)] * n), loc)
    return _ret_ptr(dest)


def native_memcmp(evaluator, args, loc):
    a = _ptr(args[0], loc)
    b = _ptr(args[1], loc)
    n = _int(args[2], loc)
    da = yield ("raw", "load_bytes", (a, n), loc)
    db = yield ("raw", "load_bytes", (b, n), loc)
    for xa, xb in zip(da, db):
        va = xa.value if xa.value is not None else 0
        vb = xb.value if xb.value is not None else 0
        if va != vb:
            return _ret_int(1 if va > vb else -1)
    return _ret_int(0)


def native_strlen(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    data = yield ("raw", "cstring", (ptr,), loc)
    return _ret_int(len(data or b""))


def native_strcmp(evaluator, args, loc):
    a = yield ("raw", "cstring", (_ptr(args[0], loc),), loc)
    b = yield ("raw", "cstring", (_ptr(args[1], loc),), loc)
    a = a or b""
    b = b or b""
    if a == b:
        return _ret_int(0)
    return _ret_int(-1 if a < b else 1)


def native_strncmp(evaluator, args, loc):
    n = _int(args[2], loc)
    a = yield ("raw", "cstring", (_ptr(args[0], loc),), loc)
    b = yield ("raw", "cstring", (_ptr(args[1], loc),), loc)
    a = (a or b"")[:n]
    b = (b or b"")[:n]
    if a == b:
        return _ret_int(0)
    return _ret_int(-1 if a < b else 1)


def native_strcpy(evaluator, args, loc):
    dest = _ptr(args[0], loc)
    data = yield ("raw", "cstring", (_ptr(args[1], loc),), loc)
    payload = [AByte(b) for b in (data or b"")] + [AByte(0)]
    yield ("raw", "store_bytes", (dest, payload), loc)
    return _ret_ptr(dest)


def native_strncpy(evaluator, args, loc):
    dest = _ptr(args[0], loc)
    n = _int(args[2], loc)
    data = yield ("raw", "cstring", (_ptr(args[1], loc),), loc)
    body = list((data or b"")[:n])
    payload = [AByte(b) for b in body] + [AByte(0)] * (n - len(body))
    if payload:
        yield ("raw", "store_bytes", (dest, payload), loc)
    return _ret_ptr(dest)


def native_strcat(evaluator, args, loc):
    dest = _ptr(args[0], loc)
    old = yield ("raw", "cstring", (dest,), loc)
    add = yield ("raw", "cstring", (_ptr(args[1], loc),), loc)
    start = dest.with_addr(dest.addr + len(old or b""))
    payload = [AByte(b) for b in (add or b"")] + [AByte(0)]
    yield ("raw", "store_bytes", (start, payload), loc)
    return _ret_ptr(dest)


def native_strchr(evaluator, args, loc):
    ptr = _ptr(args[0], loc)
    c = _int(args[1], loc) & 0xFF
    data = yield ("raw", "cstring", (ptr,), loc)
    data = data or b""
    if c == 0:
        return _ret_ptr(ptr.with_addr(ptr.addr + len(data)))
    idx = data.find(bytes([c]))
    if idx < 0:
        from ..memory.values import NULL_POINTER
        return _ret_ptr(NULL_POINTER)
    return _ret_ptr(ptr.with_addr(ptr.addr + idx))


# ---- threads.h ---------------------------------------------------------------

def native_thrd_create(evaluator, args, loc):
    from ..ctypes.types import QualType
    thr_ptr = _ptr(args[0], loc)
    fn = args[1]
    arg = args[2]
    inner = fn.value if isinstance(fn, VSpecified) else fn
    name = evaluator._function_name(inner, loc)
    gen = evaluator.call_proc(name, [arg], loc)
    tid = yield ("spawn", gen)
    from ..memory.values import MVInteger
    from ..dynamics.values import VCtype
    yield ("action", "store",
           [VCtype(_INT), VPointer(thr_ptr),
            VSpecified(VInteger(IntegerValue(tid)))], "pos", "na", loc)
    return _ret_int(0)


def native_thrd_join(evaluator, args, loc):
    tid = _int(args[0], loc)
    res_ptr = _ptr(args[1], loc)
    value = yield ("wait", tid)
    if res_ptr.addr != 0:
        from ..dynamics.values import VCtype
        if not isinstance(value, (VSpecified, VUnspecified)):
            value = VSpecified(value) if isinstance(value, VInteger) \
                else _ret_int(0)
        yield ("action", "store",
               [VCtype(_INT), VPointer(res_ptr), value], "pos", "na",
               loc)
    return _ret_int(0)


NATIVE_PROCS = {
    "printf": native_printf,
    "puts": native_puts,
    "putchar": native_putchar,
    "sprintf": native_sprintf,
    "snprintf": native_snprintf,
    "malloc": native_malloc,
    "calloc": native_calloc,
    "realloc": native_realloc,
    "free": native_free,
    "abort": native_abort,
    "exit": native_exit,
    "abs": native_abs,
    "labs": native_abs,
    "atoi": native_atoi,
    "atol": native_atoi,
    "strtol": native_strtol,
    "rand": native_rand,
    "srand": native_srand,
    "__cerberus_assert_fail": native_assert_fail,
    "memcpy": native_memcpy,
    "memmove": native_memmove,
    "memset": native_memset,
    "memcmp": native_memcmp,
    "strlen": native_strlen,
    "strcmp": native_strcmp,
    "strncmp": native_strncmp,
    "strcpy": native_strcpy,
    "strncpy": native_strncpy,
    "strcat": native_strcat,
    "strchr": native_strchr,
    "thrd_create": native_thrd_create,
    "thrd_join": native_thrd_join,
}
