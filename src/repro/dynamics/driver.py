"""The execution driver: owns the memory model, the oracle, threads and
I/O; turns a Core program plus an oracle choice path into an
:class:`Outcome`.

"By selecting an appropriate sequencing monad implementation, we can
select whether to perform an exhaustive search for all allowed executions
or pseudorandomly explore single execution paths" (paper §5.1): here the
monad is reified as the :class:`Oracle` — a replayable sequence of
choices.  The state-space explorer (:mod:`repro.dynamics.explore`)
enumerates oracle paths under a pluggable search strategy, branching
on the oracle's choice trace; the random driver draws them from a
seed.  Under partial-order reduction the oracle also records a unified
*event log* — scheduling choices with their unseq frame metadata, and
performed actions with footprints and scheduling chains — which the
explorer's sleep-set reduction feeds on, and it hosts the live sleep
set the POR scheduler consults
(:exc:`PathPruned` aborts a path whose remaining interleavings are
re-orderings of executions already covered).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..core import ast as K
from ..ctypes.types import Array, Pointer, QualType
from ..errors import InternalError, StaticError
from ..memory.base import (
    Footprint, MemoryError_, MemoryModel, VLA_CAP_BYTES,
)
from ..memory.values import IntegerValue, PointerValue, PROV_EMPTY
from .. import ub as UB
from ..ub import UndefinedBehaviour
from ..source import Loc
from ..spec import RunSpec
from .actions import ActionRecord, footprints_conflict
from .evaluator import (
    Evaluator, FrameLimit, ProcReturn, ProgramExit, RunSignal,
)
from .values import (
    UNIT, Value, VBool, VCtype, VInteger, VPointer, VSpecified, VUnit,
    VUnspecified, core_to_mem, mem_to_core,
)


def format_ub(name, site: str) -> str:
    """The printable form of a UB behaviour (``site`` empty when the
    location is unknown)."""
    return f"UB[{name} @ {site}]" if site else f"UB[{name}]"


def format_behaviour(status: str, exit_code: Optional[int], stdout: str,
                     ub, site: str, error: str) -> str:
    """The one printable line of a behaviour — shared by
    :meth:`Outcome.summary` and the farm's IPC-stripped
    :meth:`repro.farm.pool.Verdict.summary`, so a run's line and an
    exploration's line for one behaviour are the same string."""
    if status == "ub":
        # The site is part of the behaviour identity (distinct() keys
        # on it): the same UB name at two program points must not
        # print as one line.
        return format_ub(ub, site)
    if status in ("done", "exit"):
        return f"exit={exit_code} stdout={stdout!r}"
    line = f"error: {error}" if status == "error" else status
    # The stdout tells such behaviours apart (behaviour_key keys on
    # it), so two of them never print as one line.
    return f"{line} stdout={stdout!r}" if stdout else line


class PathPruned(Exception):
    """Raised by the sleep-set scheduler when every unseq candidate is
    asleep: the whole subtree from here is a re-ordering of already
    covered executions (partial-order reduction, §5.6)."""


class Oracle:
    """A replayable nondeterminism source.

    ``path`` is the prefix of choices to replay; once exhausted, further
    choices take ``default`` (0) or, in random mode, a seeded draw. The
    full trace (with arity) is recorded so the explorer can enumerate
    successor paths; a unified event log (choices with unseq metadata,
    actions with footprints and scheduling chains) feeds partial-order
    reduction.

    A replayed choice whose recorded value no longer fits the current
    arity marks the oracle ``diverged`` — the choice is clamped as
    before, but the explorer can now detect and discard the stale path
    instead of silently mis-replaying it.

    ``sleep`` seeds the live sleep set: beyond the replay prefix, unseq
    scheduling avoids sleeping candidates and raises :exc:`PathPruned`
    when none remain; conflicting (or barrier) actions wake entries.

    ``record_events`` turns the event log on — only the explorer's
    POR reads it, so plain single runs and exploration without POR
    skip the per-action bookkeeping (and the unbounded list) entirely:
    their siblings come from the choice trace alone.
    """

    def __init__(self, path: Optional[List[int]] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Tuple = (),
                 record_events: bool = False):
        self.path = list(path or [])
        self.rng = rng
        self.trace: List[Tuple[str, int, int]] = []
        self.events: Optional[List[tuple]] = \
            [] if record_events else None
        self.diverged = False
        # live entries: (frame, child, addr, size, is_write)
        self.sleep: List[Tuple[int, int, int, int, bool]] = \
            [tuple(e) for e in sleep]

    def choose(self, tag: str, n: int, meta=None) -> int:
        pos = len(self.trace)
        if pos < len(self.path):
            wanted = self.path[pos]
            if 0 <= wanted < n:
                choice = wanted
            else:
                self.diverged = True
                choice = min(max(wanted, 0), n - 1)
        else:
            avail = None
            if self.sleep and tag == "unseq" and meta is not None:
                frame, cands = meta[0], meta[1]
                asleep = {c for (f, c, _a, _s, _w) in self.sleep
                          if f == frame}
                avail = [a for a in range(n)
                         if cands[a] not in asleep]
                if not avail:
                    raise PathPruned(
                        f"all {n} unseq candidates asleep")
                if len(avail) == n:
                    avail = None
            if self.rng is not None:
                choice = self.rng.randrange(n) if avail is None \
                    else avail[self.rng.randrange(len(avail))]
            else:
                choice = 0 if avail is None else avail[0]
        self.trace.append((tag, n, choice))
        if self.events is not None:
            self.events.append(("choose", tag, n, choice, meta))
        return choice

    def note_action(self, kind: str, footprint, is_write: bool,
                    chain: tuple, barrier: bool) -> None:
        """Log a performed action and run sleep-set wake-ups (only
        beyond the replay prefix: replayed events pre-date every
        entry the explorer attached at the branch point).  The wake
        rule is the same ``footprints_conflict`` the explorer's
        post-hoc walk uses, keeping both views of the sleep set in
        lockstep."""
        if self.events is not None:
            self.events.append(("act", kind, footprint, is_write,
                                chain, barrier))
        if self.sleep and len(self.trace) >= len(self.path):
            if barrier or footprint is None:
                self.sleep = []
            else:
                addr, size = footprint.addr, footprint.size
                self.sleep = [
                    z for z in self.sleep
                    if not footprints_conflict(z[2], z[3], z[4],
                                               addr, size, is_write)]


@dataclass
class Outcome:
    """The observable result of one execution path."""

    status: str                       # "done"|"ub"|"exit"|"abort"|
    #                                   "error"|"timeout"|"pruned"
    exit_code: Optional[int] = None
    stdout: str = ""
    ub: Optional[UB.UBName] = None
    ub_detail: str = ""
    loc: Loc = field(default_factory=Loc.unknown)
    error: str = ""
    steps: int = 0
    trace: List[Tuple[str, int, int]] = field(default_factory=list)
    diverged: bool = False            # stale replay prefix detected

    @property
    def is_ub(self) -> bool:
        return self.status == "ub"

    def summary(self) -> str:
        return format_behaviour(
            self.status, self.exit_code, self.stdout, self.ub,
            str(self.loc) if self.is_ub and self.loc.line > 0 else "",
            self.error)


@dataclass
class _Thread:
    """One thread: ``gen`` is a tree evaluator generator or, on the
    compiled back end, a machine root context (``resume`` is the
    context it continues from)."""

    tid: int
    gen: object
    done: bool = False
    result: Optional[Value] = None
    response: object = None
    lock: int = 0
    vc: Dict[int, int] = field(default_factory=dict)
    waiting_on: Optional[int] = None
    resume: object = None


class Driver:
    """One execution of ``program`` under ``model``: ``oracle``
    resolves the nondeterminism, ``spec`` supplies the back end and
    the step budget (and, from an :class:`~repro.spec.ExploreSpec`,
    static pruning), ``deadline`` an absolute ``time.monotonic()``
    cut-off."""

    def __init__(self, program: K.Program, model: MemoryModel,
                 oracle: Optional[Oracle] = None,
                 spec: RunSpec = RunSpec(),
                 deadline: Optional[float] = None):
        self.program = program
        self.model = model
        self.oracle = Oracle() if oracle is None else oracle
        self.model.choose = self.oracle.choose
        static_prune = getattr(spec, "static_prune", False)
        # POR bookkeeping (event log + live sleep set) is only worth
        # feeding when someone is listening: the single-run fast path,
        # and exploration without POR, must not pay for it (ROADMAP:
        # "event logging is zero-cost when not exploring").
        self._por_notify = self.oracle.events is not None \
            or bool(self.oracle.sleep)
        self.threads: Dict[int, _Thread] = {}
        self._compiled = spec.backend == "compiled"
        if self._compiled:
            from .compile import CompiledEvaluator
            self.evaluator = CompiledEvaluator(
                program, model, static_prune=static_prune)
            # The driver's own oracle picks candidate 0 at every unseq
            # choice, which is program order: the machine then runs
            # unseq children one after the other without asking it.
            # A caller's oracle (an explorer's, a seeded one) sees
            # every choice point.
            self.evaluator.attach(self, oracle is None)
        else:
            self.evaluator = Evaluator(program, model,
                                       static_prune=static_prune)
        # QualType wrappers per C-type object for the load/store hot
        # path (the entry keeps the type alive, so ids are stable).
        self._qt_cache: Dict[int, Tuple] = {}
        self.max_steps = spec.max_steps
        # Absolute time.monotonic() cut-off checked inside the step
        # loop: one long path times out cooperatively at the deadline
        # instead of blowing a whole farm task budget.
        self.deadline = deadline
        self.stdout_chunks: List[str] = []
        self.steps = 0
        self._tid_counter = itertools.count(1)
        # Data-race detection state (vector clocks per location byte).
        self._last_write: Dict[int, Tuple[int, Dict[int, int]]] = {}
        self._last_reads: Dict[int, List[Tuple[int, Dict[int, int]]]] = {}
        self._atomic_vc: Dict[int, Dict[int, int]] = {}
        self._action_counter = itertools.count(1)

    # -- program setup -----------------------------------------------------------

    def _allocate_globals(self) -> None:
        """Two-phase global setup: allocate every object (so addresses
        and adjacency are fixed), then run initialisers in order."""
        evaluator = self.evaluator
        globs = list(self.program.globs)
        if self.model.options.globals_reversed:
            globs = list(reversed(globs))
        for g in globs:
            align = self.program.impl.alignof(g.qty.ty, self.program.tags)
            # Allocate writable; the readonly flag is applied after the
            # initialising stores have run.
            ptr = self.model.create(g.qty.ty, align, g.name, "static",
                                    readonly=False)
            evaluator.global_env[g.name] = VPointer(ptr)
        fn_addr = 0x1_0000_0000
        names = list(self.program.procs) + [
            n for n in evaluator.native_procs
            if n not in self.program.procs]
        for name in names:
            evaluator.global_env.setdefault(name, VPointer(
                PointerValue(fn_addr, PROV_EMPTY, meta=("func", name))))
            fn_addr += 16

    def _run_global_inits(self) -> None:
        """GlobDef.init is an effectful Core expression performing the
        initialising stores (static objects start zeroed, §6.7.9p10)."""
        for g in self.program.globs:
            ptr = self.evaluator.global_env[g.name]
            assert isinstance(ptr, VPointer)
            from ..memory.values import zero_value
            zv = zero_value(g.qty.ty, self.program.impl,
                            self.program.tags)
            alloc = self.model.allocations[ptr.ptr.prov]
            alloc.data[:] = self.model.codec.repify(g.qty.ty, zv)
        for g in self.program.globs:
            if g.init is None:
                continue
            thread = _Thread(0, self.evaluator.run_glob_init(g))
            while not thread.done:
                self._advance(thread)
        for g in self.program.globs:
            if g.readonly:
                ptr = self.evaluator.global_env[g.name]
                assert isinstance(ptr, VPointer)
                self.model.allocations[ptr.ptr.prov].readonly = True

    def _main_args(self, proc: K.ProcDef) -> List[Value]:
        """``argc`` = 0 and ``argv`` pointing to a one-element array
        holding a null pointer (§5.1.2.2.1p2), zeroed like a static
        object."""
        from ..memory.values import zero_value
        argv_ty = proc.param_tys[1].ty if len(proc.param_tys) == 2 \
            else None
        if not isinstance(argv_ty, Pointer):
            return []
        arr = Array(argv_ty.to, 1)
        impl, tags = self.program.impl, self.program.tags
        ptr = self.model.create(arr, impl.alignof(arr, tags), "argv",
                                "static")
        self.model.allocations[ptr.prov].data[:] = \
            self.model.codec.repify(arr, zero_value(arr, impl, tags))
        return [VSpecified(VInteger(IntegerValue(0))),
                VSpecified(VPointer(ptr))]

    # -- main run ----------------------------------------------------------------------

    def run(self, entry: str = "main",
            args: Optional[List[Value]] = None) -> Outcome:
        """Execute one path.  When an observability context is active
        (:func:`repro.obs.active`) the run's step count and wall/CPU
        time are recorded; the disabled-mode cost is one global read —
        the same gating discipline as ``_por_notify`` above.  When the
        run ends the compiled evaluator lets go of this driver's
        request service, so a finished run holds no reference cycle
        and is freed without the cyclic GC."""
        ctx = obs.active()
        if ctx is not None:
            w0 = time.perf_counter()
            c0 = time.process_time()
        try:
            return self._run(entry, args)
        finally:
            if self._compiled:
                self.evaluator.handle = None
            if ctx is not None:
                ctx.inc("driver.runs")
                ctx.inc("driver.steps", self.steps)
                ctx.observe("driver.run_s", time.perf_counter() - w0)
                ctx.observe("driver.run_s.cpu", time.process_time() - c0)
                skips = self.evaluator.static_unseq_skips
                if skips:
                    ctx.inc("explore.static_prune_skips", skips)
                # Specialized-call-protocol hit rates (compiled back
                # end only; the tree evaluator has no such counters).
                fast = getattr(self.evaluator, "call_fast", 0)
                if fast:
                    ctx.inc("compile.call_fast", fast)
                generic = getattr(self.evaluator, "call_generic", 0)
                if generic:
                    ctx.inc("compile.call_generic", generic)

    def _run(self, entry: str = "main",
             args: Optional[List[Value]] = None) -> Outcome:
        try:
            self._allocate_globals()
            self._run_global_inits()
            main_proc = self.program.procs.get(entry)
            if main_proc is None:
                return self._outcome("error",
                                     error=f"no procedure '{entry}'")
            if not args and len(main_proc.params) == 2:
                args = self._main_args(main_proc)
            main_thread = _Thread(0, self.evaluator.call_proc(
                entry, args or [], Loc.unknown()), vc={0: 1})
            self.threads[0] = main_thread
            self._schedule()
        except UndefinedBehaviour as u:
            return self._ub_outcome(u)
        except PathPruned:
            return self._outcome("pruned")
        except ProgramExit as ex:
            return self._outcome("abort" if ex.aborted else "exit",
                                 exit_code=ex.code)
        except StaticError as s:
            return self._outcome("error", error=str(s))
        except _StepLimit:
            return self._outcome("timeout")
        except (FrameLimit, RecursionError):
            # The tree evaluator recurses in Python once per C call:
            # its stack runs out first, and it is the same budget.
            return self._outcome("error", error=FrameLimit.MESSAGE)
        except (RunSignal, ProcReturn) as esc:
            return self._outcome("error", error=f"escaped control "
                                 f"signal {esc!r}")
        result = main_thread.result
        code = 0
        if isinstance(result, VSpecified):
            result = result.value
        if isinstance(result, VInteger):
            code = result.ival.value
        elif isinstance(result, (VUnspecified, VUnit)):
            code = 0
        return self._outcome("done", exit_code=code)

    def _stdout(self) -> str:
        return "".join(self.stdout_chunks)

    def _outcome(self, status: str, **kw) -> Outcome:
        return Outcome(status, stdout=self._stdout(), steps=self.steps,
                       trace=self.oracle.trace,
                       diverged=self.oracle.diverged, **kw)

    def _ub_outcome(self, u: UndefinedBehaviour) -> Outcome:
        return self._outcome("ub", ub=u.ub, ub_detail=u.detail,
                             loc=u.loc)

    # -- scheduler --------------------------------------------------------------------

    def _schedule(self) -> None:
        """Thread scheduler. Like unseq scheduling, thread-interleaving
        choices are made only at action boundaries (non-action requests
        commute)."""
        threads = self.threads
        current: Optional[_Thread] = None
        while True:
            runnable = [t for t in threads.values()
                        if not t.done and self._can_run(t)]
            if not runnable:
                if all(t.done for t in threads.values()):
                    return
                raise InternalError("thread deadlock (all waiting)")
            # Note: ccall/atomic "locks" constrain interleaving *within*
            # one thread's expression evaluation (§5.6); they do not
            # serialise threads — C11 threads interleave freely.
            if current is None or current.done or \
                    current not in runnable:
                if len(runnable) > 1:
                    idx = self.oracle.choose("thread", len(runnable))
                    current = runnable[idx]
                else:
                    current = runnable[0]
            descheduled = self._advance(current)
            if descheduled:
                current = None

    def _can_run(self, t: _Thread) -> bool:
        if t.waiting_on is None:
            return True
        target = self.threads.get(t.waiting_on)
        return target is not None and target.done

    def _advance(self, t: _Thread) -> bool:
        """Advance a thread; returns True at a scheduling point (an
        action, raw service or I/O performed, a spawn, the thread
        blocked or done).  A tree thread advances by one request, a
        machine thread until the scheduler has a choice to make."""
        if t.waiting_on is not None:
            target = self.threads[t.waiting_on]
            t.vc = _vc_join(t.vc, target.vc)
            t.response = target.result
            t.waiting_on = None
        gen = t.gen
        if type(gen) is not GeneratorType:
            return self.evaluator.advance(t)
        try:
            request = gen.send(t.response)
        except StopIteration as stop:
            t.done = True
            value = stop.value
            if isinstance(value, tuple):
                value = value[0]
            t.result = value
            return True
        t.response = self._handle(request, t)
        return request[0] in _SCHEDULING_POINTS

    # -- request handling ------------------------------------------------------------------

    def _handle(self, request: tuple, thread: _Thread):
        """The one request service: every request of either back end
        is one step against the budget and the deadline."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise _StepLimit()
        if self.deadline is not None and not (self.steps & 0xFF) and \
                time.monotonic() >= self.deadline:
            raise _StepLimit()
        kind = request[0]
        if kind == "action":
            return self._perform_action(request, thread)
        if kind == "choose":
            return self.oracle.choose(request[1], request[2],
                                      request[3] if len(request) > 3
                                      else None)
        if kind == "tick":
            return None
        if kind == "ptrop":
            return self._perform_ptrop(request)
        if kind == "stdout":
            self.stdout_chunks.append(request[1])
            # I/O is observably ordered: a barrier for POR purposes.
            if self._por_notify:
                self.oracle.note_action("stdout", None, False, (),
                                        True)
            return None
        if kind == "raw":
            # Raw byte services carry no scheduling chain and may read
            # or change allocation metadata: conservatively a barrier.
            if self._por_notify:
                self.oracle.note_action("raw", None, False, (), True)
            return self._perform_raw(request, thread)
        if kind == "lock":
            thread.lock += request[1]
            return None
        if kind == "spawn":
            tid = next(self._tid_counter)
            child = _Thread(tid, request[1])
            child.vc = dict(thread.vc)
            child.vc[tid] = 1
            thread.vc[thread.tid] = thread.vc.get(thread.tid, 0) + 1
            self.threads[tid] = child
            return tid
        if kind == "wait":
            thread.waiting_on = request[1]
            return None
        raise InternalError(f"unknown request {kind}")

    # -- memory actions ----------------------------------------------------------------------

    def _perform_action(self, request: tuple, thread: Optional[_Thread]):
        value, record = self._do_action(request, thread)
        # Feed the explorer's event log: the scheduling chain of unseq
        # (frame, child) pairs the evaluator attached to the request,
        # plus whether this action is a POR barrier (no byte footprint
        # or an allocation lifetime change).
        if self._por_notify:
            chain = request[6] if len(request) > 6 else ()
            barrier = record.footprint is None or \
                record.kind in ("create", "alloc", "kill")
            self.oracle.note_action(record.kind, record.footprint,
                                    record.is_write, chain, barrier)
        return value, record

    def _do_action(self, request: tuple, thread: Optional[_Thread]):
        _, action_kind, args, polarity, order, loc = request[:6]
        model = self.model
        try:
            # Dispatch order follows action frequency: loads and stores
            # dominate every run, then the create/kill lifetime pairs.
            if action_kind == "load":
                cty, target = args
                qty = cty.ty if isinstance(cty, VCtype) else cty
                ptr = self.evaluator._as_pointer(target, loc)
                footprint, mv = model.load(self._qualtype(qty), ptr)
                record = self._record("load", footprint, False, polarity,
                                      loc)
                self._race_check(footprint, False, order, thread, loc)
                return mem_to_core(mv), record
            if action_kind == "store":
                cty, target, value = args[:3]
                qty = cty.ty if isinstance(cty, VCtype) else cty
                ptr = self.evaluator._as_pointer(target, loc)
                mv = core_to_mem(qty, value)
                footprint = model.store(self._qualtype(qty), ptr, mv)
                record = self._record("store", footprint, True, polarity,
                                      loc)
                self._race_check(footprint, True, order, thread, loc)
                return UNIT, record
            if action_kind == "create":
                align, cty, prefix, readonly = args
                ptr = model.create(cty.ty, align.ival.value, prefix,
                                   "automatic", readonly=readonly)
                record = self._record("create", None, False, polarity,
                                      loc)
                return VPointer(ptr), record
            if action_kind == "kill":
                target, dyn = args
                ptr = self.evaluator._as_pointer(target, loc)
                model.kill(ptr, dyn.b)
                record = self._record("kill", None, False, polarity, loc)
                return UNIT, record
            if action_kind == "create_vla":
                align, cty, count, prefix = args
                n = count.ival.value
                elem = cty.ty
                esize = self.program.impl.sizeof(elem,
                                                 self.program.tags)
                # Explicit checks (never bare asserts: they must
                # survive ``python -O``) backing the elaborated Core's
                # undef tests.
                if n <= 0:
                    raise MemoryError_(
                        UB.VLA_SIZE_NOT_POSITIVE,
                        f"VLA '{prefix}' size {n} is not positive")
                if n * esize > VLA_CAP_BYTES:
                    raise MemoryError_(
                        UB.VLA_SIZE_TOO_LARGE,
                        f"VLA '{prefix}' needs {n * esize} bytes "
                        f"(bound {VLA_CAP_BYTES})")
                arr = Array(QualType(elem), n)
                ptr = model.create(arr, align.ival.value, prefix,
                                   "automatic")
                record = self._record("create", None, False, polarity,
                                      loc)
                return VPointer(ptr), record
            if action_kind == "loadbf":
                cty, target, boff, bwidth = args
                ptr = self.evaluator._as_pointer(target, loc)
                footprint, mv = model.load_bits(
                    cty.ty, ptr,
                    self.evaluator._as_integer(boff, loc).value,
                    self.evaluator._as_integer(bwidth, loc).value)
                record = self._record("load", footprint, False,
                                      polarity, loc)
                self._race_check(footprint, False, order, thread, loc)
                return mem_to_core(mv), record
            if action_kind == "storebf":
                cty, target, boff, bwidth, value = args
                ptr = self.evaluator._as_pointer(target, loc)
                mv = core_to_mem(cty.ty, value)
                footprint = model.store_bits(
                    cty.ty, ptr,
                    self.evaluator._as_integer(boff, loc).value,
                    self.evaluator._as_integer(bwidth, loc).value, mv)
                record = self._record("store", footprint, True,
                                      polarity, loc)
                self._race_check(footprint, True, order, thread, loc)
                return UNIT, record
            if action_kind == "alloc":
                align, size = args
                n = self.evaluator._as_integer(size, loc).value
                ptr = model.alloc_region(n, align.ival.value)
                record = self._record("alloc", None, False, polarity, loc)
                return VPointer(ptr), record
            if action_kind == "rmw":
                cty, target, delta = args[:3]
                qty = cty.ty if isinstance(cty, VCtype) else cty
                ptr = self.evaluator._as_pointer(target, loc)
                footprint, mv = model.load(QualType(qty), ptr)
                old = mem_to_core(mv)
                iv = self.evaluator._as_integer(old, loc)
                dv = self.evaluator._as_integer(delta, loc)
                new = IntegerValue(iv.value + dv.value, iv.prov)
                from ..memory.values import MVInteger
                model.store(QualType(qty), ptr, MVInteger(qty, new))
                record = self._record("rmw", footprint, True, polarity,
                                      loc)
                self._race_check(footprint, True, "seq_cst", thread, loc)
                return VSpecified(VInteger(iv)), record
        except MemoryError_ as me:
            raise UndefinedBehaviour(me.entry, loc, me.detail) from None
        raise InternalError(f"unknown action {action_kind}")

    def _qualtype(self, ty) -> QualType:
        hit = self._qt_cache.get(id(ty))
        if hit is None:
            hit = (ty, QualType(ty))
            self._qt_cache[id(ty)] = hit
        return hit[1]

    def _record(self, kind: str, footprint, is_write: bool,
                polarity: str, loc) -> ActionRecord:
        return ActionRecord(next(self._action_counter), kind, footprint,
                            is_write, polarity, frozenset(), loc)

    # -- cross-thread data-race detection (vector clocks) -----------------------------------

    def _race_check(self, footprint: Footprint, is_write: bool,
                    order: str, thread: Optional[_Thread], loc) -> None:
        if thread is None or len(self.threads) <= 1:
            return
        tid = thread.tid
        vc = thread.vc
        if order != "na":
            # SC atomics synchronise: join location VC both ways.
            for addr in range(footprint.addr,
                              footprint.addr + footprint.size):
                lvc = self._atomic_vc.setdefault(addr, {})
                thread.vc = vc = _vc_join(vc, lvc)
                self._atomic_vc[addr] = _vc_join(lvc, vc)
            self._bump(thread)
            return
        for addr in range(footprint.addr, footprint.addr + footprint.size):
            lw = self._last_write.get(addr)
            if lw is not None and lw[0] != tid and \
                    not _vc_leq_at(lw[1], vc, lw[0]):
                raise UndefinedBehaviour(
                    UB.DATA_RACE, loc,
                    f"non-atomic access races with write by thread "
                    f"{lw[0]} at 0x{addr:x}")
            if is_write:
                for rtid, rvc in self._last_reads.get(addr, []):
                    if rtid != tid and not _vc_leq_at(rvc, vc, rtid):
                        raise UndefinedBehaviour(
                            UB.DATA_RACE, loc,
                            f"write races with read by thread {rtid} at "
                            f"0x{addr:x}")
                self._last_write[addr] = (tid, dict(vc))
                self._last_reads[addr] = []
            else:
                self._last_reads.setdefault(addr, []).append(
                    (tid, dict(vc)))
        self._bump(thread)

    def _bump(self, thread: _Thread) -> None:
        thread.vc[thread.tid] = thread.vc.get(thread.tid, 0) + 1

    # -- ptrops -------------------------------------------------------------------------------

    def _perform_ptrop(self, request: tuple) -> Value:
        _, op, args, aux, loc = request
        model = self.model
        ev = self.evaluator
        try:
            if op in ("eq", "ne"):
                a = ev._as_pointer(args[0], loc)
                b = ev._as_pointer(args[1], loc)
                r = model.eq(a, b)
                if op == "ne":
                    r = 1 - r
                return VInteger(IntegerValue(r))
            if op in ("lt", "gt", "le", "ge"):
                a = ev._as_pointer(args[0], loc)
                b = ev._as_pointer(args[1], loc)
                sym = {"lt": "<", "gt": ">", "le": "<=", "ge": ">="}[op]
                return VInteger(IntegerValue(
                    model.relational(sym, a, b)))
            if op == "ptrdiff":
                a = ev._as_pointer(args[0], loc)
                b = ev._as_pointer(args[1], loc)
                return VInteger(model.ptrdiff(aux, a, b))
            if op == "intFromPtr":
                p = ev._as_pointer(args[0], loc)
                return VInteger(model.int_from_ptr(p, aux))
            if op == "ptrFromInt":
                iv = ev._as_integer(args[0], loc)
                return VPointer(model.ptr_from_int(iv))
            if op == "ptrValidForDeref":
                p = ev._as_pointer(args[0], loc)
                return VBool(model.valid_for_deref(p, aux))
            if op == "arrayShift":
                p = ev._as_pointer(args[0], loc)
                idx = ev._as_integer(args[1], loc)
                return VPointer(model.array_shift(p, aux, idx))
        except MemoryError_ as me:
            raise UndefinedBehaviour(me.entry, loc, me.detail) from None
        raise InternalError(f"unknown ptrop {op}")

    # -- raw byte services for the mini-libc ---------------------------------------------------

    def _perform_raw(self, request: tuple, thread: Optional[_Thread]):
        _, method, args, loc = request
        model = self.model
        try:
            if method == "load_bytes":
                ptr, n = args
                data = model.load_bytes(ptr, n)
                self._race_check(Footprint(ptr.addr, max(n, 1)), False,
                                 "na", thread, loc)
                return data
            if method == "store_bytes":
                ptr, data = args
                model.store_bytes(ptr, data)
                self._race_check(Footprint(ptr.addr, max(len(data), 1)),
                                 True, "na", thread, loc)
                return None
            if method == "cstring":
                # Optional second element: a byte limit — read at most
                # that many bytes and do not require a terminator
                # (printf %s with an explicit precision, §7.21.6.1p8).
                ptr = args[0]
                limit = args[1] if len(args) > 1 else None
                out = bytearray()
                addr = ptr.addr
                for i in range(1 << 20 if limit is None else limit):
                    byte = model.load_bytes(ptr.with_addr(addr + i), 1)[0]
                    if byte.is_unspecified:
                        return None  # caller decides how to react
                    if byte.value == 0:
                        break
                    out.append(byte.value)
                return bytes(out)
            if method == "realloc":
                ptr, size = args
                return model.realloc(ptr, size) \
                    if hasattr(model, "realloc") else None
            if method == "allocation_of":
                ptr, = args
                if isinstance(ptr.prov, int):
                    return model.allocations.get(ptr.prov)
                return model._find_live_by_address(ptr.addr, 1)
        except MemoryError_ as me:
            raise UndefinedBehaviour(me.entry, loc, me.detail) from None
        raise InternalError(f"unknown raw method {method}")


class _StepLimit(Exception):
    pass


# Requests after which the thread scheduler may switch threads (I/O
# is observable, so it is one too).
_SCHEDULING_POINTS = frozenset(("action", "raw", "stdout", "spawn",
                                "wait"))


def _vc_join(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = max(out.get(k, 0), v)
    return out


def _vc_leq_at(prev: Dict[int, int], cur: Dict[int, int],
               tid: int) -> bool:
    """prev happened-before cur as far as prev's own component goes."""
    return prev.get(tid, 0) <= cur.get(tid, 0)


def run_program(program: K.Program, model: MemoryModel,
                oracle: Optional[Oracle] = None,
                spec: RunSpec = RunSpec()) -> Outcome:
    """Run one execution path of an elaborated Core program's
    ``main`` (other entry points: :meth:`Driver.run`)."""
    return Driver(program, model, oracle, spec).run()
