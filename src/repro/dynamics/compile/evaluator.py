"""The compiled back end's evaluator: one explicit-stack machine.

:class:`CompiledEvaluator` runs the linear code of
:mod:`repro.dynamics.compile.lower`.  Its state is plain data:

* a **context** (:class:`Ctx`) is a pc into an instruction list, a
  slot frame, a stack of heap-allocated caller frames (a C call
  pushes one; C recursion never touches the Python stack, and past
  :data:`~repro.dynamics.evaluator.FRAME_LIMIT` frames the run ends
  in a frame-limit outcome), the action records its race checks read,
  and the lock count of the ``unseq`` scheduling it sits in;
* an interleaved ``unseq`` is a :class:`Level`: the blocked parent
  context, one child context per effectful child (pure children are
  closures evaluated when picked) and the child currently scheduled.
  An ``unseq`` with a single effectful child — the elaborated operand
  shape — needs no context of its own: the child runs *inline* in the
  parent, whose stack of inline levels sits between its ``up`` level
  and whatever it is blocked on;
* a thread's root is a context too, so the driver's one thread
  scheduler (:meth:`repro.dynamics.driver.Driver._schedule`) steps
  tree generators and machine contexts alike.

Requests are direct calls into the driver's one service
(:meth:`~repro.dynamics.driver.Driver._handle`); control goes back to
the thread scheduler only where a thread switch is possible.  After
an action inside an interleaved ``unseq`` every enclosing level whose
scheduled child holds no lock forgets its pick, and the outermost of
them chooses again first — the order in which the tree evaluator's
nested ``_unseq`` generators re-choose.  Natives, ``par`` and
``wait`` stay request generators, driven in place.

Semantic helpers that must agree bit-for-bit with the tree back end
(`_int_math`, `_float_binop`, `_native_pure`, `_function_name`, the
value coercions) are *borrowed* from the tree evaluator class: one
definition, two back ends, no drift.  The tree back end remains the
oracle of record — any behavioural dispute between the two is settled
by ``backend="tree"``, and the golden-verdict conformance suite pins
them byte-identical.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ...core import ast as K
from ...errors import InternalError
from ...memory.base import MemoryModel
from ..evaluator import Evaluator, FRAME_LIMIT, FrameLimit
from ..values import Value, VList, VTuple
from .lower import (
    BLOCK, DONE, GEN, YIELD, LoweredProgram, ensure_lowered,
)

# The machine's own status: back to the thread scheduler (a spawn or
# a wait).
HALT = -6

# Requests after which an enclosing unseq or thread may switch.
_POINTS = frozenset(("action", "raw", "stdout"))


class Chain:
    """A context's scheduling chain — its ``(frame, child)`` pair and
    its parent's chain, innermost first — shared rather than copied,
    so an action deep inside nested unseqs records it in O(1).  It
    answers the ``(frame, child) in chain`` test of
    :mod:`repro.dynamics.explore.por`, like the tree's tuples."""

    __slots__ = ("link", "up")

    def __init__(self, link, up):
        self.link = link
        self.up = up

    def __contains__(self, link) -> bool:
        c = self
        while c:
            if c.link == link:
                return True
            c = c.up
        return False


class Ctx:
    """One machine context (see the module docstring)."""

    __slots__ = ("ins", "pc", "fr", "stack", "recs", "lock", "up", "idx",
                 "chain", "inl", "repick", "blocked", "gen", "resp", "ret",
                 "wait", "value")

    def __init__(self, ins, pc, fr, up=None, idx=0, chain=()):
        self.ins = ins
        self.pc = pc
        self.fr = fr
        self.stack: List[tuple] = []
        self.recs: list = []
        self.lock = 0
        self.up: Optional[Level] = up
        self.idx = idx
        self.chain = chain
        self.inl: List[Level] = []
        # Inline levels below this index kept their pick.
        self.repick = 0
        self.blocked: Optional[Level] = None
        self.gen = None
        self.resp = None
        self.ret: Optional[tuple] = None
        self.wait = False
        self.value: Optional[Value] = None


class Level:
    """One interleaved ``unseq`` over frame ``fr``: ``kids`` holds a
    :class:`Ctx` per effectful child (:data:`_INLINE` for an inline
    one) and a ``(closure, slot)`` pair per pure one, ``cand`` the
    indices of the children not done yet.  An inline level also keeps
    its parent's chain and lock count from before it began."""

    __slots__ = ("parent", "fr", "frame", "hulls", "kids", "ctxs",
                 "cand", "current", "chain", "lock0")

    def __init__(self, parent, fr, frame, hulls, kids):
        self.parent: Ctx = parent
        self.fr = fr
        self.frame = frame
        self.hulls = hulls
        self.kids: list = kids
        self.ctxs: List[Ctx] = []
        self.cand = tuple(range(len(kids)))
        self.current = None
        self.chain = ()
        self.lock0 = 0


#: The child of an inline level (it runs in the parent context).
_INLINE = object()
#: The join's view of an ``unseq`` whose children were all pure.
_NO_CONTEXTS = Level(None, None, 0, None, [])


class _SlotEnvView:
    """A read-only ``env.get(name)`` adapter over a slot frame, fed to
    :func:`repro.statics.resolve_hull` so static footprint hulls
    resolve against live frame values exactly as they would against
    the tree evaluator's dict environment."""

    __slots__ = ("fr", "slots")

    def __init__(self, fr, slots):
        self.fr = fr
        self.slots = slots

    def get(self, name):
        i = self.slots.get(name)
        return None if i is None else self.fr[i]


class CompiledEvaluator:
    """The explicit-stack machine executing lowered code."""

    def __init__(self, program: K.Program, model: MemoryModel,
                 static_prune: bool = False):
        self.program = program
        self.model = model
        self.impl = program.impl
        self.tags = program.tags
        self.static_prune = static_prune
        self.static_unseq_skips = 0
        self.global_env: Dict[str, Value] = {}
        # Per-evaluator (not global) so deterministic replays reproduce
        # identical unseq frame ids — same contract as the tree back
        # end.
        self._unseq_counter = itertools.count(1)
        from ...libc.builtins import NATIVE_PROCS
        self.native_procs = dict(NATIVE_PROCS)
        self.lowered: LoweredProgram = ensure_lowered(program)
        # Static annotations are positional (collect_unseqs order ==
        # stable instruction id), and they are applied to *this*
        # program object's AST nodes.  Resolving the node table from
        # self.program rather than the lowered object keeps the
        # mapping correct when the warm-closure cache hands back a
        # LoweredProgram built from an earlier, equivalent program
        # object (same source ⇒ same deterministic elaboration ⇒ same
        # positional ids; only the node identities differ).
        from ...statics import collect_unseqs
        self._unseq_nodes = collect_unseqs(program)
        # Calls resolved onto the direct frame push vs the generic
        # native route (compile.call_fast / compile.call_generic).
        self.call_fast = 0
        self.call_generic = 0
        # CHERI capability-offset hook, resolved once instead of per
        # binop (the lowered binop closures read it directly).
        self._int_hook = getattr(model, "int_binop", None)
        # Machine state.  ``handle`` is the driver's request service;
        # ``seq`` means the oracle always picks the first candidate,
        # so every unseq runs its children in program order; ``ctx``,
        # ``chain`` and ``preempt`` describe the running context;
        # ``frames`` counts the live C frames.
        self.handle = None
        self.threads: Dict[int, object] = {}
        self.seq = False
        self.thread = None
        self.multi = False
        self.ctx: Optional[Ctx] = None
        self.chain = ()
        self.preempt = False
        self.frames = 0

    def attach(self, driver, sequential: bool) -> None:
        self.handle = driver._handle
        self.threads = driver.threads
        self.seq = sequential

    # Shared semantic helpers: borrowed from the tree evaluator so the
    # two back ends cannot drift apart.  They only touch attributes
    # both classes define (impl, tags, model).
    _as_integer = Evaluator.__dict__["_as_integer"]
    _as_pointer = Evaluator.__dict__["_as_pointer"]
    _as_ctype = Evaluator.__dict__["_as_ctype"]
    _int_math = Evaluator._int_math
    _float_binop = Evaluator._float_binop
    _native_pure = Evaluator._native_pure
    _function_name = Evaluator._function_name

    def _static_info(self, uidx: int):
        """The static-analysis annotation for the unseq instruction
        with stable id ``uidx`` — the compiled-code analogue of the
        tree's ``getattr(node, "_static_unseq", None)``."""
        if 0 <= uidx < len(self._unseq_nodes):
            return getattr(self._unseq_nodes[uidx], "_static_unseq",
                           None)
        return None

    # ---- entry points (root contexts) -------------------------------------

    def call_proc(self, name: str, args: List[Value], loc) -> Ctx:
        """A root context running procedure ``name`` on ``args``: the
        entry procedure, or a thread's start routine."""
        lp = self.lowered.procs.get(name)
        if lp is None:
            ctx = Ctx(None, 0, None)
            ctx.gen = self._native(name, args, loc)
            return ctx
        return Ctx(lp.code, 0, self._frame(lp, name, args, loc))

    def run_glob_init(self, g: K.GlobDef) -> Ctx:
        """A root context evaluating one global's initialiser."""
        lg = self.lowered.globs[g.name]
        return Ctx(lg.code, 0, [None] * lg.frame_size)

    def _frame(self, lp, name, vals, loc) -> list:
        nparams = len(lp.params)
        if len(vals) != nparams and not lp.variadic:
            raise InternalError(
                f"arity mismatch calling {name}: {len(vals)} args for "
                f"{nparams} params", loc)
        fr: List[Optional[Value]] = [None] * lp.frame_size
        for slot, v in zip(lp.param_slots, vals):
            fr[slot] = v
        if lp.variadic:
            fr[lp.varargs_slot] = VList(tuple(vals[nparams:]))
        return fr

    def _native(self, name, vals, loc):
        native = self.native_procs.get(name)
        if native is None:
            raise InternalError(f"unknown procedure {name}", loc)
        return native(self, vals, loc)

    # ---- services for instructions ------------------------------------------

    def enter(self, lp, vals, loc, code, dest, nxt, fr, lock) -> int:
        """Call lowered procedure ``lp``: push the caller's frame (its
        ``code``, resume pc ``nxt``, frame and result slot) and switch
        the running context to the callee's code and a fresh frame.
        ``lock`` brackets the call for enclosing unseqs (C calls are
        indeterminately sequenced, §5.6)."""
        ffr = self._frame(lp, lp.name, vals, loc)
        if self.frames >= FRAME_LIMIT:
            raise FrameLimit()
        self.frames += 1
        ctx = self.ctx
        ctx.lock += lock
        ctx.stack.append((code, nxt, fr, dest, lock))
        ctx.ins = lp.code
        ctx.fr = ffr
        ctx.pc = 0
        return -1   # RELOAD

    def call_native(self, name, vals, loc, dest, nxt, lock) -> int:
        gen = self._native(name, vals, loc)
        self.ctx.lock += lock
        return self.drive(gen, dest, nxt, lock)

    def drive(self, gen, dest, nxt, lock) -> int:
        """Hand the running context a request generator; its return
        value goes to ``dest`` and execution resumes at ``nxt``."""
        ctx = self.ctx
        ctx.gen = gen
        ctx.resp = None
        ctx.ret = (dest, nxt, lock)
        return GEN

    def par(self, starts, fr, dest, nxt) -> int:
        ins = self.ctx.ins
        return self.drive(_par([Ctx(ins, pc, fr) for pc in starts]),
                          dest, nxt, 0)

    def interleave(self, site, fr) -> Optional[int]:
        """Begin an ``unseq`` at ``site``: None when its children run
        in program order (statically commuting, or a sequential
        oracle), else block the running context on a new
        :class:`Level` (the tree's ``_unseq`` metadata: frame id,
        candidates, statically resolved footprint hulls)."""
        static = self._static_info(site.uidx) if self.static_prune \
            else None
        if static is not None and static[0]:
            self.static_unseq_skips += 1
            return None
        if self.seq:
            return None
        hulls = None
        if static is not None:
            from ...statics import resolve_hull
            env = _SlotEnvView(fr, site.env_slots)
            hulls = tuple(resolve_hull(info, env, self.global_env,
                                       self.model)
                          for info in static[1])
        frame = next(self._unseq_counter)
        ctx = self.ctx
        kids = list(site.kids)
        lv = Level(ctx, fr, frame, hulls, kids)
        eff = site.eff
        if not eff:
            # Only pure children: every choice is made right here.
            self._pick(lv)
            fr[site.us] = _NO_CONTEXTS
            return site.join
        fr[site.us] = lv
        if len(eff) == 1:
            # One effectful child: it runs inline, right after the
            # choices that schedule it first.
            k = eff[0]
            start = kids[k]
            kids[k] = _INLINE
            lv.chain = ctx.chain
            lv.lock0 = ctx.lock
            ctx.inl.append(lv)
            ctx.chain = self.chain = Chain((frame, k), lv.chain)
            self.preempt = True
            self._pick(lv)
            return start
        for i in eff:
            kids[i] = Ctx(ctx.ins, kids[i], fr, lv, i,
                          Chain((frame, i), ctx.chain))
            lv.ctxs.append(kids[i])
        ctx.blocked = lv
        ctx.pc = site.join
        return BLOCK

    def end_child(self, lv, fr, us, join) -> int:
        """An effectful child of interleaved ``lv`` reached its end: a
        child context is done; an inline child leaves the parent's
        inline levels, and the remaining (pure) children are chosen
        before the join."""
        if lv.ctxs:
            return DONE
        ctx = self.ctx
        ctx.inl.pop()
        ctx.chain = self.chain = lv.chain
        self.preempt = self.multi or ctx.up is not None or bool(ctx.inl)
        lv.cand = tuple([i for i in lv.cand if lv.kids[i] is not _INLINE])
        self._pick(lv)
        fr[us] = _NO_CONTEXTS
        return join

    # ---- the machine loop -----------------------------------------------------

    def advance(self, t) -> bool:
        """Run thread ``t`` until the thread scheduler must decide: it
        finished, spawned, waits, or — with another thread alive —
        performed an action.  Returns True, a tree thread's
        scheduling point."""
        self.thread = t
        self.multi = multi = len(self.threads) > 1
        ctx = t.resume if t.resume is not None else t.gen
        if ctx.wait:
            ctx.wait = False
            ctx.resp = t.response
        while True:
            # Descend to the context to run, choosing (outermost first)
            # at every level that forgot its pick.
            while True:
                self.ctx = ctx
                for il in ctx.inl[ctx.repick:]:
                    if il.current is None:
                        self._pick(il)
                ctx.repick = len(ctx.inl)
                lv = ctx.blocked
                if lv is None:
                    break
                kid = lv.current or self._pick(lv)
                if kid is None:
                    ctx.blocked = None      # all done: resume at join
                    break
                ctx = kid
            self.chain = ctx.chain
            self.preempt = multi or ctx.up is not None or bool(ctx.inl)
            st = self._exec(ctx)
            if st == YIELD:
                # Every enclosing level whose scheduled child holds no
                # lock forgets its pick; resume at the outermost.
                c = ctx
                while True:
                    inl = c.inl
                    k = len(inl)
                    while k and c.lock == inl[k - 1].lock0:
                        k -= 1
                        inl[k].current = None
                        ctx = c
                    c.repick = min(c.repick, k)
                    if k or c.lock or c.up is None:
                        break
                    c.up.current = None
                    c = ctx = c.up.parent
                if multi:
                    t.resume = ctx
                    return True
            elif st == DONE:
                lv = ctx.up
                if lv is None:
                    t.done = True
                    t.result = ctx.value
                    return True
                lv.cand = tuple([i for i in lv.cand if i != ctx.idx])
                lv.current = None
                ctx.up = None       # no cycle through a finished child
                ctx = lv.parent
            elif st == HALT:
                t.resume = ctx
                return True

    def _pick(self, lv: Level) -> Optional[Ctx]:
        """Choose the next child of ``lv`` through the oracle (pure
        children picked along the way are evaluated on the spot);
        None once every child is done."""
        fr = lv.fr
        while lv.cand:
            cand = lv.cand
            meta = (lv.frame, cand) if lv.hulls is None else \
                (lv.frame, cand, tuple([lv.hulls[i] for i in cand]))
            i = cand[self.handle(("choose", "unseq", len(cand), meta),
                                 self.thread)]
            kid = lv.kids[i]
            if kid.__class__ is not tuple:    # a context, or inline
                lv.current = kid
                return kid
            p, slot = kid
            v = p(self, fr)
            if slot is not None:
                fr[slot] = v
            lv.cand = tuple([j for j in cand if j != i])
        return None

    def _exec(self, ctx: Ctx) -> int:
        """Run ``ctx``'s instructions until a status other than a
        call/return or a generator hand-off."""
        while True:
            if ctx.gen is not None:
                st = self._drive(ctx)
                if st:
                    return st
            ins = ctx.ins
            fr = ctx.fr
            pc = ctx.pc
            while pc >= 0:
                pc = ins[pc](self, fr)
            if pc != -1 and pc != GEN:
                return pc

    def _drive(self, ctx: Ctx) -> int:
        """Drive ``ctx``'s request generator: 0 once it returned (its
        value stored, the context back on its code), else a status."""
        gen = ctx.gen
        resp = ctx.resp
        t = self.thread
        while True:
            try:
                req = gen.send(resp)
            except StopIteration as stop:
                ctx.gen = None
                if ctx.ret is None:
                    ctx.value = stop.value
                    return DONE
                dest, ctx.pc, lock = ctx.ret
                ctx.lock -= lock
                if dest is not None:
                    ctx.fr[dest] = stop.value
                return 0
            kind = req[0]
            if kind == "action" and self.chain:
                req = req[:6] + (self.chain,)
            resp = self.handle(req, t)
            if kind in _POINTS:
                if self.preempt:
                    ctx.resp = resp
                    return YIELD
            elif kind == "spawn":
                ctx.resp = resp
                return HALT
            elif kind == "wait":
                ctx.wait = True
                return HALT


def _par(kids):
    tids = []
    for kid in kids:
        tids.append((yield ("spawn", kid)))
    results = []
    for tid in tids:
        results.append((yield ("wait", tid)))
    return VTuple(tuple(results))
