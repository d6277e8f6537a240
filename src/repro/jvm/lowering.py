"""Lowering: statement lists to generated Python functions, once per run.

The first time a statement list runs at a tier (baseline, optimized,
inlined) under an inline node, :func:`lower_run`'s generator emits the
source of one Python function that runs the whole list, every statement
as inline code, with everything that cannot change during the run already
resolved -- the statement kind, the node's decision at each call site and
the shape of argument tuples.  Run values (cycle products, call targets,
marker frames, sites, class names, resolvers) are the function's
parameter defaults, never its text, so lists of equal shape share one
code object across every run in the process.  Each run instantiates its
functions afresh and drops them when it returns (see DESIGN.md, "Lowered
execution").
"""

from __future__ import annotations

import os
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Optional

from repro.aos.cost_accounting import APP, COMPILATION
from repro.compiler.compiled_method import (GUARDED, PLAN_DOMINATED,
                                            PLAN_OSR_EXIT)
from repro.jvm.errors import ExecutionError
from repro.jvm.frames import Frame
from repro.jvm.program import (
    E_ADD, E_ARG, E_CONST, E_LOCAL, E_LT, E_MOD, E_MUL, E_PICK, E_SUB,
    S_IF, S_INTERFACE_CALL, S_LET, S_LOOP, S_NEW, S_NEWPOOL, S_RETURN,
    S_STATIC_CALL, S_VIRTUAL_CALL, S_WORK,
)
from repro.jvm.values import Instance

if TYPE_CHECKING:
    from repro.jvm.interpreter import Machine

#: Hard cap on source-level stack depth; exceeding it is a workload bug.
#: Kept below what Python's default recursion limit (1000) can host.  A
#: simulated frame costs one Python frame for ``invoke`` and one for its
#: generated function (a method's first baseline invocation adds the
#: loop over its statements), plus two per enclosing baseline loop (the
#: OSR helper and the loop body's function); an ``If``, a call statement
#: and a spliced leaf cost none, and an inlined body that is not a leaf
#: costs one.  A recursion through ``Loop`` -> ``If`` -> call at the
#: baseline tier costs four, 880 frames at the cap, leaving room for the
#: caller's frames and a tick handler's.  Events fire inside those
#: frames, never around a call, so a sink adds none.
MAX_STACK_DEPTH = 220

#: Lowering tiers: index into the per-run execution multipliers.
BASELINE, OPTIMIZED, INLINED = 0, 1, 2

_CALLS = (S_STATIC_CALL, S_VIRTUAL_CALL, S_INTERFACE_CALL)

_OPERATORS = {E_ADD: "+", E_SUB: "-", E_MUL: "*", E_MOD: "%"}

#: Returned by a loop that transferred onto optimized code and already ran
#: the rest of its statement list there: the list is finished and fell
#: through without a ``Return``.
_DONE = object()

#: The file name generated code is compiled under.  It lies inside this
#: package, so profilers that total self time by source file count the
#: generated code as part of ``repro.jvm``.
GENERATED_FILENAME = os.path.join(os.path.dirname(__file__), "generated.py")

#: Generated source -> compiled code, shared by every run in the process.
#: A pure cache: the source holds no run value, so equal text always
#: compiles to the same code.
_CODE: dict = {}


def _leaf_shape(body) -> Optional[tuple]:
    """``(cost, value)`` when ``body`` is ``Work(cost)`` followed by nothing
    or by a bare or integer-constant ``Return``; else ``None``."""
    if not 1 <= len(body) <= 2 or body[0].kind != S_WORK:
        return None
    if len(body) == 1:
        return body[0].cost, 0
    ret = body[1]
    if ret.kind != S_RETURN:
        return None
    if ret.expr is None:
        return body[0].cost, 0
    if ret.expr.kind == E_CONST and type(ret.expr.value) is int:
        return body[0].cost, ret.expr.value
    return None


class _Resolutions(dict):
    """``class name -> method`` dispatch results for one selector, filled
    on first use (resolution depends only on the program)."""

    __slots__ = ("resolve", "selector")

    def __missing__(self, klass: str):
        method = self[klass] = self.resolve(klass, self.selector)
        return method


def _watched_locals(on_local) -> list:
    """The seed ``[0]`` of a run whose sink consumes ``local``: every
    activation's locals grow from it and fire ``on_local(locals_, index,
    is_read)`` on each slot access, before a read and after a write."""
    class WatchedLocals(list):
        __slots__ = ()

        def __getitem__(self, index):
            on_local(self, index, True)
            return list.__getitem__(self, index)

        def __setitem__(self, index, value):
            list.__setitem__(self, index, value)
            on_local(self, index, False)

        def __mul__(self, count):
            return WatchedLocals(list.__mul__(self, count))
    return WatchedLocals([0])


def _overflow(verb: str, method, depth: int) -> ExecutionError:
    return ExecutionError(
        f"stack overflow {verb} {method.id} at depth {depth}")


def _non_object(site: int, value) -> ExecutionError:
    return ExecutionError(
        f"virtual call at site {site} on non-object {value!r}")


def _non_pool(value):
    raise ExecutionError(f"Pick from non-pool value {value!r}")


class _Source:
    """The text of one generated function, ``unit(args, locals_, ...)``,
    and the defaults of the parameters after ``locals_``: run-wide names
    (``m``, ``stats``, ...) and one ``v<n>`` per bound value."""

    __slots__ = ("shared", "lines", "params", "values", "temps")

    def __init__(self, shared: dict) -> None:
        self.shared = shared
        self.lines: list = []
        self.params: dict = {}
        self.values = 0
        self.temps = 0

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def use(self, *names: str) -> None:
        """Make run-wide values parameters of the function."""
        for name in names:
            if name not in self.params:
                self.params[name] = self.shared[name]

    def bind(self, value) -> str:
        """A fresh parameter defaulting to ``value``."""
        name = "v%d" % self.values
        self.values += 1
        self.params[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return "t%d" % self.temps

    def function(self) -> FunctionType:
        source = "def unit(args, locals_%s):\n%s\n" % (
            "".join(", " + name for name in self.params),
            "\n".join(self.lines) or "    pass")
        code = _CODE.get(source)
        if code is None:
            module = compile(source, GENERATED_FILENAME, "exec")
            code = next(const for const in module.co_consts
                        if isinstance(const, CodeType))
            # A name of its own per code object: profilers key functions
            # by (file, line, name), and would merge every unit otherwise.
            code = _CODE[source] = code.replace(co_name="unit%d" % len(_CODE))
        return FunctionType(code, globals(), None,
                            tuple(self.params.values()))


def lower_run(m: Machine):
    """Bind one run of ``m``; return ``(invoke, release)``.

    Everything fixed for the run -- the machine's state objects, the
    execution multipliers and the events the sink consumes -- is read
    once here.  Generated functions are memoised in the tables below, and
    ``release`` empties them when the run returns.

    The charge sequence emitted for every application charge is
    :meth:`Machine.charge` for that component: the same float added to
    the clock, then to the accounting, then the same tick check.
    """
    costs = m.costs
    stats = m.stats
    stack = m.stack
    acc = m.accounting.cycles
    code_cache = m.code_cache
    fire = m._fire_tick
    mults = (costs.baseline_exec_mult, costs.opt_exec_mult,
             costs.opt_exec_mult * (1.0 - costs.inline_work_discount))

    osr_liveness = m.osr_liveness
    events = m.events
    on_dispatch = getattr(events, "dispatch", None)
    on_elided = getattr(events, "elided", None)
    on_osr_entry = getattr(events, "osr_entry", None)
    on_deopt_exit = getattr(events, "deopt_exit", None)
    on_local = getattr(events, "local", None)
    on_progress = getattr(events, "progress", None)
    points = events.loops if on_progress is not None else {}
    # Every activation's locals are ``zeros * num_locals``.  When the sink
    # consumes ``local`` they are a list whose slot reads and writes fire
    # it, so no statement or call needs a test of its own.
    zeros = [0] if on_local is None else _watched_locals(on_local)

    # Baseline lists are not memoised in ``units``: ``bodies`` keeps each
    # baseline method body (see ``baseline``), and a baseline loop body
    # belongs to the one OSR helper of the body it sits in.
    units: dict = {}        # (id(list), start, stop, tier, node) -> function
    resolutions: dict = {}  # selector -> _Resolutions
    bodies: dict = {}       # method (baseline) or root node -> function
    invoked: set = set()    # methods invoked at the baseline tier
    leaves: list = []       # the run's first baseline leaf function

    def release() -> None:
        for table in (units, resolutions, bodies, invoked, leaves):
            table.clear()

    # -- invocation ---------------------------------------------------------

    def invoke(method, args: tuple, site, cycles=None):
        """Out-of-line invocation of ``method`` (its own physical frame),
        first charging the call's ``cycles`` when given."""
        if cycles is not None:
            m.clock = clock = m.clock + cycles
            acc[APP] += cycles
            if clock >= m.next_event and not m._in_tick:
                fire()
        if len(stack) >= MAX_STACK_DEPTH:
            raise _overflow("invoking", method, len(stack))
        stats.calls += 1
        stack.append(Frame(method, site, False))
        try:
            compiled = code_cache.opt_version(method.id)
            if compiled is not None:
                root = compiled.root
                run = bodies.get(root)
                if run is None:
                    run = bodies[root] = unit(method.body, 0, OPTIMIZED,
                                              root)
            else:
                run = bodies.get(method)
                if run is None:
                    run = baseline(method)
            result = run(args, zeros * method.num_locals)
            return 0 if result is None or result is _DONE else result
        finally:
            stack.pop()

    def baseline(method):
        """``method``'s baseline body where none is kept, compiling its
        baseline code on first use.

        A body is kept from its second invocation on.  Its first runs one
        generated function per statement: most bodies that run once are
        initializers, straight-line lists whose whole text is unique while
        their statements' texts repeat, so this compiles almost nothing.
        A leaf body is kept at once.
        """
        if not code_cache.has_baseline(method.id):
            # ``self_cycles`` is passed explicitly: the charge can fire a
            # timer tick whose organizer spans nest inside this one, and
            # the accounting delta would then fold their compilation-
            # thread cycles into this span.
            span_id = m.telemetry.begin_span(
                COMPILATION, "baseline_compile", method=method.id)
            cycles = code_cache.compile_baseline(method)
            m.charge(COMPILATION, cycles)
            m.telemetry.end_span(span_id, self_cycles=cycles,
                                 bytecodes=method.bytecodes)
        body = method.body
        leaf = _leaf_shape(body)
        if leaf is not None:
            run = bodies[method] = leaf_unit(*leaf)
            return run
        if method in invoked:
            run = bodies[method] = unit(body, 0, BASELINE, None)
            return run
        invoked.add(method)
        fns = [unit(body, index, BASELINE, None, index + 1)
               for index in range(len(body))]

        def run_once(args, locals_):
            for fn in fns:
                result = fn(args, locals_)
                if result is not None:
                    return result
        return run_once

    shared = {"m": m, "stats": stats, "stack": stack, "acc": acc,
              "fire": fire, "invoke": invoke, "zeros": zeros,
              "mark_loaded": m.hierarchy.mark_loaded,
              "on_dispatch": on_dispatch, "on_elided": on_elided,
              "on_deopt_exit": on_deopt_exit, "on_progress": on_progress}

    def leaf_unit(cost: int, value: int):
        """The baseline function of a leaf body.  Every leaf has the same
        text, so it is emitted once per run; later leaves share its code
        and differ only in their first three defaults."""
        cycles = cost * mults[BASELINE]
        if leaves:
            first = leaves[0]
            return FunctionType(first.__code__, globals(), None,
                                (cost, cycles, value)
                                + first.__defaults__[3:])
        src = _Source(shared)
        names = src.bind(cost), src.bind(cycles), src.bind(value)
        emit_work(src, 1, names[0], names[1])
        src.line(1, f"return {names[2]}")
        leaves.append(src.function())
        return leaves[0]

    def unit(body, start: int, tier: int, node, stop: Optional[int] = None):
        """The generated function running ``body[start:stop]`` at ``tier``
        under ``node``: ``unit(args, locals_)`` returns the list's result,
        or ``None`` when it falls through.  A node without decisions
        shares the node-free function of its tier."""
        if node is not None and not node.decisions:
            node = None
        stop = len(body) if stop is None else stop
        key = (id(body), start, stop, tier, node)
        fn = units.get(key)
        if fn is None:
            src = _Source(shared)
            emit_list(src, body, start, stop, 1, tier, node, True)
            fn = src.function()
            if tier != BASELINE:
                units[key] = fn
        return fn

    def osr_loop(stmt, body, position: int):
        """``loop(args, locals_, count)``: a baseline loop that counts back
        edges, requests compilation past the threshold, and polls for
        installed optimized code to transfer onto (on-stack replacement).

        After a transfer the loop finishes its iterations at the optimized
        tier, then runs the rest of ``body`` (the list it sits in) there
        too and returns :data:`_DONE`; enclosing lists stay baseline.
        """
        index = stmt.index_local
        point = points.get(id(stmt))
        body_at_baseline = unit(stmt.body, 0, BASELINE, None)
        poll = costs.osr_poll_period
        threshold = costs.osr_backedge_threshold
        # Mapping the live frame state into the optimized layout is the
        # OSR transition's dominant cost.
        map_in = (None if osr_liveness is None else
                  len(osr_liveness.get(id(stmt), ())) * costs.osr_map_in_cost)

        def loop(args, locals_, count):
            frame = stack[-1]
            method_id = frame.method.id
            backedges = m.backedge_counts
            edges = backedges.get(method_id, 0)
            run = body_at_baseline
            root = None
            for i in range(count):
                locals_[index] = i
                result = run(args, locals_)
                # ``_DONE``: a nested loop transferred and finished this
                # iteration's list at the optimized tier.
                if result is not None and result is not _DONE:
                    backedges[method_id] = edges + i + 1
                    return result
                if point is not None:
                    on_progress(point)
                if (i + 1) % poll == 0:
                    if (edges + i + 1 >= threshold
                            and method_id not in m._osr_notified
                            and m.osr_handler is not None):
                        m._osr_notified.add(method_id)
                        m.osr_handler(method_id)
                    if root is None:
                        compiled = code_cache.opt_version(method_id)
                        if compiled is not None:
                            root = compiled.root
                            run = unit(stmt.body, 0, OPTIMIZED, root)
                            stats.osr_transfers += 1
                            frame.osr = True
                            if map_in is not None:
                                m.charge(APP, map_in)
                            if on_osr_entry is not None:
                                on_osr_entry(method_id, stmt, locals_)
                            m.telemetry.instant(APP, "osr_transfer",
                                                method=method_id)
            backedges[method_id] = edges + count
            if root is None:
                return None
            result = unit(body, position + 1, OPTIMIZED, root)(args, locals_)
            return _DONE if result is None else result
        return loop

    # -- statement lists ----------------------------------------------------

    def emit_list(src, body, start: int, stop: int, depth: int, tier: int,
                  node, top: bool) -> None:
        """Statements ``body[start:stop]`` at indentation ``depth``.

        ``top`` says ``body`` is the function's own list: a finished OSR
        loop there returns :data:`_DONE` to the caller, while one in an
        ``If`` branch skips the rest of the branch.
        """
        for index in range(start, stop):
            stmt = body[index]
            k = stmt.kind
            if k == S_WORK:
                emit_work(src, depth, src.bind(stmt.cost),
                          src.bind(stmt.cost * mults[tier]))
            elif k in _CALLS:
                decision = (None if node is None
                            else node.decisions.get(stmt.site))
                emit_call(src, depth, stmt, tier, decision)
            elif k == S_RETURN:
                src.line(depth, "return " + (
                    "0" if stmt.expr is None else expr(src, stmt.expr)))
                return
            elif k == S_IF:
                src.line(depth, f"if {expr(src, stmt.cond)}:")
                emit_block(src, stmt.then_body, depth + 1, tier, node)
                if stmt.else_body:
                    src.line(depth, "else:")
                    emit_block(src, stmt.else_body, depth + 1, tier, node)
            elif k == S_LOOP and tier == BASELINE and costs.osr_enabled:
                helper = src.bind(osr_loop(stmt, body, index))
                src.line(depth, f"r = {helper}(args, locals_, "
                                f"{expr(src, stmt.count)})")
                src.line(depth, "if r is not None:")
                if top:
                    src.line(depth + 1, "return r")
                    continue
                src.line(depth + 1, "if r is not _DONE:")
                src.line(depth + 2, "return r")
                if index + 1 < stop:
                    src.line(depth, "else:")
                    emit_list(src, body, index + 1, stop, depth + 1, tier,
                              node, False)
                return
            elif k == S_LOOP:
                src.line(depth, f"for i in range({expr(src, stmt.count)}):")
                src.line(depth + 1, "locals_[%d] = i" % stmt.index_local)
                emit_list(src, stmt.body, 0, len(stmt.body), depth + 1, tier,
                          node, False)
                point = points.get(id(stmt))
                if point is not None:
                    src.use("on_progress")
                    src.line(depth + 1, f"on_progress({src.bind(point)})")
            elif k == S_LET:
                src.line(depth, "locals_[%d] = %s" % (stmt.dst,
                                                      expr(src, stmt.expr)))
            elif k == S_NEW:
                name = src.bind(stmt.class_name)
                emit_load(src, depth, name)
                src.line(depth, "locals_[%d] = Instance(%s)" % (stmt.dst,
                                                                name))
            elif k == S_NEWPOOL:
                names = src.bind(stmt.class_names)
                src.line(depth, f"for c in {names}:")
                emit_load(src, depth + 1, "c")
                src.line(depth, "locals_[%d] = tuple(map(Instance, %s))"
                         % (stmt.dst, names))
            else:  # pragma: no cover
                raise ExecutionError(f"unknown statement kind {k}")

    def emit_block(src, body, depth: int, tier: int, node) -> None:
        before = len(src.lines)
        emit_list(src, body, 0, len(body), depth, tier, node, False)
        if len(src.lines) == before:
            src.line(depth, "pass")

    def emit_work(src, depth: int, cost: str, cycles: str) -> None:
        src.use("stats")
        src.line(depth, f"stats.work_cycles += {cost}")
        emit_charge(src, depth, cycles)

    def emit_charge(src, depth: int, cycles: str) -> None:
        src.use("m", "acc", "fire")
        src.line(depth, f"m.clock = clock = m.clock + {cycles}")
        src.line(depth, f"acc[APP] += {cycles}")
        src.line(depth, "if clock >= m.next_event and not m._in_tick:")
        src.line(depth + 1, "fire()")

    def emit_load(src, depth: int, class_name: str) -> None:
        src.use("m", "mark_loaded")
        src.line(depth, f"if mark_loaded({class_name}) "
                        "and m.class_load_handler is not None:")
        src.line(depth + 1, f"m.class_load_handler({class_name})")

    # -- calls ----------------------------------------------------------------

    def emit_call(src, depth: int, stmt, tier: int, decision) -> None:
        if stmt.kind == S_STATIC_CALL:
            call_args = arg_tuple(src, [], stmt.args)
            if decision is not None:
                src.line(depth, "call_args = " + call_args)
                emit_enter(src, depth, decision.sole, stmt, None)
                return
            emit_invoke(src, depth, src.bind(m.program.method(stmt.target)),
                        call_args, src.bind(stmt.site), stmt.dst,
                        costs.call_overhead * mults[tier])
            return
        site = src.bind(stmt.site)
        src.use("stats")
        src.line(depth, "stats.virtual_calls += 1")
        src.line(depth, "recv = " + expr(src, stmt.receiver))
        src.line(depth, "if not isinstance(recv, Instance):")
        src.line(depth + 1, f"raise _non_object({site}, recv)")
        src.line(depth, "call_args = " + arg_tuple(src, ["recv"], stmt.args))
        dispatch_cost = (costs.interface_dispatch
                         if stmt.kind == S_INTERFACE_CALL
                         else costs.virtual_dispatch)

        if decision is not None and decision.kind != GUARDED:
            # DIRECT: statically bound by CHA, no guard executed.
            option = decision.sole
            if on_dispatch is not None:
                src.use("on_dispatch")
                src.line(depth, f"on_dispatch({site}, "
                                f"{src.bind(option.target.id)})")
            emit_enter(src, depth, option, stmt, None)
            return

        table = src.bind(resolutions_for(stmt.selector))
        src.line(depth, f"resolved = {table}[recv.klass]")
        if on_dispatch is not None:
            src.use("on_dispatch")
            src.line(depth, f"on_dispatch({site}, resolved.id)")
        if decision is None:
            src.line(depth, "stats.dispatches += 1")
            emit_invoke(src, depth, "resolved", "call_args", site, stmt.dst,
                        dispatch_cost * mults[tier])
            return
        # GUARDED: run each option's step in order, then fall back, as
        # the site's guard plan says.
        emit_steps(src, depth, stmt, site, decision, 0,
                   mults[tier], dispatch_cost)

    def emit_steps(src, depth: int, stmt, site: str, decision, index: int,
                   mult: float, dispatch_cost: float) -> None:
        """Option ``index`` of a guarded site onward, each step entering
        its option or going on to the next, then the fallback."""
        plan, options = decision.plan, decision.options
        if index == len(options):
            if plan.kind == PLAN_OSR_EXIT:
                # Broken speculation at a cheap-exit OSR point: map the
                # site's pruned live state out of the optimized frame,
                # then finish the dispatch at the baseline tier (the exit
                # is expensive exactly so the fast path could carry no
                # guard).
                src.line(depth, "stats.deopt_exits += 1")
                emit_charge(src, depth, src.bind(
                    len(plan.live) * costs.osr_map_out_cost
                    + dispatch_cost * mults[BASELINE]))
                if on_deopt_exit is not None:
                    src.use("on_deopt_exit")
                    src.line(depth, f"on_deopt_exit({site}, "
                                    f"{src.bind(plan.live)}, locals_)")
                emit_invoke(src, depth, "resolved", "call_args", site,
                            stmt.dst, None)
                return
            # Every guard failed: fall back to full dispatch.
            src.line(depth, "stats.guard_misses += 1")
            src.line(depth, "stats.dispatches += 1")
            emit_invoke(src, depth, "resolved", "call_args", site, stmt.dst,
                        dispatch_cost * mult)
            return
        option = options[index]
        target = src.bind(option.target)
        elided = plan.elided(index, len(options))
        if elided is None:
            src.line(depth, "stats.guard_tests += 1")
            emit_charge(src, depth, src.bind(costs.guard_test * mult))
            src.line(depth, f"if {target} is resolved:")
        elif elided == PLAN_OSR_EXIT:
            # Cheap-exit OSR point: the compiled code carries no test at
            # all -- entry happens through the dispatch the machine
            # already resolved, so a matching target is entered at zero
            # guard cost and a mismatch falls through toward the
            # deoptimization exit.
            src.line(depth, f"if {target} is resolved:")
            src.line(depth + 1, "stats.deopt_entries += 1")
        elif elided == PLAN_DOMINATED:
            # Branch on the dominating guard's already-computed outcome,
            # whose passing implies this guard would pass too; its miss
            # is a miss here too.
            dom_selector, dom_target = plan.dominator
            src.line(depth, "if %s[recv.klass] is %s:" % (
                src.bind(resolutions_for(dom_selector)),
                src.bind(dom_target)))
            emit_elided(src, depth + 1, site, elided, option)
        else:
            # "preexist" (invalidation protects the entry) and
            # "exhaustive" (every earlier guard missing implies this one
            # hits) jump straight into the inlined body at zero cost.
            # Entering ``target`` (not ``resolved``) is the point: if the
            # argument were wrong the wrong body would run, which is what
            # the elision-replay checker detects.
            emit_elided(src, depth, site, elided, option)
            emit_enter(src, depth, option, stmt, target)
            return
        emit_enter(src, depth + 1, option, stmt, target)
        src.line(depth, "else:")
        emit_steps(src, depth + 1, stmt, site, decision, index + 1, mult,
                   dispatch_cost)

    def emit_elided(src, depth: int, site: str, kind: str, option) -> None:
        src.line(depth, "stats.elided_entries += 1")
        if on_elided is not None:
            src.use("on_elided")
            src.line(depth, "on_elided(%s, %s, %s, resolved.id)" % (
                site, src.bind(kind), src.bind(option.target.id)))

    def emit_enter(src, depth: int, option, stmt, target) -> None:
        """Enter ``option.target``'s body inlined at ``stmt``'s site with
        ``call_args``: a depth check, a marker frame, no call cost.  A
        leaf body is spliced in; any other is one call to its own
        function."""
        callee = option.target
        target = target or src.bind(callee)
        leaf = _leaf_shape(callee.body)
        src.use("stack", "stats")
        src.line(depth, "if len(stack) >= MAX_STACK_DEPTH:")
        src.line(depth + 1, f'raise _overflow("inlining", {target}, '
                            'len(stack))')
        src.line(depth, "stats.inline_entries += 1")
        # Inlined activations never cross a tier boundary, so one marker
        # frame serves every entry through this site.
        src.line(depth, "stack.append(%s)" % src.bind(
            Frame(callee, stmt.site, True)))
        src.line(depth, "try:")
        if leaf is None:
            src.use("zeros")
            call = "%s(call_args, zeros * %d)" % (
                src.bind(unit(callee.body, 0, INLINED, option.node)),
                callee.num_locals)
            src.line(depth + 1, call if stmt.dst is None else "r = " + call)
        else:
            cost, value = leaf
            emit_work(src, depth + 1, src.bind(cost),
                      src.bind(cost * mults[INLINED]))
        src.line(depth, "finally:")
        src.line(depth + 1, "stack.pop()")
        if stmt.dst is not None:
            src.line(depth, "locals_[%d] = %s" % (
                stmt.dst, "0 if r is None else r" if leaf is None
                else src.bind(value)))

    def emit_invoke(src, depth: int, target: str, call_args: str,
                    site: str, dst, cycles: Optional[float]) -> None:
        """``invoke``, which charges the call's ``cycles`` once its
        arguments are built."""
        src.use("invoke")
        call = (f"invoke({target}, {call_args}, {site})" if cycles is None
                else f"invoke({target}, {call_args}, {site}, "
                     f"{src.bind(cycles)})")
        src.line(depth, call if dst is None
                 else "locals_[%d] = %s" % (dst, call))

    def resolutions_for(selector: str) -> _Resolutions:
        table = resolutions.get(selector)
        if table is None:
            table = resolutions[selector] = _Resolutions()
            table.resolve, table.selector = m.hierarchy.resolve, selector
        return table

    # -- arguments and expressions --------------------------------------------

    def arg_tuple(src, items: list, exprs) -> str:
        """An argument tuple display: ``items`` then ``exprs`` in order."""
        items = items + [expr(src, e) for e in exprs]
        return "(%s)" % "".join(item + ", " for item in items)

    def expr(src, e) -> str:
        """A Python expression for ``e``, evaluated in its operand order."""
        k = e.kind
        if k == E_CONST:
            return src.bind(e.value)
        if k == E_ARG:
            return "args[%d]" % e.index
        if k == E_LOCAL:
            return "locals_[%d]" % e.index
        if k == E_PICK:
            pool = src.temp()
            pool_of, index_of = expr(src, e.pool), expr(src, e.index)
            return (f"({pool}[{index_of} % len({pool})] "
                    f"if isinstance({pool} := {pool_of}, tuple) and {pool} "
                    f"else _non_pool({pool}))")
        left, right = expr(src, e.left), expr(src, e.right)
        if k == E_LT:
            return f"(1 if {left} < {right} else 0)"
        if k in _OPERATORS:
            return f"({left} {_OPERATORS[k]} {right})"
        raise ExecutionError(f"unknown expression kind {k}")  # pragma: no cover

    return invoke, release
