"""Lowering: statement lists to pre-bound closures, once per run.

The first time a statement list runs at a tier (baseline, optimized,
inlined) under an inline node, :func:`lower_run`'s lowering turns it into
a tuple of closures, one per statement, with everything that cannot
change during the run already resolved -- the statement kind, the node's
decision at each call site, every ``cost * multiplier`` product, call
targets and the shape of argument tuples.  Each run lowers afresh and
drops its lowered code when it returns (see DESIGN.md, "Lowered
execution").
"""

from __future__ import annotations

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
    Const,
)
from repro.jvm.values import Instance

if TYPE_CHECKING:
    from repro.jvm.interpreter import Machine

#: Hard cap on source-level stack depth; exceeding it is a workload bug.
#: Kept below what Python's default recursion limit (1000) can host.  One
#: simulated frame costs one Python frame for its entry (``invoke`` or an
#: inlined body's ``enter``), one for the call statement that reaches the
#: next frame, and one per ``Loop`` or ``If`` the call sits in: a recursion
#: through ``Loop`` -> ``If`` -> call costs four, 880 frames at the cap,
#: leaving room for the caller's frames and a tick handler's.  (An
#: attached ``local_probe`` wraps each call statement in one more.)
MAX_STACK_DEPTH = 220

#: Lowering tiers: index into the per-run execution multipliers.
BASELINE, OPTIMIZED, INLINED = 0, 1, 2

_CALLS = (S_STATIC_CALL, S_VIRTUAL_CALL, S_INTERFACE_CALL)


#: Returned by a loop that transferred onto optimized code and already ran
#: the rest of its statement list there: the list is finished and fell
#: through without a ``Return``.
_DONE = object()


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


def _overflow(verb: str, method, depth: int) -> ExecutionError:
    return ExecutionError(
        f"stack overflow {verb} {method.id} at depth {depth}")


def _non_object(site: int, value) -> ExecutionError:
    return ExecutionError(
        f"virtual call at site {site} on non-object {value!r}")


def lower_run(m: Machine):
    """Bind one run of ``m``; return ``(invoke, release)``.

    Everything fixed for the run -- the machine's state objects, the
    execution multipliers and the attached hooks -- is bound once in this
    scope and shared by every closure created below.  Per-statement
    constants are bound as parameter defaults (``cycles=cycles``): one
    defaults tuple per closure, where free variables would cost a cell
    each.  Lowered code is memoised in the tables below, and ``release``
    empties them when the run returns.

    The charge sequence inlined into the hot closures is
    :meth:`Machine.charge` for the application component: the same float
    added to the clock, then to the accounting, then the same tick check.
    """
    costs = m.costs
    stats = m.stats
    stack = m.stack
    acc = m.accounting.cycles
    code_cache = m.code_cache
    mark_loaded = m.hierarchy.mark_loaded
    fire = m._fire_tick
    mults = (costs.baseline_exec_mult, costs.opt_exec_mult,
             costs.opt_exec_mult * (1.0 - costs.inline_work_discount))

    dispatch_observer = m.dispatch_observer
    elision_observer = m.elision_observer
    deopt_exit_observer = m.deopt_exit_observer
    osr_entry_observer = m.osr_entry_observer
    osr_liveness = m.osr_liveness
    probe = m.local_probe
    progress_loops = dict(m.progress_loops)
    progress_observer = m.progress_observer

    # Baseline lists are not memoised in ``lists``: ``bodies`` keeps a
    # baseline method body from its second invocation on.
    lists: dict = {}        # (id(body), tier, node or None) -> closures
    leaves: dict = {}       # (tag, ...) -> closure shared by equal leaves
    enters: dict = {}       # (site, target, node or None) -> inlined entry
    resolutions: dict = {}  # selector -> _Resolutions
    bodies: dict = {}       # method (baseline) or root node -> closures
    invoked: set = set()    # methods invoked at the baseline tier

    def release() -> None:
        for table in (lists, leaves, enters, resolutions, bodies, invoked):
            table.clear()

    def charge_app(cycles) -> None:
        m.clock = clock = m.clock + cycles
        acc[APP] += cycles
        if clock >= m.next_event and not m._in_tick:
            fire()

    def leaf(key, make):
        fn = leaves.get(key)
        if fn is None:
            fn = leaves[key] = make()
        return fn

    # -- invocation ---------------------------------------------------------

    def invoke(method, args: tuple, site):
        """Out-of-line invocation of ``method`` (its own physical frame)."""
        if len(stack) >= MAX_STACK_DEPTH:
            raise _overflow("invoking", method, len(stack))
        stats.calls += 1
        stack.append(Frame(method, site, False))
        try:
            compiled = code_cache.opt_version(method.id)
            if compiled is not None:
                root = compiled.root
                fns = bodies.get(root)
                if fns is None:
                    fns = bodies[root] = lower_list(method.body, OPTIMIZED,
                                                    root)
            else:
                fns = bodies.get(method)
                if fns is None:
                    if not code_cache.has_baseline(method.id):
                        # ``self_cycles`` is passed explicitly: the charge
                        # can fire a timer tick whose organizer spans nest
                        # inside this one, and the accounting delta would
                        # then fold their compilation-thread cycles into
                        # this span.
                        span_id = m.telemetry.begin_span(
                            COMPILATION, "baseline_compile", method=method.id)
                        cycles = code_cache.compile_baseline(method)
                        m.charge(COMPILATION, cycles)
                        m.telemetry.end_span(span_id, self_cycles=cycles,
                                             bytecodes=method.bytecodes)
                    fns = lower_list(method.body, BASELINE, None)
                    # Keep a baseline body from its second invocation on:
                    # methods that run once (initializers) drop theirs.
                    if method in invoked:
                        bodies[method] = fns
                    else:
                        invoked.add(method)
            locals_ = [0] * method.num_locals
            for fn in fns:
                result = fn(args, locals_)
                if result is not None:
                    return 0 if result is _DONE else result
            return 0
        finally:
            stack.pop()

    def inline_entry(target, node, site: int):
        """``enter(call_args)`` running ``target``'s body inlined at ``site``
        under ``node``: a marker frame, no call cost."""
        if node is not None and not node.decisions:
            node = None
        key = (site, target, node)
        enter = enters.get(key)
        if enter is not None:
            return enter
        # Inlined activations never cross a tier boundary, so one marker
        # frame serves every entry through this site.
        frame = Frame(target, site, True)
        shape = _leaf_shape(target.body)
        if shape is not None:
            # The whole body is one Work and a constant return.
            cost, value = shape

            def enter(call_args, target=target, frame=frame, cost=cost,
                      cycles=cost * mults[INLINED], value=value):
                if len(stack) >= MAX_STACK_DEPTH:
                    raise _overflow("inlining", target, len(stack))
                stats.inline_entries += 1
                stack.append(frame)
                try:
                    stats.work_cycles += cost
                    m.clock = clock = m.clock + cycles
                    acc[APP] += cycles
                    if clock >= m.next_event and not m._in_tick:
                        fire()
                    return value
                finally:
                    stack.pop()
        else:
            fns = None

            def enter(call_args, target=target, frame=frame):
                nonlocal fns
                if len(stack) >= MAX_STACK_DEPTH:
                    raise _overflow("inlining", target, len(stack))
                stats.inline_entries += 1
                stack.append(frame)
                try:
                    if fns is None:
                        fns = lower_list(target.body, INLINED, node)
                    locals_ = [0] * target.num_locals
                    for fn in fns:
                        result = fn(call_args, locals_)
                        if result is not None:
                            return result
                    return 0
                finally:
                    stack.pop()
        enters[key] = enter
        return enter

    # -- statement lists ----------------------------------------------------

    def lower_list(body, tier: int, node) -> tuple:
        """The closures of ``body`` at ``tier`` under ``node``.

        Only call sites where ``node`` has a decision depend on the node;
        every other statement (and any list without such a site) shares
        the node-free lowering of the same tier.
        """
        if node is not None and not node.decisions:
            node = None
        key = (id(body), tier, node)
        fns = lists.get(key)
        if fns is not None:
            return fns
        if node is None:
            fns = tuple([lower_stmt(stmt, body, index, tier)
                         for index, stmt in enumerate(body)])
        else:
            shared = lower_list(body, tier, None)
            fns = tuple([lower_under(stmt, tier, node, fn)
                         for stmt, fn in zip(body, shared)])
            if all(a is b for a, b in zip(fns, shared)):
                fns = shared
        if tier != BASELINE:
            lists[key] = fns
        return fns

    def lower_under(stmt, tier: int, node, shared):
        """``stmt`` under ``node``, or ``shared`` if it does not depend on it."""
        k = stmt.kind
        if k in _CALLS:
            decision = node.decisions.get(stmt.site)
            return (shared if decision is None
                    else lower_call(stmt, tier, decision))
        if k == S_IF:
            then_fns = lower_list(stmt.then_body, tier, node)
            else_fns = lower_list(stmt.else_body, tier, node)
            if (then_fns is lower_list(stmt.then_body, tier, None)
                    and else_fns is lower_list(stmt.else_body, tier, None)):
                return shared
            return lower_if(stmt, then_fns, else_fns)
        if k == S_LOOP:
            fns = lower_list(stmt.body, tier, node)
            if fns is lower_list(stmt.body, tier, None):
                return shared
            return lower_loop(stmt, fns)
        return shared

    def lower_stmt(stmt, body, index: int, tier: int):
        """Statement ``index`` of ``body``, node-free."""
        k = stmt.kind
        if k == S_WORK:
            return leaf(("work", stmt.cost, tier),
                        lambda: lower_work(stmt.cost, mults[tier]))
        if k in _CALLS:
            return lower_call(stmt, tier, None)
        if k == S_RETURN:
            # A Return is its value's closure: a result ends the list.
            return lower_expr(Const(0) if stmt.expr is None else stmt.expr)
        if k == S_IF:
            return lower_if(stmt, lower_list(stmt.then_body, tier, None),
                            lower_list(stmt.else_body, tier, None))
        if k == S_LOOP:
            if tier == BASELINE and costs.osr_enabled:
                return lower_osr_loop(stmt, body, index)
            return lower_loop(stmt, lower_list(stmt.body, tier, None))
        if k == S_LET:
            fn = lower_let(stmt.dst, stmt.expr)
        elif k == S_NEW:
            fn = lower_new(stmt.dst, stmt.class_name)
        elif k == S_NEWPOOL:
            fn = lower_new_pool(stmt.dst, stmt.class_names)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown statement kind {k}")
        return probed(fn, stmt.dst) if probe is not None else fn

    def probed(fn, dst: int):
        """``fn`` followed by the local probe's write event for ``dst``."""
        def write(args, locals_, fn=fn, dst=dst):
            fn(args, locals_)
            probe(locals_, dst, False)
        return write

    # -- straight-line statements -------------------------------------------

    def lower_work(cost: int, mult: float):
        def work(args, locals_, cost=cost, cycles=cost * mult):
            stats.work_cycles += cost
            m.clock = clock = m.clock + cycles
            acc[APP] += cycles
            if clock >= m.next_event and not m._in_tick:
                fire()
        return work

    def lower_let(dst: int, expr):
        if expr.kind == E_CONST:
            def let_const(args, locals_, dst=dst, value=expr.value):
                locals_[dst] = value
            return let_const

        value_of = lower_expr(expr)

        def let(args, locals_, dst=dst, value_of=value_of):
            locals_[dst] = value_of(args, locals_)
        return let

    def lower_new(dst: int, class_name: str):
        def new(args, locals_, dst=dst, class_name=class_name):
            if mark_loaded(class_name) and m.class_load_handler is not None:
                m.class_load_handler(class_name)
            locals_[dst] = Instance(class_name)
        return new

    def lower_new_pool(dst: int, class_names):
        def new_pool(args, locals_, dst=dst, class_names=class_names):
            for class_name in class_names:
                if mark_loaded(class_name) \
                        and m.class_load_handler is not None:
                    m.class_load_handler(class_name)
            locals_[dst] = tuple([Instance(c) for c in class_names])
        return new_pool

    # -- control flow -------------------------------------------------------

    def lower_if(stmt, then_fns: tuple, else_fns: tuple):
        cond = lower_expr(stmt.cond)

        def if_(args, locals_, cond=cond, then_fns=then_fns,
                else_fns=else_fns):
            for fn in (then_fns if cond(args, locals_) else else_fns):
                result = fn(args, locals_)
                if result is not None:
                    return None if result is _DONE else result
        return if_

    def loop_body(stmt, fns: tuple):
        """Loop body closures with the attached per-iteration hooks:
        ``(closures, progress mark or None)``."""
        mark = None
        if probe is not None:
            def probe_index(args, locals_, index=stmt.index_local):
                probe(locals_, index, False)
            fns = (probe_index,) + fns
        point = progress_loops.get(id(stmt))
        if point is not None:
            def mark(args, locals_, point=point):
                progress_observer(point)
            fns = fns + (mark,)
        return fns, mark

    def lower_loop(stmt, body_fns: tuple):
        count_of = lower_expr(stmt.count)
        fns = loop_body(stmt, body_fns)[0]

        def loop(args, locals_, count_of=count_of, index=stmt.index_local,
                 fns=fns):
            for i in range(count_of(args, locals_)):
                locals_[index] = i
                for fn in fns:
                    result = fn(args, locals_)
                    if result is not None:
                        return result
        return loop

    def lower_osr_loop(stmt, body, position: int):
        """A baseline loop that counts back edges, requests compilation
        past the threshold, and polls for installed optimized code to
        transfer onto (on-stack replacement).

        After a transfer the loop finishes its iterations at the optimized
        tier, then runs the rest of ``body`` (the list it sits in) there
        too and returns :data:`_DONE`; enclosing lists stay baseline.
        """
        count_of = lower_expr(stmt.count)
        index = stmt.index_local
        baseline_fns, mark = loop_body(
            stmt, lower_list(stmt.body, BASELINE, None))
        poll = costs.osr_poll_period
        threshold = costs.osr_backedge_threshold
        # Mapping the live frame state into the optimized layout is the
        # OSR transition's dominant cost.
        map_in = (None if osr_liveness is None else
                  len(osr_liveness.get(id(stmt), ())) * costs.osr_map_in_cost)

        def osr_loop(args, locals_):
            count = count_of(args, locals_)
            frame = stack[-1]
            method_id = frame.method.id
            backedges = m.backedge_counts
            edges = backedges.get(method_id, 0)
            fns = baseline_fns
            root = None
            for i in range(count):
                locals_[index] = i
                for fn in fns:
                    result = fn(args, locals_)
                    if result is not None:
                        if result is _DONE:
                            # A nested loop transferred and finished this
                            # iteration's list at the optimized tier.
                            if mark is not None:
                                mark(args, locals_)
                            break
                        backedges[method_id] = edges + i + 1
                        return result
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
                            fns = loop_body(stmt, lower_list(
                                stmt.body, OPTIMIZED, root))[0]
                            stats.osr_transfers += 1
                            frame.osr = True
                            if map_in is not None:
                                charge_app(map_in)
                            if osr_entry_observer is not None:
                                osr_entry_observer(method_id, stmt, locals_)
                            m.telemetry.instant(APP, "osr_transfer",
                                                method=method_id)
            backedges[method_id] = edges + count
            if root is None:
                return None
            for fn in lower_list(body, OPTIMIZED, root)[position + 1:]:
                result = fn(args, locals_)
                if result is not None:
                    return result
            return _DONE
        return osr_loop

    # -- calls ----------------------------------------------------------------

    def lower_call(stmt, tier: int, decision):
        if stmt.kind == S_STATIC_CALL:
            fn = lower_static_call(stmt, tier, decision)
        else:
            fn = lower_virtual_call(stmt, tier, decision)
        if probe is not None and stmt.dst is not None:
            return probed(fn, stmt.dst)
        return fn

    def lower_static_call(stmt, tier: int, decision):
        build = lower_args(stmt.args)
        if decision is not None:
            option = decision.sole
            enter = inline_entry(option.target, option.node, stmt.site)

            def inlined_call(args, locals_, build=build, dst=stmt.dst,
                             enter=enter):
                result = enter(build(args, locals_))
                if dst is not None:
                    locals_[dst] = result
            return inlined_call
        target = m.program.method(stmt.target)

        def static_call(args, locals_, build=build, site=stmt.site,
                        dst=stmt.dst, target=target,
                        cycles=costs.call_overhead * mults[tier]):
            call_args = build(args, locals_)
            m.clock = clock = m.clock + cycles
            acc[APP] += cycles
            if clock >= m.next_event and not m._in_tick:
                fire()
            result = invoke(target, call_args, site)
            if dst is not None:
                locals_[dst] = result
        return static_call

    def lower_virtual_call(stmt, tier: int, decision):
        site, selector = stmt.site, stmt.selector
        receiver_of = lower_expr(stmt.receiver)
        build = lower_receiver_args(stmt.args)
        dispatch_cost = (costs.interface_dispatch
                         if stmt.kind == S_INTERFACE_CALL
                         else costs.virtual_dispatch)
        mult = mults[tier]

        if decision is not None and decision.kind != GUARDED:
            # DIRECT: statically bound by CHA, no guard executed.
            option = decision.sole
            enter = inline_entry(option.target, option.node, site)
            if dispatch_observer is not None:
                enter = observed_entry(enter, site, option.target.id)

            def direct_call(args, locals_, receiver_of=receiver_of,
                            build=build, site=site, dst=stmt.dst,
                            enter=enter):
                stats.virtual_calls += 1
                receiver = receiver_of(args, locals_)
                if not isinstance(receiver, Instance):
                    raise _non_object(site, receiver)
                result = enter(build(receiver, args, locals_))
                if dst is not None:
                    locals_[dst] = result
            return direct_call

        lookup = resolver(selector, site)
        if decision is None:
            def dispatch_call(args, locals_, receiver_of=receiver_of,
                              build=build, site=site, dst=stmt.dst,
                              lookup=lookup, cycles=dispatch_cost * mult):
                stats.virtual_calls += 1
                receiver = receiver_of(args, locals_)
                if not isinstance(receiver, Instance):
                    raise _non_object(site, receiver)
                call_args = build(receiver, args, locals_)
                resolved = lookup(receiver.klass)
                stats.dispatches += 1
                m.clock = clock = m.clock + cycles
                acc[APP] += cycles
                if clock >= m.next_event and not m._in_tick:
                    fire()
                result = invoke(resolved, call_args, site)
                if dst is not None:
                    locals_[dst] = result
            return dispatch_call

        # GUARDED: run each option's step in order, then fall back, as
        # the site's guard plan says.
        plan, count = decision.plan, len(decision.options)
        steps = tuple([guard_step(option, site, mult,
                                  plan.elided(index, count), plan.dominator)
                       for index, option in enumerate(decision.options)])
        if plan.kind == PLAN_OSR_EXIT:
            fallback = deopt_exit(plan.live, site, dispatch_cost)
        else:
            fallback = guard_miss(dispatch_cost * mult)

        def guarded_call(args, locals_, receiver_of=receiver_of, build=build,
                         site=site, dst=stmt.dst, lookup=lookup, steps=steps,
                         fallback=fallback):
            stats.virtual_calls += 1
            receiver = receiver_of(args, locals_)
            if not isinstance(receiver, Instance):
                raise _non_object(site, receiver)
            call_args = build(receiver, args, locals_)
            resolved = lookup(receiver.klass)
            for step in steps:
                enter = step(receiver, resolved)
                if enter is not None:
                    result = enter(call_args)
                    break
            else:
                fallback(locals_)
                result = invoke(resolved, call_args, site)
            if dst is not None:
                locals_[dst] = result
        return guarded_call

    def guard_step(option, site: int, mult: float, elided, dominator):
        """One option of a guarded site: ``step(receiver, resolved)``
        returns the inlined entry to take, or ``None`` to go on.
        ``elided`` is the plan kind when the option's test is compiled
        out; ``dominator`` is the plan's dominating guard."""
        target = option.target
        enter = inline_entry(target, option.node, site)
        if elided is None:
            cycles = costs.guard_test * mult

            def guard(receiver, resolved):
                stats.guard_tests += 1
                charge_app(cycles)
                return enter if target is resolved else None
            return guard
        if elided == PLAN_OSR_EXIT:
            # Cheap-exit OSR point: the compiled code carries no test at
            # all -- entry happens through the dispatch the machine
            # already resolved, so a matching target is entered at zero
            # guard cost and a mismatch falls through toward the
            # deoptimization exit.
            def exit_point(receiver, resolved):
                if target is not resolved:
                    return None
                stats.deopt_entries += 1
                return enter
            return exit_point
        # The guard was compiled out.  "preexist" (invalidation protects
        # the entry) and "exhaustive" (every earlier guard missing implies
        # this one hits) jump straight into the inlined body at zero cost;
        # "dominated" branches on the dominating guard's already-computed
        # outcome, whose passing implies this guard would pass too.
        # Entering ``target`` (not ``resolved``) is the point: if the
        # argument were wrong the wrong body would run, which is what the
        # elision-replay checker detects.
        if elision_observer is None:
            def elided_entry(receiver, resolved):
                stats.elided_entries += 1
                return enter
        else:
            def elided_entry(receiver, resolved):
                stats.elided_entries += 1
                elision_observer(site, elided, target.id, resolved.id)
                return enter
        if elided != PLAN_DOMINATED:
            return elided_entry
        dom_selector, dom_target = dominator
        dominating = resolutions_for(dom_selector)

        def dominated(receiver, resolved):
            if dominating[receiver.klass] is not dom_target:
                # Dominating guard missed: a miss here too.
                return None
            return elided_entry(receiver, resolved)
        return dominated

    def deopt_exit(exit_live, site: int, dispatch_cost):
        """Broken speculation at a cheap-exit OSR point: map the site's
        pruned live state out of the optimized frame, then finish the
        dispatch at the baseline tier (the exit is expensive exactly so
        the fast path could carry no guard)."""
        cycles = (len(exit_live) * costs.osr_map_out_cost
                  + dispatch_cost * mults[BASELINE])

        def exit_(locals_):
            stats.deopt_exits += 1
            charge_app(cycles)
            if deopt_exit_observer is not None:
                deopt_exit_observer(site, exit_live, locals_)
        return exit_

    def guard_miss(cycles):
        def miss(locals_):
            # Every guard failed: fall back to full dispatch.
            stats.guard_misses += 1
            stats.dispatches += 1
            charge_app(cycles)
        return miss

    def resolutions_for(selector: str) -> _Resolutions:
        table = resolutions.get(selector)
        if table is None:
            table = resolutions[selector] = _Resolutions()
            table.resolve, table.selector = m.hierarchy.resolve, selector
        return table

    def resolver(selector: str, site: int):
        """``class name -> resolved method`` at a dispatching site, firing
        the dispatch observer when one is attached."""
        table = resolutions_for(selector)
        if dispatch_observer is None:
            return table.__getitem__

        def observed(klass: str):
            method = table[klass]
            dispatch_observer(site, method.id)
            return method
        return observed

    def observed_entry(enter, site: int, target_id: str):
        def observed(call_args: tuple):
            dispatch_observer(site, target_id)
            return enter(call_args)
        return observed

    # -- arguments and expressions --------------------------------------------

    def lower_args(exprs):
        """``(args, locals_) -> argument tuple`` for a static call."""
        if not exprs:
            return leaf(("args",), lambda: lambda args, locals_: ())
        if len(exprs) == 1:
            only = exprs[0]
            if only.kind == E_ARG:
                return leaf(("args-arg", only.index), lambda: (
                    lambda args, locals_, index=only.index: (args[index],)))
            if only.kind == E_LOCAL and probe is None:
                return leaf(("args-local", only.index), lambda: (
                    lambda args, locals_, index=only.index:
                    (locals_[index],)))
        values = tuple([lower_expr(expr) for expr in exprs])
        if len(values) == 1:
            return (lambda args, locals_, first=values[0]:
                    (first(args, locals_),))
        if len(values) == 2:
            return (lambda args, locals_, first=values[0], second=values[1]:
                    (first(args, locals_), second(args, locals_)))
        return (lambda args, locals_, values=values:
                tuple([value(args, locals_) for value in values]))

    def lower_receiver_args(exprs):
        """``(receiver, args, locals_) -> argument tuple`` for a virtual
        call: the receiver is the callee's first parameter."""
        if not exprs:
            return leaf(("receiver-args",), lambda: (
                lambda receiver, args, locals_: (receiver,)))
        values = tuple([lower_expr(expr) for expr in exprs])
        if len(values) == 1:
            return (lambda receiver, args, locals_, first=values[0]:
                    (receiver, first(args, locals_)))
        return (lambda receiver, args, locals_, values=values:
                (receiver,) + tuple([value(args, locals_)
                                     for value in values]))

    def lower_expr(expr):
        """``(args, locals_) -> value`` for one expression."""
        k = expr.kind
        if k == E_CONST:
            value = expr.value
            if type(value) is not int:
                return lambda args, locals_: value
            return leaf(("const", value), lambda: (
                lambda args, locals_, value=value: value))
        if k == E_ARG:
            return leaf(("arg", expr.index), lambda: (
                lambda args, locals_, index=expr.index: args[index]))
        if k == E_LOCAL:
            if probe is None:
                return leaf(("local", expr.index), lambda: (
                    lambda args, locals_, index=expr.index: locals_[index]))

            def probed_local(args, locals_, index=expr.index):
                probe(locals_, index, True)
                return locals_[index]
            return probed_local
        if k == E_PICK:
            pool_of, index_of = lower_expr(expr.pool), lower_expr(expr.index)

            def pick(args, locals_, pool_of=pool_of, index_of=index_of):
                pool = pool_of(args, locals_)
                if not isinstance(pool, tuple) or not pool:
                    raise ExecutionError(f"Pick from non-pool value {pool!r}")
                return pool[index_of(args, locals_) % len(pool)]
            return pick
        left, right = lower_expr(expr.left), lower_expr(expr.right)
        if k == E_ADD:
            return lambda args, locals_, left=left, right=right: (
                left(args, locals_) + right(args, locals_))
        if k == E_SUB:
            return lambda args, locals_, left=left, right=right: (
                left(args, locals_) - right(args, locals_))
        if k == E_MUL:
            return lambda args, locals_, left=left, right=right: (
                left(args, locals_) * right(args, locals_))
        if k == E_MOD:
            return lambda args, locals_, left=left, right=right: (
                left(args, locals_) % right(args, locals_))
        if k == E_LT:
            return lambda args, locals_, left=left, right=right: (
                1 if left(args, locals_) < right(args, locals_) else 0)
        raise ExecutionError(f"unknown expression kind {k}")  # pragma: no cover

    return invoke, release
