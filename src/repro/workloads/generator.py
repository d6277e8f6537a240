"""Synthetic benchmark generator calibrated to the paper's Table 1.

We cannot ship SPECjvm98/SPECjbb2000, so each benchmark is generated: a
deterministic (seeded) program whose *static* characteristics match
Table 1 (classes loaded, methods and bytecodes dynamically compiled) and
whose *dynamic* call-graph personality reproduces the behaviours the
paper's evaluation depends on.  The generator composes four ingredients:

**Polymorphic receiver patterns** (the HashMap.get shape of Figure 1):
a worker method ``proc`` virtual-dispatches on an object flowing in from
its callers.  When the pattern is *correlated*, each caller supplies
receivers of a single class, so the dispatch is monomorphic per calling
context but polymorphic globally -- context-sensitive profiles
disambiguate it, context-insensitive ones cannot.  The ``depth`` knob
inserts shared wrapper methods so that only contexts of that depth
discriminate.  Uncorrelated patterns mix receivers identically in every
context: extra context only dilutes their profiles.

**Shared medium callees** (the profile-dilution lever of Section 4):
a small method ``s_k`` -- inlined into many hot callers by the static
heuristics -- contains a call to a medium method ``m_k`` that only
profile-directed inlining can expand.  Context-insensitive profiling
accumulates the edge's full weight; depth>=2 traces split it across every
caller of ``s_k`` and can push each share below the 1.5% hot threshold.
Flags make ``s_k``/``m_k`` static or parameterless so the adaptive
policies' early-termination rules change how much dilution each suffers.

**Control-dependent call patterns** (Section 2's non-virtual motivation):
a helper is called under ``If(flag)`` where different callers pass
constant true/false flags; context-sensitive profiles avoid uselessly
inlining the helper into the never-taken contexts.

**Cold mass**: enough extra classes/methods/bytecodes, touched once during
startup, to land the Table 1 static counts.

All receiver choices, sizes, and shapes are derived from the spec's seed,
making every generated program reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jvm.errors import ConfigError
from repro.jvm.program import (Add, Arg, Const, If, Let, Local, Loop, Mod,
                               New, NewPool, Pick, Program, Return,
                               StaticCall, VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder


@dataclass(frozen=True)
class PatternSpec:
    """One polymorphic receiver pattern (a Figure-1-style dispatch)."""

    fanout: int = 2                 # number of receiver classes / targets
    correlated: bool = True         # receiver class determined by caller?
    depth: int = 2                  # context depth that disambiguates (>=2)
    callee_work: int = 11           # work units in each target body
    target_parameterless: bool = False  # selector takes no explicit args
    proc_static: bool = True        # worker method is a class method
    wrappers_static: bool = True    # interposed wrappers are class methods
    duty_cycle: int = 1             # callers fire on 1-in-N transactions

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ConfigError("a polymorphic pattern needs fanout >= 2")
        if self.depth < 2:
            raise ConfigError("pattern depth must be >= 2")
        if self.duty_cycle < 1:
            raise ConfigError("duty_cycle must be >= 1")


@dataclass(frozen=True)
class SharedMediumSpec:
    """One shared small->medium pair exercising profile dilution."""

    medium_work: int = 30
    static: bool = True             # both methods are class methods
    parameterless: bool = False     # the medium callee takes no explicit args


@dataclass(frozen=True)
class BenchmarkSpec:
    """Full recipe for one synthetic benchmark."""

    name: str
    classes: int                    # Table 1: classes loaded
    methods: int                    # Table 1: methods dynamically compiled
    bytecodes: int                  # Table 1: bytecodes dynamically compiled
    seed: int
    iterations: int                 # main-loop transactions (run length)
    drivers: int = 4                # hot driver methods per transaction
    driver_work: int = 22
    patterns: Tuple[PatternSpec, ...] = ()
    shared: Tuple[SharedMediumSpec, ...] = ()
    cond_patterns: int = 0
    helper_chain: int = 3           # per-driver monomorphic helper chain
    large_in_chain: bool = False    # route pattern calls through large methods
    large_work: int = 115

    def __post_init__(self) -> None:
        if self.drivers < 1 or self.iterations < 1:
            raise ConfigError("drivers and iterations must be positive")


@dataclass
class GeneratedBenchmark:
    """A generated program plus the bookkeeping tests and reports use."""

    spec: BenchmarkSpec
    program: Program
    hot_methods: int
    hot_bytecodes: int
    pattern_sites: Dict[int, int] = field(default_factory=dict)


def generate(spec: BenchmarkSpec) -> GeneratedBenchmark:
    """Build the benchmark program described by ``spec``."""
    rng = random.Random(spec.seed)
    b = ProgramBuilder(spec.name)
    gen = _Generator(spec, b, rng)
    return gen.build()


class _Generator:
    """Stateful assembly of one benchmark program."""

    def __init__(self, spec: BenchmarkSpec, b: ProgramBuilder,
                 rng: random.Random):
        self.spec = spec
        self.b = b
        self.rng = rng
        #: statements drivers will execute, grouped per driver index.
        self.driver_calls: List[List] = [[] for _ in range(spec.drivers)]
        self.pattern_sites: Dict[int, int] = {}
        self._hot_class_names: List[str] = []

    # -- top level -----------------------------------------------------------------

    def build(self) -> GeneratedBenchmark:
        spec, b = self.spec, self.b

        for index, pattern in enumerate(spec.patterns):
            self._build_pattern(index, pattern)
        for index, shared in enumerate(spec.shared):
            self._build_shared_medium(index, shared)
        for index in range(spec.cond_patterns):
            self._build_cond_pattern(index)
        self._build_helper_chains()
        self._build_drivers()

        hot_methods = len(b.program.methods()) + 1  # main comes later
        hot_bytecodes = sum(m.bytecodes for m in b.program.methods())

        init_calls = self._build_cold_mass(hot_methods, hot_bytecodes)
        self._build_main(init_calls)

        program = b.build()
        return GeneratedBenchmark(
            spec=spec, program=program,
            hot_methods=hot_methods, hot_bytecodes=hot_bytecodes,
            pattern_sites=dict(self.pattern_sites))

    # -- polymorphic patterns -----------------------------------------------------------

    def _build_pattern(self, p: int, pattern: PatternSpec) -> None:
        """Receiver classes, worker, wrappers, and per-class callers."""
        b = self.b
        base = f"P{p}B"
        selector = f"sel{p}"
        b.cls(base)
        self._hot_class_names.append(base)
        target_params = 1 if pattern.target_parameterless else 2
        b.method(base, selector,
                 [Work(pattern.callee_work), Return(Const(p))],
                 params=target_params)
        class_names = []
        for j in range(pattern.fanout):
            name = f"P{p}C{j}"
            b.cls(name, superclass=base)
            self._hot_class_names.append(name)
            # Subclass 0 inherits the base implementation (as e.g. most
            # classes inherit Object.hashCode); the rest override.  Every
            # declared method is therefore dynamically reached, matching
            # Table 1's "methods dynamically compiled" semantics.
            if j > 0:
                b.method(name, selector,
                         [Work(pattern.callee_work + (j % 3)),
                          Return(Const(j))],
                         params=target_params)
            class_names.append(name)

        util = f"P{p}U"
        b.cls(util)
        self._hot_class_names.append(util)

        # The worker: HashMap.get's analog.  Medium-sized, so only
        # profile-directed inlining expands it into its callers.  Static
        # workers stop the Class-Methods walk below them; instance workers
        # (sole implementation, so CHA still binds calls to them) do not.
        dispatch_site = b.site()
        self.pattern_sites[p] = dispatch_site
        proc = self._conduit_method(
            util, f"proc{p}", pattern.proc_static,
            lambda obj, idx: [
                Work(13),
                VirtualCall(dispatch_site, selector, obj,
                            args=([] if pattern.target_parameterless
                                  else [idx]), dst=7),
                Work(12),
                Return(Local(7)),
            ])

        # Shared wrapper chain: depth-2 contexts see only the wrappers, so
        # disambiguation needs depth >= pattern.depth.
        entry = proc
        for w in range(pattern.depth - 2):
            entry = self._conduit_method(
                util, f"w{p}_{w}", pattern.wrappers_static,
                self._forwarder_body(entry))

        # Per-class callers: each supplies receivers from its own pool.
        for j in range(pattern.fanout):
            cname = f"c{p}_{j}"
            if pattern.correlated:
                pool = tuple([class_names[j]] * 3)
            else:
                pool = tuple(class_names)
            call_stmts: List = [NewPool(0, pool),
                                Let(1, Pick(Local(0), Arg(0))),
                                Work(5)]
            call_stmts.extend(self._call_conduit(entry, Local(1), Arg(0),
                                                 dst=3, scratch=4))
            if pattern.duty_cycle > 1:
                # Fire only on 1-in-N transactions, throttling how hot the
                # pattern runs relative to the rest of the benchmark.
                gate = Mod(Add(Arg(0), Const(j)),
                           Const(pattern.duty_cycle))
                cbody: List = [If(gate, [Work(2)], call_stmts),
                               Return(Local(3))]
            else:
                cbody = call_stmts + [Return(Local(3))]
            caller = b.method(util, cname, cbody, params=1, static=True,
                              locals_=8)
            driver_index = (p + j) % self.spec.drivers
            self.driver_calls[driver_index].append(caller.id)

    def _conduit_method(self, klass: str, name: str, static: bool,
                        body_fn) -> "MethodDef":
        """Declare a method taking (obj, idx) -- plus ``this`` if instance.

        ``body_fn(obj_expr, idx_expr)`` produces the body with the correct
        argument slots for the chosen calling convention.
        """
        if static:
            body = body_fn(Arg(0), Arg(1))
            return self.b.method(klass, name, body, params=2, static=True,
                                 locals_=10)
        body = body_fn(Arg(1), Arg(2))
        return self.b.method(klass, name, body, params=3, static=False,
                             locals_=10)

    def _forwarder_body(self, entry):
        """Body factory: a small wrapper forwarding (obj, idx) to ``entry``."""
        def make(obj, idx):
            body: List = [Work(4)]
            body.extend(self._call_conduit(entry, obj, idx, dst=6, scratch=5))
            body.append(Return(Local(6)))
            return body
        return make

    def _call_conduit(self, entry, obj, idx, dst: int,
                      scratch: int) -> List:
        """Statements calling a conduit method with (obj, idx) arguments."""
        site = self.b.site()
        if entry.is_static:
            return [StaticCall(site, entry.id, [obj, idx], dst=dst)]
        return [New(scratch, entry.klass),
                StaticCall(site, entry.id, [Local(scratch), obj, idx],
                           dst=dst)]

    # -- shared medium pairs ----------------------------------------------------------------

    def _build_shared_medium(self, k: int, shared: SharedMediumSpec) -> None:
        """A small method (inlined everywhere) calling a medium method."""
        b = self.b
        cls = f"Shr{k}"
        b.cls(cls)
        self._hot_class_names.append(cls)
        m_params = 0 if shared.parameterless else 1
        if not shared.static:
            m_params += 1
        m = b.method(cls, f"m{k}",
                     [Work(shared.medium_work), Return(Const(k))],
                     params=m_params, static=shared.static, locals_=2)

        site = b.site()
        if shared.static:
            args = [] if shared.parameterless else [Arg(0)]
            sbody = [Work(4), StaticCall(site, m.id, args, dst=0),
                     Work(3), Return(Local(0))]
            s = b.static_method(cls, f"s{k}", sbody, params=1, locals_=2)
        else:
            args = [Local(1)] if shared.parameterless else [Local(1), Arg(0)]
            sbody = [Work(4), New(1, cls),
                     StaticCall(site, m.id, args, dst=0),
                     Work(3), Return(Local(0))]
            s = b.static_method(cls, f"s{k}", sbody, params=1, locals_=3)

        # Every driver calls the small wrapper at its own site.
        for driver_index in range(self.spec.drivers):
            self.driver_calls[driver_index].append(s.id)

    # -- control-dependent calls -----------------------------------------------------------------

    def _build_cond_pattern(self, q: int) -> None:
        """If(flag) helper-call; callers pass constant true/false flags."""
        b = self.b
        cls = f"Cond{q}"
        b.cls(cls)
        self._hot_class_names.append(cls)
        helper = b.static_method(cls, f"h{q}",
                                 [Work(30), Return(Const(q))], params=0,
                                 locals_=2)
        site = b.site()
        m = b.static_method(
            cls, f"m{q}",
            [Work(3),
             If(Arg(0), [StaticCall(site, helper.id, dst=0)], [Work(2)]),
             Return(Local(0))],
            params=1, locals_=2)
        taken = b.static_method(
            cls, f"ct{q}",
            [StaticCall(b.site(), m.id, [Const(1)], dst=0),
             Return(Local(0))], params=0, locals_=2)
        untaken = b.static_method(
            cls, f"cf{q}",
            [StaticCall(b.site(), m.id, [Const(0)], dst=0),
             Return(Local(0))], params=0, locals_=2)
        self.driver_calls[(2 * q) % self.spec.drivers].append(taken.id)
        self.driver_calls[(2 * q + 1) % self.spec.drivers].append(untaken.id)

    # -- monomorphic helper chains --------------------------------------------------------------------

    def _build_helper_chains(self) -> None:
        """Per-driver chains of tiny/small statically-bound helpers."""
        spec, b, rng = self.spec, self.b, self.rng
        if spec.helper_chain < 1:
            return
        b.cls("Help")
        self._hot_class_names.append("Help")
        for d in range(spec.drivers):
            next_id: Optional[str] = None
            for level in reversed(range(spec.helper_chain)):
                work = rng.choice((3, 5, 9, 13))
                body: List = [Work(work)]
                if next_id is not None:
                    body.append(StaticCall(b.site(), next_id, [Arg(0)],
                                           dst=0))
                body.append(Return(Const(level)))
                helper = b.static_method("Help", f"g{d}_{level}", body,
                                         params=1, locals_=2)
                next_id = helper.id
            self.driver_calls[d].append(next_id)

    # -- drivers and the large-method layer -------------------------------------------------------------

    def _build_drivers(self) -> None:
        spec, b = self.spec, self.b
        b.cls("Drv")
        self._hot_class_names.append("Drv")

        routed: List[List] = self.driver_calls
        if spec.large_in_chain:
            routed = self._route_through_large()

        for d in range(spec.drivers):
            body: List = [Work(spec.driver_work)]
            for target_id in routed[d]:
                body.append(StaticCall(b.site(), target_id,
                                       self._routed_args(target_id), dst=1))
            body.append(Return(Const(d)))
            b.static_method("Drv", f"t{d}", body, params=1, locals_=4)

    def _routed_args(self, target_id: str) -> List:
        """Arguments for a routed call, matching the target's declared arity.

        Most routed targets (helper chains, pattern wrappers, large
        interposers) take the transaction index; the control-dependent
        entry points (``ct*``/``cf*``) are parameterless.
        """
        if self.b.program.method(target_id).num_params == 0:
            return []
        return [Arg(0)]

    def _route_through_large(self) -> List[List]:
        """Interpose large methods: driver -> L -> pattern callers.

        Two consecutive drivers share one large method, so the large method
        is reached through multiple contexts -- profile weight above it
        splits, which is exactly what the Large-Methods policy avoids
        sampling past.
        """
        spec, b = self.spec, self.b
        b.cls("Big")
        self._hot_class_names.append("Big")
        routed: List[List] = [[] for _ in range(spec.drivers)]
        for l_index in range((spec.drivers + 1) // 2):
            members = [d for d in (2 * l_index, 2 * l_index + 1)
                       if d < spec.drivers]
            inner: List = [Work(spec.large_work)]
            for d in members:
                for target_id in self.driver_calls[d]:
                    inner.append(StaticCall(b.site(), target_id,
                                            self._routed_args(target_id),
                                            dst=1))
            inner.append(Return(Const(0)))
            large = b.static_method("Big", f"L{l_index}", inner, params=1,
                                    locals_=4)
            for d in members:
                routed[d] = [large.id]
        return routed

    # -- cold mass and startup ------------------------------------------------------------------------------

    def _build_cold_mass(self, hot_methods: int,
                         hot_bytecodes: int) -> List[str]:
        """Cold classes/methods sized to land the Table 1 totals.

        Returns the init-group method ids ``main`` must call at startup.
        """
        spec, b, rng = self.spec, self.b, self.rng
        hot_classes = len(self._hot_class_names)
        # Reserve: Main class + Init class.
        cold_classes = spec.classes - hot_classes - 2
        if cold_classes < 1:
            raise ConfigError(
                f"{spec.name}: Table 1 wants {spec.classes} classes but the "
                f"hot core already uses {hot_classes}")

        per_group = 24
        # Solve the methods budget exactly: n_cold + n_init == remaining
        # with every cold method covered (n_cold <= n_init * per_group),
        # i.e. n_init = ceil(remaining / (per_group + 1)).
        remaining = spec.methods - hot_methods
        n_init = max(1, -(-remaining // (per_group + 1)))
        n_cold = remaining - n_init
        if n_cold < cold_classes:
            raise ConfigError(
                f"{spec.name}: not enough cold methods ({n_cold}) to "
                f"populate {cold_classes} cold classes")

        # Decide instance-ness up front so the init/main sizes are exact.
        instance_flags = [rng.random() < 0.3 for _ in range(n_cold)]
        n_instance = sum(instance_flags)
        # Init bodies: one call (CALL_UNITS=4 bc) per cold method, one New
        # per instance method, plus a Return per group.
        init_bc = n_cold * 4 + n_instance + n_init
        # main: one call per init group, the driver loop, and a Return.
        main_bc = n_init * 4 + (2 + spec.drivers * 4) + 1
        cold_bc_budget = (spec.bytecodes - hot_bytecodes
                          - init_bc - main_bc)
        mean = max(8.0, cold_bc_budget / n_cold)

        cold_ids: List[Tuple[str, bool]] = []  # (method id, is_instance)
        budget_left = cold_bc_budget
        for index in range(n_cold):
            left = n_cold - index
            if left == 1:
                size = max(6, int(budget_left))
            else:
                size = max(6, min(int(rng.uniform(0.5, 1.5) * mean),
                                  int(budget_left) - 6 * (left - 1)))
            budget_left -= size
            klass = f"Cold{index % cold_classes}"
            if klass not in b.program.classes:
                b.cls(klass)
            is_instance = instance_flags[index]
            params = (1 if is_instance else 0) + rng.choice((0, 0, 1, 2))
            # Body bytecodes: Work(size-1) + Return == size exactly.
            method = b.method(klass, f"f{index}",
                              [Work(size - 1), Return(Const(0))],
                              params=params, static=not is_instance,
                              locals_=2)
            cold_ids.append((method.id, is_instance))

        # Init groups: touch every cold method exactly once.
        b.cls("Init")
        init_ids: List[str] = []
        for g in range(n_init):
            chunk = cold_ids[g * per_group:(g + 1) * per_group]
            body: List = []
            for method_id, is_instance in chunk:
                klass = method_id.split(".", 1)[0]
                method = b.program.method(method_id)
                if is_instance:
                    body.append(New(0, klass))
                    args: List = [Local(0)]
                    extra = method.num_params - 1
                else:
                    args = []
                    extra = method.num_params
                args.extend(Const(1) for _ in range(extra))
                body.append(StaticCall(b.site(), method_id, args))
            body.append(Return(Const(0)))
            init = b.static_method("Init", f"init{g}", body, params=0,
                                   locals_=2)
            init_ids.append(init.id)
        return init_ids

    def _build_main(self, init_calls: Sequence[str]) -> None:
        spec, b = self.spec, self.b
        b.cls("Main")
        body: List = [StaticCall(b.site(), init_id) for init_id in init_calls]
        loop_body: List = []
        for d in range(spec.drivers):
            loop_body.append(StaticCall(b.site(), f"Drv.t{d}", [Local(0)],
                                        dst=1))
        body.append(Loop(Const(spec.iterations), 0, loop_body))
        body.append(Return(Const(0)))
        b.static_method("Main", "main", body, params=0, locals_=4)
        b.entry("Main.main")
