"""Unit tests for the AOS organizers (with a minimal fake machine)."""

import pytest

from repro.aos.cost_accounting import (AI_ORGANIZER, CostAccounting,
                                       DECAY_ORGANIZER, METHOD_ORGANIZER)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import MethodListener, TraceListener
from repro.aos.organizers import (AIOrganizer, AOSState, DCGOrganizer,
                                  DecayOrganizer, HotMethodsOrganizer,
                                  MAX_OPT_VERSIONS, MissingEdgeOrganizer)
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import (CompiledMethod, GuardOption,
                                            InlineDecision, InlineNode,
                                            DIRECT, GUARDED)
from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.oracle import build_site_trace_index, guard_coverage
from repro.jvm.costs import (DEFAULT_COSTS, HOT_METHOD_SAMPLES, CostModel,
                             to_centi)
from repro.jvm.frames import Frame
from repro.jvm.program import (Arg, Const, MethodDef, Return, StaticCall,
                               VirtualCall, Work, S_VIRTUAL_CALL)
from repro.policies import make_policy
from repro.policies.catalog import ContextInsensitive, FixedLevel
from repro.profiles.partial_match import candidate_targets
from repro.profiles.trace import InlineRule, TraceKey
from repro.workloads.spec import build_benchmark


class FakeMachine:
    """Just enough machine for organizers: a clock and an accountant, in
    centi-cycles like ``Machine``."""

    def __init__(self):
        self.clock = 0
        self.accounting = CostAccounting()

    def charge(self, component, cycles):
        centi = to_centi(cycles)
        self.clock += centi
        self.accounting.charge(component, centi)

    def cycles(self, component):
        return self.accounting.snapshot(self.clock)[component]


class FakeController:
    def __init__(self):
        self.hot = []
        self.recompiles = []

    def method_is_hot(self, method_id, samples):
        self.hot.append((method_id, samples))

    def recompile_for_missing_edge(self, method_id):
        self.recompiles.append(method_id)


def key(callee, *pairs):
    return TraceKey(callee, tuple(pairs))


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def state():
    return AOSState()


class TestDCGOrganizer:
    def test_drains_buffer_into_dcg(self, state, costs):
        policy = ContextInsensitive()
        listener = TraceListener(policy)
        listener.buffer.extend([key("D", ("C", 1)), key("D", ("C", 1))])
        organizer = DCGOrganizer(state, policy, costs)
        machine = FakeMachine()
        assert organizer.run(machine, listener) == 2
        assert state.dcg.weight(key("D", ("C", 1))) == 2.0
        assert listener.buffer == []
        assert machine.cycles(AI_ORGANIZER) == 2 * costs.dcg_ingest_cost

    def test_empty_buffer_free(self, state, costs):
        policy = ContextInsensitive()
        organizer = DCGOrganizer(state, policy, costs)
        machine = FakeMachine()
        assert organizer.run(machine, TraceListener(policy)) == 0
        assert machine.clock == 0.0


class TestAIOrganizer:
    def _feed(self, state, weight_by_key):
        for k, w in weight_by_key.items():
            state.dcg.add(k, w)

    def test_below_min_weight_no_rules(self, state, costs):
        self._feed(state, {key("D", ("C", 1)): 5.0})
        organizer = AIOrganizer(state, costs)
        organizer.run(FakeMachine())
        assert state.rules == []

    def test_enter_streak_gates_rule_creation(self, state, costs):
        self._feed(state, {key("D", ("C", 1)): 50.0})
        organizer = AIOrganizer(state, costs)
        machine = FakeMachine()
        for _ in range(organizer.ENTER_STREAK - 1):
            organizer.run(machine)
            assert state.rules == []  # not enough consecutive hot epochs
        organizer.run(machine)
        assert [r.callee for r in state.rules] == ["D"]

    def test_rule_retained_in_warm_band(self, state, costs):
        hot_key = key("D", ("C", 1))
        self._feed(state, {hot_key: 50.0, key("X", ("Y", 2)): 100.0})
        organizer = AIOrganizer(state, costs)
        machine = FakeMachine()
        organizer.run(machine)
        organizer.run(machine)
        assert any(r.callee == "D" for r in state.rules)
        # Push D's share just below the 1.5% threshold but above the
        # retention band: rule must survive.
        state.dcg.add(key("X", ("Y", 2)), 3720.0)
        for _ in range(5):
            organizer.run(machine)
        share = state.dcg.weight(hot_key) / state.dcg.total_weight
        assert share < costs.hot_edge_threshold
        assert share > costs.hot_edge_threshold * organizer.RETAIN_FRACTION
        assert any(r.callee == "D" for r in state.rules)

    def test_rule_retired_after_cold_epochs(self, state, costs):
        organizer = AIOrganizer(state, costs)
        machine = FakeMachine()
        self._feed(state, {key("D", ("C", 1)): 50.0})
        organizer.run(machine)
        organizer.run(machine)
        assert state.rules
        # Bury it far below the retention band.
        state.dcg.add(key("X", ("Y", 2)), 100_000.0)
        for _ in range(organizer.EXIT_STREAK):
            organizer.run(machine)
        assert all(r.callee != "D" for r in state.rules)

    def test_fingerprint_stable_when_rules_unchanged(self, state, costs):
        organizer = AIOrganizer(state, costs)
        machine = FakeMachine()
        self._feed(state, {key("D", ("C", 1)): 50.0})
        organizer.run(machine)
        organizer.run(machine)
        fp1 = state.rules_fingerprint
        state.dcg.add(key("D", ("C", 1)), 1.0)  # weight moves, set doesn't
        organizer.run(machine)
        assert state.rules_fingerprint == fp1


class TestHotMethodsOrganizer:
    def test_aggregates_and_reports_hot(self, state, costs):
        organizer = HotMethodsOrganizer(state, costs)
        listener = MethodListener()
        controller = FakeController()
        machine = FakeMachine()
        listener.buffer.extend(["C.m"] * HOT_METHOD_SAMPLES)
        organizer.run(machine, listener, controller)
        assert controller.hot == [("C.m", float(HOT_METHOD_SAMPLES))]
        assert machine.cycles(METHOD_ORGANIZER) > 0

    def test_below_bar_not_reported(self, state, costs):
        organizer = HotMethodsOrganizer(state, costs)
        listener = MethodListener()
        controller = FakeController()
        listener.buffer.extend(["C.m"] * (HOT_METHOD_SAMPLES - 1))
        organizer.run(FakeMachine(), listener, controller)
        assert controller.hot == []

    def test_counts_accumulate_across_epochs(self, state, costs):
        organizer = HotMethodsOrganizer(state, costs)
        controller = FakeController()
        for _ in range(HOT_METHOD_SAMPLES):
            listener = MethodListener()
            listener.buffer.append("C.m")
            organizer.run(FakeMachine(), listener, controller)
        assert controller.hot


class TestDecayOrganizer:
    def test_decays_dcg_and_method_samples(self, state, costs):
        state.dcg.add(key("D", ("C", 1)), 10.0)
        state.method_samples["C.m"] = 10.0
        organizer = DecayOrganizer(state, costs)
        machine = FakeMachine()
        organizer.run(machine)
        assert state.dcg.weight(key("D", ("C", 1))) == \
            pytest.approx(10.0 * costs.decay_rate)
        assert state.method_samples["C.m"] == \
            pytest.approx(10.0 * costs.decay_rate)
        assert machine.cycles(DECAY_ORGANIZER) > 0

    def test_tiny_method_counts_dropped(self, state, costs):
        state.method_samples["C.m"] = 0.1
        DecayOrganizer(state, costs).run(FakeMachine())
        assert "C.m" not in state.method_samples


def make_compiled(method, version=1, fingerprint=0, decisions=None):
    root = InlineNode(method, 0)
    if decisions:
        root.decisions.update(decisions)
    return CompiledMethod(root, method.bytecodes, method.bytecodes * 6,
                          method.bytecodes * 14, version, fingerprint)


class TestMissingEdgeOrganizer:
    def _setup(self, costs):
        state = AOSState()
        cache = CodeCache(costs)
        database = AOSDatabase()
        organizer = MissingEdgeOrganizer(state, cache, database, costs)
        return state, cache, database, organizer

    def _hot_method(self, state, method):
        state.method_samples[method.id] = HOT_METHOD_SAMPLES + 1.0

    def _method_with_call(self, callee_id="C.callee", site=5):
        body = [StaticCall(site, callee_id, dst=0), Return(Const(0))]
        return MethodDef("C", "caller", 0, True, body, bytecodes=40)

    def _callee(self):
        return MethodDef("C", "callee", 0, True,
                         [Work(30), Return(Const(0))])

    def test_missed_hot_edge_triggers_recompile(self, costs):
        state, cache, _db, organizer = self._setup(costs)
        caller = self._method_with_call()
        cache.install(make_compiled(caller, fingerprint=111))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 1
        assert controller.recompiles == ["C.caller"]

    def test_cold_method_skipped(self, costs):
        state, cache, _db, organizer = self._setup(costs)
        caller = self._method_with_call()
        cache.install(make_compiled(caller, fingerprint=111))
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 0

    def test_same_fingerprint_skipped(self, costs):
        state, cache, _db, organizer = self._setup(costs)
        caller = self._method_with_call()
        cache.install(make_compiled(caller, fingerprint=222))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 0

    def test_refused_edge_not_rerequested(self, costs):
        state, cache, database, organizer = self._setup(costs)
        caller = self._method_with_call()
        cache.install(make_compiled(caller, fingerprint=111))
        self._hot_method(state, caller)
        database.record_refusal("C.caller", 5, "C.callee", "large")
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 0

    def test_already_inlined_edge_skipped(self, costs):
        state, cache, _db, organizer = self._setup(costs)
        caller = self._method_with_call()
        callee = self._callee()
        decision = InlineDecision(DIRECT,
                                  [GuardOption(callee, InlineNode(callee, 1))])
        cache.install(make_compiled(caller, fingerprint=111,
                                    decisions={5: decision}))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 0

    def test_stale_guard_triggers_recompile(self, costs):
        # A guarded site whose target is no longer predicted by any rule.
        state, cache, _db, organizer = self._setup(costs)
        body = [VirtualCall(5, "poly", Arg(0), dst=0), Return(Const(0))]
        caller = MethodDef("C", "caller", 1, True, body, bytecodes=40)
        stale_target = MethodDef("A", "poly", 1, False,
                                 [Work(5), Return(Const(0))])
        decision = InlineDecision(
            GUARDED, [GuardOption(stale_target,
                                  InlineNode(stale_target, 1), "A")])
        cache.install(make_compiled(caller, fingerprint=111,
                                    decisions={5: decision}))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        state.rules = []  # every rule for the site retired
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 1

    @pytest.mark.parametrize("order", [("A.poly", "B.poly"),
                                       ("B.poly", "A.poly")])
    def test_tied_targets_chosen_by_id(self, order, monkeypatch):
        # Two targets tie on rule weight at a one-target cut; only A covers
        # enough dispatches.  Whatever order the prediction lists them in
        # (it follows set order), the replay picks A, as the oracle does.
        from repro.aos import organizers
        from repro.profiles.trace import InlineRule
        costs = CostModel(max_guarded_targets=1)
        state, cache, _db, organizer = self._setup(costs)
        body = [VirtualCall(5, "poly", Arg(0), dst=0), Return(Const(0))]
        caller = MethodDef("C", "caller", 1, True, body, bytecodes=40)
        cache.install(make_compiled(caller, fingerprint=111))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        state.rules = [InlineRule(key(target, ("C.caller", 5)), 10.0, 0.05)
                       for target in order]
        state.dcg.add(key("A.poly", ("C.caller", 5)), 85.0)
        state.dcg.add(key("B.poly", ("C.caller", 5)), 15.0)
        monkeypatch.setattr(organizers, "candidate_targets",
                            lambda rules, context: dict.fromkeys(order, 10.0))
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 1
        assert controller.recompiles == ["C.caller"]

    def test_version_cap_respected(self, costs):
        state, cache, _db, organizer = self._setup(costs)
        caller = self._method_with_call()
        cache.install(make_compiled(caller, version=MAX_OPT_VERSIONS,
                                    fingerprint=111))
        self._hot_method(state, caller)
        state.rules_fingerprint = 222
        from repro.profiles.trace import InlineRule
        state.rules = [InlineRule(key("C.callee", ("C.caller", 5)),
                                  10.0, 0.05)]
        controller = FakeController()
        assert organizer.run(FakeMachine(), controller) == 0


class TestReplayTable:
    """The replay walks a cached table of each compiled tree's sites."""

    def test_trigger_inside_inlined_child_charges_its_position(self, costs):
        # C.caller's site 5 inlines C.mid, whose site 8 misses a hot edge.
        # Walk order: caller@5, mid@7, mid@8 (the trigger), caller@6.
        leaf = MethodDef("C", "leaf", 0, True, [Work(3), Return(Const(0))])
        mid = MethodDef("C", "mid", 0, True,
                        [StaticCall(7, "C.leaf", dst=0),
                         StaticCall(8, "C.leaf", dst=0), Return(Const(0))],
                        bytecodes=30)
        caller = MethodDef("C", "caller", 0, True,
                           [StaticCall(5, "C.mid", dst=0),
                            StaticCall(6, "C.leaf", dst=0), Return(Const(0))],
                           bytecodes=40)
        mid_node = InlineNode(mid, 1)
        mid_node.decisions[7] = InlineDecision(
            DIRECT, [GuardOption(leaf, InlineNode(leaf, 2))])
        compiled = make_compiled(caller, fingerprint=111, decisions={
            5: InlineDecision(DIRECT, [GuardOption(mid, mid_node)])})
        state = AOSState()
        cache = CodeCache(costs)
        cache.install(compiled)
        organizer = MissingEdgeOrganizer(state, cache, AOSDatabase(), costs)
        state.method_samples["C.caller"] = HOT_METHOD_SAMPLES + 1.0
        state.rules = [InlineRule(key("C.leaf", ("C.mid", 8)), 10.0, 0.05)]
        state.rules_fingerprint = 222

        machine, controller = FakeMachine(), FakeController()
        assert organizer.run(machine, controller) == 1
        assert controller.recompiles == ["C.caller"]
        assert [site.key for site in compiled.replay_sites] == [
            ("C.caller", 5), ("C.mid", 7), ("C.mid", 8), ("C.caller", 6)]
        assert machine.cycles(AI_ORGANIZER) == \
            3 * costs.missing_edge_check_cost

        table = compiled.replay_sites
        state.rules_fingerprint = 333
        assert organizer.run(FakeMachine(), FakeController()) == 1
        assert compiled.replay_sites is table  # built once


def _reference_needs_recompile(node, ctx_above, rules_by_site, site_traces,
                               database, costs, checks):
    """The recursive inline-tree replay the site table replaced, kept as
    the reference: one check per call site visited, in walk order, up to
    and including the first that asks for a recompile."""
    method_id = node.method.id
    for stmt in iter_call_sites(node.method.body):
        checks[0] += 1
        site = stmt.site
        site_key = (method_id, site)
        decision = node.decisions.get(site)
        inlined = ({option.target.id for option in decision.options}
                   if decision is not None else set())
        site_rules = rules_by_site.get(site_key)
        if site_rules and node.depth < costs.max_inline_depth:
            comp_context = ((method_id, site),) + ctx_above
            predicted = candidate_targets(site_rules, comp_context)
            if predicted and stmt.kind == S_VIRTUAL_CALL:
                chosen = set(sorted(predicted,
                                    key=lambda t: (-predicted[t], t))
                             [:costs.max_guarded_targets])
                coverage = guard_coverage(site_traces.get(site_key, ()),
                                          comp_context, chosen)
                if coverage < costs.guard_coverage_min:
                    predicted = {}
            for target_id in predicted:
                if (target_id not in inlined
                        and not database.was_refused(method_id, site,
                                                     target_id)):
                    return True
            if decision is not None and decision.kind == GUARDED:
                for target_id in inlined:
                    if target_id not in predicted:
                        return True
        elif (decision is not None and decision.kind == GUARDED
              and not site_rules):
            return True
        if decision is not None:
            comp_context = ((method_id, site),) + ctx_above
            for option in decision.options:
                if _reference_needs_recompile(option.node, comp_context,
                                              rules_by_site, site_traces,
                                              database, costs, checks):
                    return True
    return False


def _reference_replay(organizer):
    """``(requested method ids, checks)`` of the reference replay over the
    organizer's current state."""
    state, costs = organizer._state, organizer._costs
    rules_by_site = {}
    for rule in state.rules:
        rules_by_site.setdefault(rule.context[0], []).append(rule)
    site_traces = build_site_trace_index(state.dcg)
    checks, requested = [0], []
    for compiled in organizer._code_cache.opt_methods():
        if (compiled.rules_fingerprint == state.rules_fingerprint
                or compiled.version >= MAX_OPT_VERSIONS
                or state.method_samples.get(compiled.method.id, 0.0)
                < HOT_METHOD_SAMPLES):
            continue
        if _reference_needs_recompile(compiled.root, (), rules_by_site,
                                      site_traces, organizer._database,
                                      costs, checks):
            requested.append(compiled.method.id)
    return requested, checks[0]


class _Spy:
    """Passes calls through, recording the replay's requests and charge."""

    def __init__(self, machine, controller):
        self._machine = machine
        self._controller = controller
        self.requested = []
        self.charged = 0

    def charge(self, component, cycles):
        assert component == AI_ORGANIZER
        self.charged += cycles
        self._machine.charge(component, cycles)

    def recompile_for_missing_edge(self, method_id):
        self.requested.append(method_id)
        self._controller.recompile_for_missing_edge(method_id)


SPEC_EXIT = dict(speculation_enabled=True, deopt_planning_enabled=True,
                 deopt_strategy="osr-exit")


@pytest.mark.parametrize("program", ["jess", "db"])
@pytest.mark.parametrize("family,depth,overrides", [
    ("cins", 1, {}), ("fixed", 3, {}), ("hybrid2", 4, SPEC_EXIT)])
def test_replay_matches_recursive_reference(program, family, depth,
                                            overrides, monkeypatch):
    """At every wake of a real run, the table replay requests the same
    methods in the same order and charges the same checks as the
    recursive replay over the same state."""
    costs = DEFAULT_COSTS.replace(**overrides)
    runtime = AdaptiveRuntime(build_benchmark(program, 0.1).program,
                              make_policy(family, depth, costs), costs)
    real_run = MissingEdgeOrganizer.run
    totals = {"wakes": 0, "checks": 0, "requested": 0}

    def checked_run(self, machine, controller):
        requested, checks = _reference_replay(self)
        spy = _Spy(machine, controller)
        count = real_run(self, spy, spy)
        assert spy.requested == requested
        assert count == len(requested)
        assert spy.charged == (checks * costs.missing_edge_check_cost
                               if checks else 0)
        totals["wakes"] += 1
        totals["checks"] += checks
        totals["requested"] += count
        return count

    monkeypatch.setattr(MissingEdgeOrganizer, "run", checked_run)
    runtime.run()
    assert totals["wakes"] and totals["checks"] and totals["requested"]
