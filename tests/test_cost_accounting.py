"""Unit tests for the per-component cycle accounting (Figure 6 substrate)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aos.cost_accounting import (AI_ORGANIZER, ALL_COMPONENTS, APP,
                                       AOS_COMPONENTS, COMPILATION,
                                       CONTROLLER, DECAY_ORGANIZER,
                                       LISTENERS, METHOD_ORGANIZER)
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import (CENTI, DEFAULT_COSTS, INLINE_WORK_DISCOUNT,
                             to_centi)
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import Const, Return
from repro.policies import make_policy
from repro.workloads.builder import ProgramBuilder


def bare_machine():
    """A machine that is only charged, never run."""
    b = ProgramBuilder("acct")
    b.cls("Main")
    b.static_method("Main", "main", [Return(Const(0))])
    b.entry("Main.main")
    program = b.build()
    return Machine(program, ClassHierarchy(program),
                   CodeCache(DEFAULT_COSTS), DEFAULT_COSTS)


class TestComponents:
    def test_all_components_cover_app_plus_aos(self):
        assert set(ALL_COMPONENTS) == {APP} | set(AOS_COMPONENTS)

    def test_figure6_components_are_aos(self):
        for component in (LISTENERS, COMPILATION, DECAY_ORGANIZER,
                          AI_ORGANIZER, METHOD_ORGANIZER, CONTROLLER):
            assert component in AOS_COMPONENTS


class TestAccounting:
    def test_charges_accumulate(self):
        m = bare_machine()
        m.charge(APP, 100.0)
        m.charge(APP, 50.0)
        m.charge(COMPILATION, 25.0)
        assert m.accounting.snapshot(m.clock)[APP] == 150.0
        assert m.clock / CENTI == 175.0

    def test_snapshot_is_a_copy(self):
        m = bare_machine()
        m.charge(APP, 10.0)
        snap = m.accounting.snapshot(m.clock)
        snap[APP] = 999.0
        assert m.accounting.snapshot(m.clock)[APP] == 10.0


#: ``(component, cost field)`` pairs the adaptive system charges, each
#: times a count.
AOS_CHARGES = ((LISTENERS, "method_listener_cost"),
               (LISTENERS, "trace_frame_cost"),
               (AI_ORGANIZER, "dcg_ingest_cost"),
               (AI_ORGANIZER, "ai_examine_cost"),
               (AI_ORGANIZER, "missing_edge_check_cost"),
               (METHOD_ORGANIZER, "method_organizer_cost"),
               (DECAY_ORGANIZER, "decay_entry_cost"),
               (CONTROLLER, "controller_event_cost"),
               (COMPILATION, "baseline_compile_cycles_per_bc"),
               (COMPILATION, "opt_compile_cycles_per_bc"))

#: Cycles per unit of work at each tier (baseline, optimized, inlined).
TIER_MULTS = (DEFAULT_COSTS.baseline_exec_mult, DEFAULT_COSTS.opt_exec_mult,
              DEFAULT_COSTS.opt_exec_mult
              * (1.0 - INLINE_WORK_DISCOUNT))

#: Application charges other than work: each is one unit cost at a tier.
APP_UNITS = ("call_overhead", "virtual_dispatch", "guard_test")

counts = st.integers(min_value=1, max_value=5_000)
charges = st.one_of(
    st.builds(lambda n, mult: (APP, n * mult), counts,
              st.sampled_from(TIER_MULTS)),
    st.builds(lambda name, mult: (APP, getattr(DEFAULT_COSTS, name) * mult),
              st.sampled_from(APP_UNITS), st.sampled_from(TIER_MULTS)),
    st.builds(lambda pair, n: (pair[0], n * getattr(DEFAULT_COSTS, pair[1])),
              st.sampled_from(AOS_CHARGES), counts))


def charged_result(charges):
    """The run result of a runtime whose machine took only ``charges``."""
    runtime = AdaptiveRuntime(bare_machine().program, make_policy("cins", 1))
    for component, cycles in charges:
        runtime.machine.charge(component, cycles)
    return runtime._result(0)


class TestExactSums:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(charges, min_size=2, max_size=4))
    def test_charge_order_never_changes_a_total(self, drawn):
        outcomes = set()
        for order in itertools.permutations(drawn):
            result = charged_result(order)
            reported = dict(result.component_cycles,
                            total=result.total_cycles)
            # Every reported value is a whole number of centi-cycles,
            # divided once; APP is the total minus the AOS components.
            centi = {name: to_centi(value)
                     for name, value in reported.items()}
            for name, value in reported.items():
                assert value == centi[name] / CENTI, name
            assert centi[APP] == centi["total"] - sum(
                centi[name] for name in AOS_COMPONENTS)
            outcomes.add(tuple(sorted(reported.items())))
        assert len(outcomes) == 1
