#!/usr/bin/env python
"""The decay organizer adapting profile data across a program phase shift.

The paper's decay organizer (Section 3.2) periodically decays the dynamic
call graph so hot-edge detection tracks *recent* behaviour.  This example
builds a two-phase program: for the first half of the run a polymorphic
call site always receives class ``A`` instances, then it switches to
class ``B``.  With decay, the old phase's profile weight fades, the
``B``-target trace crosses the hot threshold, and the missing-edge
organizer gets the site re-optimized for the new phase.

The example prints the rule set and the installed inline decisions before
and after the shift, plus the guard-miss count (old guards missing on
new-phase receivers until the recompile lands).

Run with::

    python examples/phase_shift.py
"""

from repro import AdaptiveRuntime, ProvenanceRecorder, make_policy
from repro.workloads import phase_shift

ITERATIONS = 40000


def describe_decisions(runtime, step_site):
    compiled = runtime.code_cache.installed.get("App.work")
    if compiled is None:
        return "App.work not optimized"
    decision = compiled.root.decisions.get(step_site)
    if decision is None:
        return f"v{compiled.version}: step site not inlined (plain dispatch)"
    targets = ", ".join(decision.targets())
    return f"v{compiled.version}: guarded inline of [{targets}]"


def main() -> None:
    built = phase_shift.build(ITERATIONS)
    program, step_site = built.program, built.step_site
    recorder = ProvenanceRecorder()
    runtime = AdaptiveRuntime(program, make_policy("cins", 1),
                              sinks=[recorder])
    result = runtime.run()
    history = [record for record in recorder.compilations
               if record.method == "App.work"]

    print(f"two-phase run: {ITERATIONS} iterations, receiver class "
          f"switches A->B at the midpoint")
    print(f"final installed code for App.work: "
          f"{describe_decisions(runtime, step_site)}")
    print(f"recompilations of App.work: {len(history)}")
    print(f"guard misses during the run: {result.guard_misses} "
          f"(paid while phase-1 guards were stale)")
    print(f"decay organizer ran {runtime.decay_organizer.runs} times")

    for record in history:
        print(f"  compiled v{record.version} at cycle {record.clock:,.0f} "
              f"({record.reason})")

    final_rules = [r for r in runtime.state.rules
                   if r.context[0] == ("App.work", step_site)]
    print("final rules at the step site:")
    for rule in final_rules:
        print(f"  {rule.callee}  share={rule.share:.3f}")


if __name__ == "__main__":
    main()
