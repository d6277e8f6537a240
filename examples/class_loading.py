#!/usr/bin/env python
"""Dynamic class loading vs CHA devirtualization (and pre-existence).

The inline oracle devirtualizes virtual calls whose selector has a single
dispatch target *among the classes loaded so far* (paper Section 3.1's
"class analysis + class hierarchy analysis + pre-existence" pipeline).
That binding can be broken by the class loader: this example runs a
program that only instantiates ``Circle`` for the first 60% of the run,
letting the optimizer inline ``Circle.area`` into the hot ``measure``
method without any guard.  When ``Square`` first loads:

* the recorded CHA dependency fires and the devirtualized code is
  invalidated (future invocations fall back to baseline);
* in-flight activations safely finish on the old code -- their receivers
  pre-exist the new class, which is exactly what pre-existence licenses;
* the adaptive system recompiles ``measure``, now using profile-directed
  guarded inlining for the two-target dispatch.

Run with::

    python examples/class_loading.py
"""

from repro import AdaptiveRuntime, make_policy
from repro.aos.event_log import EventLog
from repro.workloads import lazy_loading


def main() -> None:
    built = lazy_loading.build(iterations=30_000)
    log = EventLog()
    runtime = AdaptiveRuntime(built.program, make_policy("cins", 1),
                              sinks=[log])
    result = runtime.run()
    invalidations = log.of_kind("invalidate")

    print(f"run: {built.iterations} iterations; Square first instantiated "
          f"at iteration {built.load_at}")
    print(f"classes loaded during the run: "
          f"{runtime.hierarchy.loaded_count}")
    print(f"invalidations: {result.invalidations}")
    for event in invalidations:
        print(f"  {event.subject}: CHA binding for "
              f"{event.detail['selector']!r} broken at cycle "
              f"{event.clock:,.0f}")

    for method_id in sorted({event.subject for event in invalidations}):
        print(f"\ncompilation history of {method_id}:")
        for event in log.of_kind("compile"):
            if event.subject == method_id:
                print(f"  {event.detail['version']} at cycle "
                      f"{event.clock:,.0f} ({event.detail['reason']}, "
                      f"{event.detail['inlined_bc']} bc)")
        compiled = runtime.code_cache.installed.get(method_id)
        if compiled is None:
            print("  (currently running at the baseline tier)")
            continue
        for node in compiled.root.walk():
            decision = node.decisions.get(built.area_site)
            if decision is not None:
                kind = "guarded" if decision.kind == "guarded" else "direct"
                print(f"  final code: area dispatch {kind}-inlines "
                      f"{decision.targets()} (inside {node.method.id})")
                break
        else:
            print("  final code: area dispatch left as a virtual call")
    print(f"\nguard misses paid during the transition: "
          f"{result.guard_misses}")


if __name__ == "__main__":
    main()
