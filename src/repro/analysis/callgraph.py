"""Static call graphs over mini-JVM programs: CHA and RTA precision.

Two classic whole-program analyses, both *closed-world* over the declared
classes (our programs cannot load code the source does not contain):

* **CHA** (Class Hierarchy Analysis): a virtual site can reach
  every implementation of its selector anywhere in the hierarchy.  This
  is the coarsest sound target set, and the one the soundness checker
  compares dynamically observed dispatch edges against.
* **RTA** (Rapid Type Analysis): a fixpoint that only admits dispatch
  targets reachable through classes actually *instantiated* in reachable
  code.  Strictly at-most-CHA per site; sites CHA calls polymorphic can
  become RTA-monomorphic when only one receiver class is ever allocated.

On top of the target sets the builder layers what a profile-free inliner
needs: per-method *static frequency estimates* (loop bounds multiply,
``If`` branches halve, frequencies propagate along call edges from the
entry), reachable/dead-method reports, and per-method size classes from
:mod:`repro.compiler.size_estimator`.  The
:class:`~repro.analysis.static_oracle.StaticOracle` consumes exactly this
graph, and ``repro analyze`` reports its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.size_estimator import classify
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ExecutionError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (
    E_CONST, S_IF, S_LOOP, S_NEW, S_NEWPOOL,
    S_STATIC_CALL, S_VIRTUAL_CALL,
    MethodDef, Program, Stmt,
)

#: Assumed trip count for loops whose bound is not a compile-time constant.
DEFAULT_LOOP_TRIPS = 8

#: Constant loop bounds are clamped here so nested hot loops cannot push
#: frequency estimates into overflow territory.
LOOP_TRIP_CAP = 256

#: Taken-probability assumed for each ``If`` branch.
BRANCH_PROBABILITY = 0.5

#: Contributions below this weight are not propagated further (cheap
#: cycle/termination guard for the frequency walk).
MIN_PROPAGATED_WEIGHT = 1e-9

CHA = "cha"
RTA = "rta"
PRECISIONS = (CHA, RTA)


@dataclass(frozen=True)
class CallSite:
    """One call site with its statically possible targets and frequency."""

    site: int                    #: program-unique call-site id
    caller: str                  #: enclosing method id
    kind: str                    #: "static" | "virtual"
    selector: str                #: selector (or target id for static calls)
    targets: Tuple[str, ...]     #: sorted possible target method ids
    frequency: float             #: static execution-frequency estimate

    @property
    def monomorphic(self) -> bool:
        return len(self.targets) == 1

    @property
    def dispatched(self) -> bool:
        """True for virtual sites (the ones dispatch resolves)."""
        return self.kind != "static"


@dataclass
class StaticCallGraph:
    """A whole-program call graph at one precision (CHA or RTA)."""

    program_name: str
    precision: str                       #: :data:`CHA` or :data:`RTA`
    entry: str
    sites: Dict[int, CallSite] = field(default_factory=dict)
    reachable: FrozenSet[str] = frozenset()     #: method ids, from entry
    instantiated: FrozenSet[str] = frozenset()  #: class names admitted
    method_frequency: Dict[str, float] = field(default_factory=dict)
    size_classes: Dict[str, str] = field(default_factory=dict)

    # -- target queries -------------------------------------------------------

    def targets(self, site: int) -> FrozenSet[str]:
        """Possible targets of a site (empty when the site is unknown)."""
        info = self.sites.get(site)
        return frozenset(info.targets) if info is not None else frozenset()

    def is_monomorphic(self, site: int) -> bool:
        info = self.sites.get(site)
        return info is not None and info.monomorphic

    def dispatched_sites(self) -> List[CallSite]:
        """Virtual sites, in site-id order."""
        return [self.sites[s] for s in sorted(self.sites)
                if self.sites[s].dispatched]

    def monomorphic_sites(self) -> List[CallSite]:
        return [s for s in self.dispatched_sites() if s.monomorphic]

    def polymorphic_sites(self) -> List[CallSite]:
        return [s for s in self.dispatched_sites() if not s.monomorphic]

    def monomorphism_histogram(self) -> Dict[int, int]:
        """target-set size -> number of dispatched sites with that size."""
        histogram: Dict[int, int] = {}
        for info in self.dispatched_sites():
            n = len(info.targets)
            histogram[n] = histogram.get(n, 0) + 1
        return histogram

    # -- reachability ---------------------------------------------------------

    def dead_methods(self) -> List[str]:
        """Declared methods the analysis cannot reach from the entry."""
        all_ids = {f"{c}.{m}" for c, cls in self._classes_index()
                   for m in cls}
        return sorted(all_ids - set(self.reachable))

    def _classes_index(self) -> Iterable[Tuple[str, List[str]]]:
        # ``sites`` only knows reachable callers; keep an independent view
        # of the declared universe via size_classes (one entry per method).
        by_class: Dict[str, List[str]] = {}
        for method_id in self.size_classes:
            klass, _, name = method_id.partition(".")
            by_class.setdefault(klass, []).append(name)
        return by_class.items()

    # -- static hotness -------------------------------------------------------

    @property
    def total_site_frequency(self) -> float:
        return sum(info.frequency for info in self.sites.values())

    def site_weight(self, site: int) -> float:
        """A site's share of the program's total static call frequency."""
        total = self.total_site_frequency
        info = self.sites.get(site)
        if info is None or total <= 0.0:
            return 0.0
        return info.frequency / total

    # -- summaries ------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-ready statistics block for ``repro analyze``."""
        dispatched = self.dispatched_sites()
        mono = sum(1 for s in dispatched if s.monomorphic)
        return {
            "precision": self.precision,
            "methods_reachable": len(self.reachable),
            "methods_dead": len(self.dead_methods()),
            "dead_methods": self.dead_methods(),
            "classes_instantiated": len(self.instantiated),
            "call_sites": len(self.sites),
            "dispatched_sites": len(dispatched),
            "monomorphic_sites": mono,
            "polymorphic_sites": len(dispatched) - mono,
            "monomorphism_histogram": {
                str(k): v
                for k, v in sorted(self.monomorphism_histogram().items())},
        }


# -- construction -------------------------------------------------------------


def build_call_graph(program: Program,
                     hierarchy: Optional[ClassHierarchy] = None,
                     precision: str = CHA,
                     costs: CostModel = DEFAULT_COSTS) -> StaticCallGraph:
    """Build the static call graph of ``program`` at the given precision."""
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, "
                         f"got {precision!r}")
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)
    entry = program.entry_method()
    builder = _GraphBuilder(program, hierarchy, precision)
    reachable, instantiated = builder.fixpoint(entry)
    multipliers = {m_id: method_site_multipliers(program.method(m_id))
                   for m_id in reachable}
    frequency = builder.propagate_frequencies(entry, multipliers)

    sites: Dict[int, CallSite] = {}
    for method_id in reachable:
        method = program.method(method_id)
        caller_freq = frequency.get(method_id, 0.0)
        for stmt in iter_call_sites(method.body):
            kind, selector = site_kind(stmt)
            sites[stmt.site] = CallSite(
                site=stmt.site, caller=method_id, kind=kind,
                selector=selector,
                targets=tuple(sorted(builder.targets(stmt))),
                frequency=caller_freq
                * multipliers[method_id].get(stmt.site, 1.0))

    size_classes = {m.id: classify(m, costs).value for m in program.methods()}
    return StaticCallGraph(
        program_name=program.name, precision=precision, entry=entry.id,
        sites=sites, reachable=frozenset(reachable),
        instantiated=frozenset(instantiated),
        method_frequency=dict(frequency), size_classes=size_classes)


def site_kind(stmt: Stmt) -> Tuple[str, str]:
    """``(kind, selector)`` of one call statement; shared with k-CFA."""
    if stmt.kind == S_STATIC_CALL:
        return "static", stmt.target
    return "virtual", stmt.selector


def method_site_multipliers(method: MethodDef) -> Dict[int, float]:
    """Within-method execution-count estimate for each call site.

    Loop bounds multiply (clamped to :data:`LOOP_TRIP_CAP`), ``If``
    branches damp by :data:`BRANCH_PROBABILITY`.  Shared by the flat
    call-graph builder and the k-CFA frequency propagation.
    """
    out: Dict[int, float] = {}
    _walk_multipliers(method.body, 1.0, out)
    return out


class _GraphBuilder:
    """Shared machinery for the CHA/RTA construction passes."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 precision: str):
        self._program = program
        self._hierarchy = hierarchy
        self._precision = precision
        self._instantiated: set = set()

    # -- target sets ----------------------------------------------------------

    def targets(self, stmt: Stmt) -> set:
        """Possible target method ids of one call statement."""
        if stmt.kind == S_STATIC_CALL:
            return {stmt.target}
        if self._precision == CHA:
            return {impl.id
                    for impl in self._hierarchy.implementations(stmt.selector)}
        out = set()
        for class_name in self._instantiated:
            try:
                out.add(self._hierarchy.resolve(class_name,
                                                stmt.selector).id)
            except ExecutionError:
                continue  # this receiver class does not understand it
        return out

    # -- reachability fixpoint ------------------------------------------------

    def fixpoint(self, entry: MethodDef) -> Tuple[set, set]:
        """Reachable methods and instantiated classes, to fixpoint.

        For CHA a single traversal suffices (target sets never change);
        RTA iterates because newly admitted classes widen virtual target
        sets, which can reach new allocation sites.
        """
        reachable = {entry.id}
        changed = True
        while changed:
            changed = False
            for method_id in sorted(reachable):
                method = self._program.method(method_id)
                for class_name in _allocations(method.body):
                    if class_name not in self._instantiated:
                        self._instantiated.add(class_name)
                        changed = True
                for stmt in iter_call_sites(method.body):
                    for target in self.targets(stmt):
                        if target not in reachable:
                            reachable.add(target)
                            changed = True
        return reachable, set(self._instantiated)

    # -- static frequency estimates -------------------------------------------

    def propagate_frequencies(self, entry: MethodDef,
                              multipliers: Dict[str, Dict[int, float]]) \
            -> Dict[str, float]:
        """Propagate invocation frequencies from the entry over call edges.

        A virtual site's frequency is split evenly over its possible
        targets (no profile exists to skew it).  Edges back into a method
        already on the walk stack contribute nothing, which terminates
        recursion cleanly.
        """
        frequency: Dict[str, float] = {}
        stack: set = set()

        def contribute(method_id: str, weight: float) -> None:
            if weight < MIN_PROPAGATED_WEIGHT or method_id in stack:
                return
            frequency[method_id] = frequency.get(method_id, 0.0) + weight
            stack.add(method_id)
            try:
                method = self._program.method(method_id)
                mults = multipliers.get(method_id, {})
                for stmt in iter_call_sites(method.body):
                    site_freq = weight * mults.get(stmt.site, 1.0)
                    targets = self.targets(stmt)
                    if not targets:
                        continue
                    share = site_freq / len(targets)
                    for target in sorted(targets):
                        contribute(target, share)
            finally:
                stack.discard(method_id)

        contribute(entry.id, 1.0)
        return frequency


def _allocations(body) -> Iterable[str]:
    """Class names allocated anywhere in a body (nested blocks included)."""
    for stmt in body:
        k = stmt.kind
        if k == S_NEW:
            yield stmt.class_name
        elif k == S_NEWPOOL:
            yield from stmt.class_names
        elif k == S_IF:
            yield from _allocations(stmt.then_body)
            yield from _allocations(stmt.else_body)
        elif k == S_LOOP:
            yield from _allocations(stmt.body)


def _walk_multipliers(body, mult: float, out: Dict[int, float]) -> None:
    for stmt in body:
        k = stmt.kind
        if k in (S_STATIC_CALL, S_VIRTUAL_CALL):
            out[stmt.site] = mult
        elif k == S_IF:
            _walk_multipliers(stmt.then_body, mult * BRANCH_PROBABILITY, out)
            _walk_multipliers(stmt.else_body, mult * BRANCH_PROBABILITY, out)
        elif k == S_LOOP:
            if stmt.count.kind == E_CONST and isinstance(stmt.count.value,
                                                         int):
                trips = min(max(stmt.count.value, 0), LOOP_TRIP_CAP)
            else:
                trips = DEFAULT_LOOP_TRIPS
            _walk_multipliers(stmt.body, mult * trips, out)
