"""Class hierarchy analysis for the mini-JVM.

Provides the static analyses the paper's inline oracle relies on
(Section 3.1): method resolution for virtual dispatch, and a CHA-style
"single possible target" query that lets the oracle statically bind call
sites without a guard.  When CHA finds multiple possible targets the oracle
falls back to profile-directed guarded inlining, which is where
context-sensitive profiles earn their keep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.jvm.errors import ExecutionError, ProgramError
from repro.jvm.program import MethodDef, Program


class ClassHierarchy:
    """Resolution and CHA queries over a verified :class:`Program`.

    The hierarchy distinguishes *declared* classes from *loaded* (ever
    instantiated) ones.  CHA for devirtualization must reason about the
    loaded world only: a selector with one implementation among loaded
    receiver classes can be statically bound today, but loading another
    class later can break that -- which is why compiled code records CHA
    dependencies and gets invalidated on class loading (see
    :meth:`mark_loaded` and the AOS database).

    An unknown or cyclic superclass raises :class:`ProgramError`, so
    callers that skip the verifier fail instead of hanging.
    """

    def __init__(self, program: Program):
        self._program = program
        self._loaded: set = set()
        #: Monotone counter bumped on every class load.  Caches keyed on
        #: loaded-world queries (guard acceptance sets, invalidation
        #: cones) include the generation in their key, so a class load
        #: invalidates them without any explicit notification.
        self.generation = 0
        self._loaded_targets_cache: Dict[str, frozenset] = {}
        self._resolution_cache: Dict[tuple, MethodDef] = {}
        self._subclasses: Dict[str, Set[str]] = {name: {name}
                                                 for name in program.classes}
        for name, cls in program.classes.items():
            seen = {name}
            sup = cls.superclass
            while sup is not None:
                parent = program.classes.get(sup)
                if parent is None:
                    raise ProgramError(
                        f"class {name} extends unknown class {sup!r}")
                if sup in seen:
                    raise ProgramError(
                        f"inheritance cycle through {sup} (reached from "
                        f"{name})")
                seen.add(sup)
                self._subclasses[sup].add(name)
                sup = parent.superclass

        # selector -> set of method ids that implement it anywhere.
        self._implementations: Dict[str, List[MethodDef]] = {}
        for method in program.methods():
            self._implementations.setdefault(method.name, []).append(method)

    # -- dispatch ----------------------------------------------------------

    def resolve(self, class_name: str, selector: str) -> MethodDef:
        """Resolve ``selector`` on dynamic class ``class_name``.

        Walks the superclass chain exactly like JVM virtual dispatch.
        """
        key = (class_name, selector)
        cached = self._resolution_cache.get(key)
        if cached is not None:
            return cached
        cname: Optional[str] = class_name
        while cname is not None:
            cls = self._program.classes.get(cname)
            if cls is None:
                raise ExecutionError(f"dispatch on unknown class {class_name}")
            method = cls.methods.get(selector)
            if method is not None:
                self._resolution_cache[key] = method
                return method
            cname = cls.superclass
        raise ExecutionError(
            f"no implementation of {selector!r} reachable from {class_name}")

    # -- CHA ---------------------------------------------------------------

    def implementations(self, selector: str) -> List[MethodDef]:
        """All methods implementing ``selector`` anywhere in the program."""
        return list(self._implementations.get(selector, []))

    def sole_implementation(self, selector: str) -> Optional[MethodDef]:
        """Whole-program CHA: the unique implementation, or ``None``.

        Closed-world variant (every declared class counted); the online
        oracle uses :meth:`sole_loaded_target` instead, which respects
        dynamic class loading.
        """
        impls = self._implementations.get(selector, [])
        if len(impls) == 1:
            return impls[0]
        return None

    # -- dynamic loading ------------------------------------------------------

    def mark_loaded(self, class_name: str) -> bool:
        """Record that ``class_name`` has been instantiated.

        Returns True the first time (i.e. when this call *loads* the
        class); the caller is responsible for running CHA-dependency
        invalidation then.
        """
        if class_name in self._loaded:
            return False
        if class_name not in self._program.classes:
            raise ProgramError(f"loading unknown class {class_name!r}")
        self._loaded.add(class_name)
        self._loaded_targets_cache.clear()
        self.generation += 1
        return True

    def is_loaded(self, class_name: str) -> bool:
        return class_name in self._loaded

    @property
    def loaded_count(self) -> int:
        return len(self._loaded)

    def loaded_targets(self, selector: str) -> frozenset:
        """Method ids ``selector`` can dispatch to on loaded receivers."""
        cached = self._loaded_targets_cache.get(selector)
        if cached is not None:
            return cached
        targets = set()
        for class_name in self._loaded:
            try:
                targets.add(self.resolve(class_name, selector).id)
            except ExecutionError:
                continue  # selector not understood by this class
        result = frozenset(targets)
        self._loaded_targets_cache[selector] = result
        return result

    def sole_loaded_target(self, selector: str) -> Optional[MethodDef]:
        """Loaded-world CHA: the unique dispatch target today, or ``None``.

        This is the paper's "class analysis + class hierarchy analysis"
        devirtualization: sound for the classes loaded so far, guarded
        against the future by CHA-dependency invalidation (plus
        pre-existence, which makes in-flight activations safe without
        deoptimization).
        """
        targets = self.loaded_targets(selector)
        if len(targets) == 1:
            return self._program.method(next(iter(targets)))
        return None

    def subclasses(self, class_name: str) -> Set[str]:
        """Reflexive-transitive subclass set of ``class_name``."""
        try:
            return set(self._subclasses[class_name])
        except KeyError:
            raise ProgramError(f"unknown class {class_name!r}") from None
