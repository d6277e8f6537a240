"""A small fluent DSL for constructing mini-JVM programs.

The builder's main job is bookkeeping that the raw
:mod:`repro.jvm.program` model leaves to the caller: allocating
program-unique call-site ids and registering classes and methods.  It
does not check the finished program; the adaptive runtime verifies every
program it runs (:mod:`repro.analysis.verifier`).  Both the hand-written
example programs (the paper's Figure 1 ``HashMapTest``) and the
synthetic benchmark generator are written against this API.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.jvm.errors import ProgramError
from repro.jvm.program import (ClassDef, Expr, MethodDef, Program,
                               StaticCall, Stmt, VirtualCall)


class ProgramBuilder:
    """Accumulates classes/methods and allocates call-site ids."""

    def __init__(self, name: str):
        self._program = Program(name)
        self._next_site = 0

    # -- sites -------------------------------------------------------------------

    def site(self) -> int:
        """Allocate a fresh, program-unique call-site id."""
        site = self._next_site
        self._next_site += 1
        return site

    # -- classes -----------------------------------------------------------------

    def cls(self, name: str, superclass: Optional[str] = None) -> ClassDef:
        """Declare a class (idempotent when already declared identically)."""
        existing = self._program.classes.get(name)
        if existing is not None:
            if existing.superclass != superclass:
                raise ProgramError(
                    f"class {name} redeclared with a different shape")
            return existing
        return self._program.add_class(ClassDef(name, superclass))

    # -- methods -----------------------------------------------------------------

    def method(self, klass: str, name: str, body: Sequence[Stmt],
               params: int = 0, static: bool = False,
               locals_: int = 12) -> MethodDef:
        """Declare a method on an (already declared) class.

        ``params`` counts *all* parameter slots, including the receiver for
        instance methods -- i.e. an instance method taking one explicit
        argument has ``params=2``.
        """
        cls = self._program.classes.get(klass)
        if cls is None:
            raise ProgramError(f"declare class {klass!r} before its methods")
        method = MethodDef(klass, name, params, static, body,
                           num_locals=locals_)
        return cls.declare(method)

    def static_method(self, klass: str, name: str, body: Sequence[Stmt],
                      params: int = 0, locals_: int = 12) -> MethodDef:
        return self.method(klass, name, body, params=params, static=True,
                           locals_=locals_)

    # -- call helpers ---------------------------------------------------------------

    def call(self, target: str, args: Sequence[Expr] = (),
             dst: Optional[int] = None) -> StaticCall:
        """A statically-bound call with a fresh site id."""
        return StaticCall(self.site(), target, args, dst)

    def vcall(self, selector: str, receiver: Expr,
              args: Sequence[Expr] = (),
              dst: Optional[int] = None) -> VirtualCall:
        """A virtual call with a fresh site id."""
        return VirtualCall(self.site(), selector, receiver, args, dst)

    # -- finish -----------------------------------------------------------------------

    def entry(self, method_id: str) -> None:
        self._program.set_entry(method_id)

    def build(self) -> Program:
        """Return the finished program."""
        return self._program

    @property
    def program(self) -> Program:
        """The program under construction."""
        return self._program
