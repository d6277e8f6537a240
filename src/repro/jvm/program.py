"""Program model for the mini-JVM: classes, methods, and a statement bytecode.

A *program* is a set of classes, each declaring methods.  Method bodies are
small trees of statements over a tiny expression language.  The model is
deliberately minimal -- just enough to express the call-graph shapes the
paper's evaluation depends on:

* straight-line work (``Work``),
* statically-bound calls (``StaticCall``) and virtual dispatch
  (``VirtualCall``, which stands for interface invocations too) with
  per-site identifiers,
* parameter-dependent control flow (``If``) for the paper's
  "control-dependent call site" motivation (Section 2),
* loops with an induction variable (``Loop``) so hot code exists,
* object allocation (``New``/``NewPool``) and pool indexing (``Pick``) so
  receiver-class distributions can be correlated with calling context.

Statement and expression nodes carry an integer ``kind`` tag that the
interpreter's lowering step and the static analyses switch on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.jvm.costs import CALL_UNITS
from repro.jvm.errors import ProgramError

# ---------------------------------------------------------------------------
# Expression kinds
# ---------------------------------------------------------------------------

E_CONST = 0
E_ARG = 1
E_LOCAL = 2
E_ADD = 3
E_SUB = 4
E_MUL = 5
E_MOD = 6
E_PICK = 7
E_LT = 8


class Expr:
    """Base class for expressions (all concrete nodes are slotted)."""

    __slots__ = ()
    kind: int = -1


class Const(Expr):
    """A literal constant value."""

    __slots__ = ("value",)
    kind = E_CONST

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Arg(Expr):
    """The i-th parameter of the enclosing method."""

    __slots__ = ("index",)
    kind = E_ARG

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Arg({self.index})"


class Local(Expr):
    """The i-th local slot of the enclosing method."""

    __slots__ = ("index",)
    kind = E_LOCAL

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Local({self.index})"


class _BinOp(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class Add(_BinOp):
    """Integer addition."""

    __slots__ = ()
    kind = E_ADD


class Sub(_BinOp):
    """Integer subtraction."""

    __slots__ = ()
    kind = E_SUB


class Mul(_BinOp):
    """Integer multiplication."""

    __slots__ = ()
    kind = E_MUL


class Mod(_BinOp):
    """Integer modulo (with Python semantics; divisor must be nonzero)."""

    __slots__ = ()
    kind = E_MOD


class Lt(_BinOp):
    """Integer comparison: 1 when left < right, else 0."""

    __slots__ = ()
    kind = E_LT


class Pick(Expr):
    """Index into a pool value, wrapping around: ``pool[index % len(pool)]``.

    Workloads use pools of pre-allocated instances to drive receiver-class
    distributions at virtual call sites.
    """

    __slots__ = ("pool", "index")
    kind = E_PICK

    def __init__(self, pool: Expr, index: Expr):
        self.pool = pool
        self.index = index

    def __repr__(self) -> str:
        return f"Pick({self.pool!r}, {self.index!r})"


# ---------------------------------------------------------------------------
# Statement kinds
# ---------------------------------------------------------------------------

S_WORK = 0
S_LET = 1
S_NEW = 2
S_NEWPOOL = 3
S_STATIC_CALL = 4
S_VIRTUAL_CALL = 5
S_IF = 6
S_LOOP = 7
S_RETURN = 8


class Stmt:
    """Base class for statements."""

    __slots__ = ()
    kind: int = -1


class Work(Stmt):
    """``cost`` cycles of straight-line computation.

    At the optimizing tier one unit of work costs one cycle; the baseline
    tier multiplies it; inlined bodies receive a small discount (see
    :mod:`repro.jvm.costs`).  ``cost`` also contributes to the method's
    static bytecode size.
    """

    __slots__ = ("cost",)
    kind = S_WORK

    def __init__(self, cost: int):
        if cost < 0:
            raise ProgramError(f"negative work cost {cost}")
        self.cost = cost

    def __repr__(self) -> str:
        return f"Work({self.cost})"


class Let(Stmt):
    """Evaluate an expression into a local slot."""

    __slots__ = ("dst", "expr")
    kind = S_LET

    def __init__(self, dst: int, expr: Expr):
        self.dst = dst
        self.expr = expr

    def __repr__(self) -> str:
        return f"Let({self.dst}, {self.expr!r})"


class New(Stmt):
    """Allocate a fresh instance of ``class_name`` into a local slot."""

    __slots__ = ("dst", "class_name")
    kind = S_NEW

    def __init__(self, dst: int, class_name: str):
        self.dst = dst
        self.class_name = class_name

    def __repr__(self) -> str:
        return f"New({self.dst}, {self.class_name!r})"


class NewPool(Stmt):
    """Allocate a tuple of fresh instances (one per listed class name)."""

    __slots__ = ("dst", "class_names")
    kind = S_NEWPOOL

    def __init__(self, dst: int, class_names: Sequence[str]):
        self.dst = dst
        self.class_names = tuple(class_names)

    def __repr__(self) -> str:
        return f"NewPool({self.dst}, {self.class_names!r})"


class StaticCall(Stmt):
    """A statically-bound call (``invokestatic`` / monomorphic direct call).

    ``site`` is a program-unique call-site identifier; ``target`` is a
    ``"Class.method"`` method id; ``args`` are evaluated in the caller;
    ``dst`` optionally receives the return value.
    """

    __slots__ = ("site", "target", "args", "dst")
    kind = S_STATIC_CALL

    def __init__(self, site: int, target: str, args: Sequence[Expr] = (),
                 dst: Optional[int] = None):
        self.site = site
        self.target = target
        self.args = tuple(args)
        self.dst = dst

    def __repr__(self) -> str:
        return f"StaticCall(site={self.site}, target={self.target!r})"


class VirtualCall(Stmt):
    """A virtual dispatch: resolve ``selector`` on the receiver's class.

    It models ``invokevirtual`` and ``invokeinterface`` alike: both
    resolve the selector by the receiver's dynamic class, and the paper
    applies guarded inlining "at a virtual or interface invocation"
    (Section 3.1).

    The receiver expression is also passed to the callee as ``Arg(0)``
    (i.e. the callee's first parameter is ``this``); explicit ``args``
    follow it.
    """

    __slots__ = ("site", "selector", "receiver", "args", "dst")
    kind = S_VIRTUAL_CALL

    def __init__(self, site: int, selector: str, receiver: Expr,
                 args: Sequence[Expr] = (), dst: Optional[int] = None):
        self.site = site
        self.selector = selector
        self.receiver = receiver
        self.args = tuple(args)
        self.dst = dst

    def __repr__(self) -> str:
        return f"VirtualCall(site={self.site}, selector={self.selector!r})"


class If(Stmt):
    """Execute ``then_body`` when ``cond`` evaluates nonzero, else ``else_body``."""

    __slots__ = ("cond", "then_body", "else_body")
    kind = S_IF

    def __init__(self, cond: Expr, then_body: Sequence[Stmt],
                 else_body: Sequence[Stmt] = ()):
        self.cond = cond
        self.then_body = tuple(then_body)
        self.else_body = tuple(else_body)

    def __repr__(self) -> str:
        return f"If({self.cond!r}, then={len(self.then_body)}, else={len(self.else_body)})"


class Loop(Stmt):
    """Execute ``body`` ``count``-evaluated times, with the iteration index
    stored into local slot ``index_local`` before each iteration."""

    __slots__ = ("count", "index_local", "body")
    kind = S_LOOP

    def __init__(self, count: Expr, index_local: int, body: Sequence[Stmt]):
        self.count = count
        self.index_local = index_local
        self.body = tuple(body)

    def __repr__(self) -> str:
        return f"Loop(count={self.count!r}, body={len(self.body)})"


class Return(Stmt):
    """Return from the enclosing method with an optional value (default 0)."""

    __slots__ = ("expr",)
    kind = S_RETURN

    def __init__(self, expr: Optional[Expr] = None):
        self.expr = expr

    def __repr__(self) -> str:
        return f"Return({self.expr!r})"


# ---------------------------------------------------------------------------
# Static size estimation
# ---------------------------------------------------------------------------


def body_bytecodes(body: Iterable[Stmt]) -> int:
    """Estimate the bytecode size of a statement sequence.

    Work contributes its cycle count (one bytecode per unit of work), calls
    contribute :data:`repro.jvm.costs.CALL_UNITS`, control flow contributes
    its header plus both branch bodies, and loop bodies are counted once
    (static size, not dynamic).
    """
    total = 0
    for stmt in body:
        k = stmt.kind
        if k == S_WORK:
            total += stmt.cost
        elif k in (S_LET, S_NEW, S_RETURN):
            total += 1
        elif k == S_NEWPOOL:
            total += 1 + len(stmt.class_names)
        elif k in (S_STATIC_CALL, S_VIRTUAL_CALL):
            total += CALL_UNITS
        elif k == S_IF:
            total += 1 + body_bytecodes(stmt.then_body) + body_bytecodes(stmt.else_body)
        elif k == S_LOOP:
            total += 2 + body_bytecodes(stmt.body)
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown statement kind {k}")
    return total


# ---------------------------------------------------------------------------
# Methods, classes, programs
# ---------------------------------------------------------------------------


class MethodDef:
    """A method declaration.

    Attributes
    ----------
    klass:
        Declaring class name.
    name:
        Selector (simple name); virtual dispatch resolves by selector.
    num_params:
        Number of declared parameters.  For instance methods this *includes*
        the receiver in slot 0, but :attr:`declared_params` excludes it --
        the Parameterless policy (paper Section 4.3) keys on declared
        parameters only, treating ``this`` as the acknowledged exception.
    is_static:
        True for class (static) methods; the Class-Methods policy keys on
        this flag.
    body:
        Statement tuple.
    bytecodes:
        Static size estimate in bytecode units; drives the size classifier.
    """

    __slots__ = ("klass", "name", "num_params", "is_static", "body",
                 "bytecodes", "num_locals", "id")

    def __init__(self, klass: str, name: str, num_params: int,
                 is_static: bool, body: Sequence[Stmt],
                 num_locals: int = 8,
                 bytecodes: Optional[int] = None):
        self.klass = klass
        self.name = name
        self.num_params = num_params
        self.is_static = is_static
        self.body = tuple(body)
        self.num_locals = num_locals
        self.bytecodes = (body_bytecodes(self.body)
                          if bytecodes is None else bytecodes)
        self.id = f"{klass}.{name}"

    @property
    def declared_params(self) -> int:
        """Parameters excluding the implicit receiver."""
        if self.is_static:
            return self.num_params
        return max(0, self.num_params - 1)

    @property
    def is_parameterless(self) -> bool:
        """True when no state flows in via declared parameters.

        This is the early-termination predicate of the Parameterless policy:
        ``this`` and globals are acknowledged exceptions (Section 4.3).
        """
        return self.declared_params == 0

    def __repr__(self) -> str:
        tag = "static " if self.is_static else ""
        return f"<{tag}{self.id}/{self.num_params} ({self.bytecodes} bc)>"


class ClassDef:
    """A class declaration: name, optional superclass, and methods."""

    __slots__ = ("name", "superclass", "methods")

    def __init__(self, name: str, superclass: Optional[str] = None):
        self.name = name
        self.superclass = superclass
        self.methods: Dict[str, MethodDef] = {}

    def declare(self, method: MethodDef) -> MethodDef:
        if method.klass != self.name:
            raise ProgramError(
                f"method {method.id} declared on wrong class {self.name}")
        if method.name in self.methods:
            raise ProgramError(f"duplicate method {method.id}")
        self.methods[method.name] = method
        return method

    def __repr__(self) -> str:
        sup = f" extends {self.superclass}" if self.superclass else ""
        return f"<class {self.name}{sup}: {len(self.methods)} methods>"


class Program:
    """A closed program: classes, methods, an entry point, and call sites.

    Call-site identifiers are allocated by :class:`repro.workloads.builder.
    ProgramBuilder` and must be unique program-wide.  The model itself
    rejects only duplicate declarations; :func:`repro.analysis.verifier.
    verify_program` checks well-formedness, and the adaptive runtime runs
    it on every program it executes.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self.classes: Dict[str, ClassDef] = {}
        self.entry: Optional[str] = None

    # -- construction ------------------------------------------------------

    def add_class(self, cls: ClassDef) -> ClassDef:
        if cls.name in self.classes:
            raise ProgramError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls
        return cls

    def set_entry(self, method_id: str) -> None:
        self.entry = method_id

    # -- queries -----------------------------------------------------------

    def method(self, method_id: str) -> MethodDef:
        """Look up a method by its ``"Class.name"`` id."""
        klass, _, name = method_id.partition(".")
        try:
            return self.classes[klass].methods[name]
        except KeyError:
            raise ProgramError(f"no such method {method_id!r}") from None

    def methods(self) -> List[MethodDef]:
        """All methods, in deterministic (class, name) order."""
        out: List[MethodDef] = []
        for cname in sorted(self.classes):
            cls = self.classes[cname]
            for mname in sorted(cls.methods):
                out.append(cls.methods[mname])
        return out

    def entry_method(self) -> MethodDef:
        if self.entry is None:
            raise ProgramError("program has no entry point")
        return self.method(self.entry)

    def total_bytecodes(self) -> int:
        return sum(m.bytecodes for m in self.methods())

    def __repr__(self) -> str:
        n_methods = sum(len(c.methods) for c in self.classes.values())
        return (f"<Program {self.name!r}: {len(self.classes)} classes, "
                f"{n_methods} methods>")
