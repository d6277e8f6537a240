"""The mini-JVM program verifier: well-formedness before execution.

:meth:`repro.jvm.program.Program.validate` checks referential integrity
(targets exist, site ids are unique) and raises on the *first* problem it
meets.  The verifier goes further and collects *every* problem: it checks
the class hierarchy is acyclic, every call site's argument arity matches
every implementation it could dispatch to, ``Arg``/``Local`` slot indices
are in range for the enclosing method, loop bounds and ``Work`` costs are
sane, and statement/expression ``kind`` tags belong to the interpreter's
closed dispatch vocabulary.

Each finding is a structured :class:`VerifierError` carrying the error
code, the offending method, the call-site id when one is involved, and a
``body[i].then[j]``-style path to the exact statement -- the same
fail-fast discipline benchmark-build pipelines apply before burning sweep
hours on a malformed input.  :func:`verify_program` never raises on a
broken program; it returns a :class:`VerificationReport` whose
:meth:`~VerificationReport.raise_if_failed` converts findings into a
:class:`VerificationFailure` for callers that want an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jvm.errors import ProgramError
from repro.jvm.program import (
    E_ADD, E_ARG, E_CONST, E_LOCAL, E_LT, E_MOD, E_MUL, E_PICK, E_SUB,
    S_IF, S_INTERFACE_CALL, S_LET, S_LOOP, S_NEW, S_NEWPOOL, S_RETURN,
    S_STATIC_CALL, S_VIRTUAL_CALL, S_WORK,
    Expr, MethodDef, Program, Stmt,
)

#: Statement kinds the interpreter's lowering understands.
KNOWN_STMT_KINDS = frozenset((
    S_WORK, S_LET, S_NEW, S_NEWPOOL, S_STATIC_CALL, S_VIRTUAL_CALL,
    S_IF, S_LOOP, S_RETURN, S_INTERFACE_CALL))

#: Expression kinds the evaluator understands.
KNOWN_EXPR_KINDS = frozenset((
    E_CONST, E_ARG, E_LOCAL, E_ADD, E_SUB, E_MUL, E_MOD, E_PICK, E_LT))

# -- error codes (closed vocabulary, mirrored in DESIGN.md) -------------------

UNKNOWN_SUPERCLASS = "unknown-superclass"
SUPERCLASS_CYCLE = "superclass-cycle"
UNKNOWN_INTERFACE = "unknown-interface"
ENTRY_MISSING = "entry-missing"
ENTRY_PARAMS = "entry-params"
UNKNOWN_STATIC_TARGET = "unknown-static-target"
STATIC_ARITY = "static-arity"
UNRESOLVED_SELECTOR = "unresolved-selector"
VIRTUAL_ARITY = "virtual-arity"
UNKNOWN_CLASS = "unknown-class"
EMPTY_POOL = "empty-pool"
DUPLICATE_SITE = "duplicate-site"
ARG_RANGE = "arg-range"
LOCAL_RANGE = "local-range"
LOOP_BOUND = "loop-bound"
WORK_COST = "work-cost"
MOD_ZERO = "mod-zero"
BAD_STMT_KIND = "bad-stmt-kind"
BAD_EXPR_KIND = "bad-expr-kind"

#: Every code :func:`verify_program` can emit.
VERIFIER_CODES = frozenset((
    UNKNOWN_SUPERCLASS, SUPERCLASS_CYCLE, UNKNOWN_INTERFACE, ENTRY_MISSING,
    ENTRY_PARAMS, UNKNOWN_STATIC_TARGET, STATIC_ARITY, UNRESOLVED_SELECTOR,
    VIRTUAL_ARITY, UNKNOWN_CLASS, EMPTY_POOL, DUPLICATE_SITE, ARG_RANGE,
    LOCAL_RANGE, LOOP_BOUND, WORK_COST, MOD_ZERO, BAD_STMT_KIND,
    BAD_EXPR_KIND))


@dataclass(frozen=True)
class VerifierError:
    """One well-formedness violation, located as precisely as possible."""

    code: str                    #: a :data:`VERIFIER_CODES` member
    message: str                 #: human-readable description
    method: Optional[str] = None  #: enclosing method id, when applicable
    site: Optional[int] = None   #: call-site id, when one is involved
    path: str = ""               #: ``body[2].then[0]``-style statement path

    def describe(self) -> str:
        """Render as ``code @ method[path] (site N): message``."""
        where = self.method or "<program>"
        if self.path:
            where = f"{where}.{self.path}"
        site = f" (site {self.site})" if self.site is not None else ""
        return f"{self.code} @ {where}{site}: {self.message}"


@dataclass(frozen=True)
class VerificationReport:
    """Everything :func:`verify_program` found, plus coverage counters."""

    program_name: str
    errors: Tuple[VerifierError, ...]
    methods_checked: int
    sites_checked: int

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_code(self) -> Dict[str, int]:
        """Error count per code, for report aggregation."""
        counts: Dict[str, int] = {}
        for error in self.errors:
            counts[error.code] = counts.get(error.code, 0) + 1
        return counts

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationFailure` when any error was found."""
        if self.errors:
            raise VerificationFailure(self)

    def render(self) -> str:
        """Human-readable multi-line summary."""
        head = (f"verify {self.program_name}: "
                f"{self.methods_checked} methods, "
                f"{self.sites_checked} call sites: ")
        if self.ok:
            return head + "OK"
        lines = [head + f"{len(self.errors)} error(s)"]
        lines.extend(f"  {error.describe()}" for error in self.errors)
        return "\n".join(lines)


class VerificationFailure(ProgramError):
    """A program failed verification; carries the full report."""

    def __init__(self, report: VerificationReport):
        super().__init__(report.render())
        self.report = report


def verify_program(program: Program) -> VerificationReport:
    """Check ``program`` for well-formedness; never raises on bad input."""
    return _Verifier(program).run()


class _Verifier:
    """Single-use walker accumulating :class:`VerifierError` records."""

    def __init__(self, program: Program):
        self._program = program
        self._errors: List[VerifierError] = []
        self._sites: Dict[int, Tuple[str, str]] = {}  # site -> (method, path)
        self._sites_checked = 0
        # selector -> implementations, computed without assuming validity.
        self._impls: Dict[str, List[MethodDef]] = {}
        for cls in program.classes.values():
            for method in cls.methods.values():
                self._impls.setdefault(method.name, []).append(method)

    # -- driver ---------------------------------------------------------------

    def run(self) -> VerificationReport:
        self._check_hierarchy()
        self._check_entry()
        methods = 0
        for cls in sorted(self._program.classes.values(),
                          key=lambda c: c.name):
            for name in sorted(cls.methods):
                method = cls.methods[name]
                methods += 1
                self._check_body(method, method.body, "body")
        return VerificationReport(
            program_name=self._program.name,
            errors=tuple(self._errors),
            methods_checked=methods,
            sites_checked=self._sites_checked)

    def _error(self, code: str, message: str,
               method: Optional[MethodDef] = None,
               site: Optional[int] = None, path: str = "") -> None:
        self._errors.append(VerifierError(
            code=code, message=message,
            method=None if method is None else method.id,
            site=site, path=path))

    # -- class-level checks ----------------------------------------------------

    def _check_hierarchy(self) -> None:
        classes = self._program.classes
        for cls in sorted(classes.values(), key=lambda c: c.name):
            for iface in cls.interfaces:
                if iface not in classes:
                    self._error(UNKNOWN_INTERFACE,
                                f"class {cls.name} implements unknown "
                                f"interface {iface!r}")
            seen = {cls.name}
            sup = cls.superclass
            while sup is not None:
                if sup not in classes:
                    self._error(UNKNOWN_SUPERCLASS,
                                f"class {cls.name} extends unknown {sup!r}")
                    break
                if sup in seen:
                    self._error(SUPERCLASS_CYCLE,
                                f"inheritance cycle through {sup} "
                                f"(reached from {cls.name})")
                    break
                seen.add(sup)
                sup = classes[sup].superclass

    def _check_entry(self) -> None:
        entry_id = self._program.entry
        if entry_id is None:
            self._error(ENTRY_MISSING, "program has no entry point")
            return
        try:
            entry = self._program.method(entry_id)
        except ProgramError:
            self._error(ENTRY_MISSING, f"entry {entry_id!r} does not exist")
            return
        if entry.num_params != 0:
            # The runtime invokes the entry with no arguments; a nonzero
            # arity would read past the argument tuple at the first Arg.
            self._error(ENTRY_PARAMS,
                        f"entry {entry.id} declares {entry.num_params} "
                        f"parameter(s); the runtime passes none",
                        method=entry)

    # -- statement walk --------------------------------------------------------

    def _check_body(self, m: MethodDef, body: Sequence[Stmt],
                    prefix: str) -> None:
        for i, stmt in enumerate(body):
            path = f"{prefix}[{i}]"
            k = stmt.kind
            if k not in KNOWN_STMT_KINDS:
                self._error(BAD_STMT_KIND,
                            f"unknown statement kind {k!r} "
                            f"({type(stmt).__name__})", m, path=path)
                continue
            if k == S_WORK:
                if not isinstance(stmt.cost, int) or stmt.cost < 0:
                    self._error(WORK_COST,
                                f"work cost must be a non-negative int, "
                                f"got {stmt.cost!r}", m, path=path)
            elif k == S_LET:
                self._check_local(m, stmt.dst, path)
                self._check_expr(m, stmt.expr, path)
            elif k == S_NEW:
                self._check_local(m, stmt.dst, path)
                if stmt.class_name not in self._program.classes:
                    self._error(UNKNOWN_CLASS,
                                f"New of unknown class {stmt.class_name!r}",
                                m, path=path)
            elif k == S_NEWPOOL:
                self._check_local(m, stmt.dst, path)
                if not stmt.class_names:
                    self._error(EMPTY_POOL,
                                "NewPool with no classes can only feed a "
                                "failing Pick", m, path=path)
                for cn in stmt.class_names:
                    if cn not in self._program.classes:
                        self._error(UNKNOWN_CLASS,
                                    f"NewPool of unknown class {cn!r}",
                                    m, path=path)
            elif k == S_STATIC_CALL:
                self._check_static_call(m, stmt, path)
            elif k in (S_VIRTUAL_CALL, S_INTERFACE_CALL):
                self._check_virtual_call(m, stmt, path)
            elif k == S_IF:
                self._check_expr(m, stmt.cond, path)
                self._check_body(m, stmt.then_body, f"{path}.then")
                self._check_body(m, stmt.else_body, f"{path}.else")
            elif k == S_LOOP:
                self._check_expr(m, stmt.count, path)
                self._check_local(m, stmt.index_local, path)
                if stmt.count.kind == E_CONST and (
                        not isinstance(stmt.count.value, int)
                        or stmt.count.value < 0):
                    self._error(LOOP_BOUND,
                                f"constant loop bound must be a "
                                f"non-negative int, got {stmt.count.value!r}",
                                m, path=path)
                self._check_body(m, stmt.body, f"{path}.loop")
            elif k == S_RETURN:
                if stmt.expr is not None:
                    self._check_expr(m, stmt.expr, path)

    # -- call-site checks ------------------------------------------------------

    def _record_site(self, m: MethodDef, site: int, path: str) -> None:
        self._sites_checked += 1
        existing = self._sites.get(site)
        if existing is not None:
            self._error(DUPLICATE_SITE,
                        f"call-site id {site} already used at "
                        f"{existing[0]}.{existing[1]}", m, site=site,
                        path=path)
            return
        self._sites[site] = (m.id, path)

    def _check_static_call(self, m: MethodDef, stmt, path: str) -> None:
        self._record_site(m, stmt.site, path)
        for arg in stmt.args:
            self._check_expr(m, arg, path)
        if stmt.dst is not None:
            self._check_local(m, stmt.dst, path)
        try:
            target = self._program.method(stmt.target)
        except ProgramError:
            self._error(UNKNOWN_STATIC_TARGET,
                        f"no such method {stmt.target!r}", m,
                        site=stmt.site, path=path)
            return
        if len(stmt.args) != target.num_params:
            self._error(STATIC_ARITY,
                        f"{target.id} takes {target.num_params} "
                        f"parameter(s), call passes {len(stmt.args)}",
                        m, site=stmt.site, path=path)

    def _check_virtual_call(self, m: MethodDef, stmt, path: str) -> None:
        self._record_site(m, stmt.site, path)
        self._check_expr(m, stmt.receiver, path)
        for arg in stmt.args:
            self._check_expr(m, arg, path)
        if stmt.dst is not None:
            self._check_local(m, stmt.dst, path)
        impls = self._impls.get(stmt.selector, [])
        if not impls:
            self._error(UNRESOLVED_SELECTOR,
                        f"selector {stmt.selector!r} has no implementation",
                        m, site=stmt.site, path=path)
            return
        # The receiver is passed as the callee's Arg(0), so every possible
        # implementation must declare 1 + len(args) parameter slots.
        expected = 1 + len(stmt.args)
        for impl in impls:
            if impl.num_params != expected:
                self._error(VIRTUAL_ARITY,
                            f"{impl.id} takes {impl.num_params} "
                            f"parameter slot(s), dispatch passes {expected} "
                            f"(receiver + {len(stmt.args)})",
                            m, site=stmt.site, path=path)

    # -- expression / slot checks ----------------------------------------------

    def _check_local(self, m: MethodDef, index, path: str) -> None:
        if not isinstance(index, int) or not 0 <= index < m.num_locals:
            self._error(LOCAL_RANGE,
                        f"local slot {index!r} out of range "
                        f"[0, {m.num_locals})", m, path=path)

    def _check_expr(self, m: MethodDef, expr: Expr, path: str) -> None:
        k = expr.kind
        if k not in KNOWN_EXPR_KINDS:
            self._error(BAD_EXPR_KIND,
                        f"unknown expression kind {k!r} "
                        f"({type(expr).__name__})", m, path=path)
            return
        if k == E_ARG:
            if not isinstance(expr.index, int) \
                    or not 0 <= expr.index < m.num_params:
                self._error(ARG_RANGE,
                            f"Arg({expr.index!r}) out of range "
                            f"[0, {m.num_params})", m, path=path)
        elif k == E_LOCAL:
            if not isinstance(expr.index, int) \
                    or not 0 <= expr.index < m.num_locals:
                self._error(LOCAL_RANGE,
                            f"Local({expr.index!r}) out of range "
                            f"[0, {m.num_locals})", m, path=path)
        elif k in (E_ADD, E_SUB, E_MUL, E_LT):
            self._check_expr(m, expr.left, path)
            self._check_expr(m, expr.right, path)
        elif k == E_MOD:
            self._check_expr(m, expr.left, path)
            self._check_expr(m, expr.right, path)
            if expr.right.kind == E_CONST and expr.right.value == 0:
                self._error(MOD_ZERO, "modulo by constant zero", m,
                            path=path)
        elif k == E_PICK:
            self._check_expr(m, expr.pool, path)
            self._check_expr(m, expr.index, path)
