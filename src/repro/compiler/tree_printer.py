"""Pretty-printer for inline trees.

Renders a :class:`~repro.compiler.compiled_method.CompiledMethod`'s inline
tree as an indented ASCII tree annotated with sizes, guard kinds, and the
call sites each expansion hangs from -- the compiled-code view the paper's
discussion reasons about (which targets were inlined where, behind which
guards).  Used by the ``inspect`` CLI command and handy in tests and
debugging sessions.
"""

from __future__ import annotations

from typing import List

from repro.compiler.compiled_method import CompiledMethod, GUARDED, InlineNode


def render_inline_tree(compiled: CompiledMethod) -> str:
    """Render one compiled method's inline tree."""
    lines: List[str] = [
        f"{compiled.method.id} v{compiled.version} "
        f"[{compiled.inlined_bytecodes} bc inlined, "
        f"{compiled.code_bytes} bytes]"
    ]
    _render_node(compiled.root, "", lines)
    return "\n".join(lines)


def _render_node(node: InlineNode, indent: str, lines: List[str]) -> None:
    for site in sorted(node.decisions):
        decision = node.decisions[site]
        marker = "guarded" if decision.kind == GUARDED else "direct"
        for position, option in enumerate(decision.options):
            guard = ""
            if decision.kind == GUARDED:
                guard = f" guard#{position + 1}({option.guard_class})"
            lines.append(
                f"{indent}  @site {site} {marker}{guard} -> "
                f"{option.target.id} [{option.target.bytecodes} bc]")
            _render_node(option.node, indent + "    ", lines)
        if decision.kind == GUARDED:
            lines.append(f"{indent}  @site {site} fallback -> "
                         f"virtual dispatch")


def render_code_cache(code_cache, top: int = 10) -> str:
    """Render the inline trees of the largest installed optimized methods."""
    compiled_methods = sorted(code_cache.opt_methods(),
                              key=lambda cm: -cm.inlined_bytecodes)[:top]
    if not compiled_methods:
        return "(no optimized methods installed)"
    sections = [render_inline_tree(cm) for cm in compiled_methods]
    return "\n\n".join(sections)
