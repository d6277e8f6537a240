"""ASCII rendering of the paper's tables and figures.

The bench harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent (fixed column widths, one row per
benchmark, one column per max-depth, harMean row at the bottom -- the
textual equivalent of the paper's bar charts).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Render a simple fixed-width table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    return f"{value:+.1f}%"


def format_percent_matrix(title: str,
                          row_names: Sequence[str],
                          col_names: Sequence[int],
                          values: Mapping[str, Mapping[int, float]]) -> str:
    """A benchmark x depth matrix of percentages (one Figure 4/5 panel)."""
    headers = ["benchmark"] + [f"max={c}" for c in col_names]
    rows = []
    for name in row_names:
        row = [name]
        for col in col_names:
            try:
                row.append(format_percent(values[name][col]))
            except KeyError:
                row.append("--")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_fraction_bars(title: str,
                         labels: Sequence[str],
                         series: Mapping[str, Mapping[str, float]],
                         components: Sequence[str]) -> str:
    """Figure-6-style stacked percentages: one row per configuration."""
    headers = ["config"] + list(components) + ["total"]
    rows = []
    for label in labels:
        fractions = series[label]
        row = [label]
        total = 0.0
        for component in components:
            value = 100.0 * fractions.get(component, 0.0)
            total += value
            row.append(f"{value:.3f}%")
        row.append(f"{total:.3f}%")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_bar_chart(title: str,
                     values: Mapping[str, float],
                     width: int = 40,
                     unit: str = "%") -> str:
    """Render labeled values as a signed horizontal ASCII bar chart.

    A textual analogue of the paper's bar figures: negative bars extend
    left of the axis, positive bars right, scaled to the largest absolute
    value.  Used by the CLI's figure output for quick visual comparison.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        return title
    label_width = max(len(label) for label in values)
    peak = max(abs(v) for v in values.values()) or 1.0
    half = width // 2
    for label, value in values.items():
        magnitude = int(round(abs(value) / peak * half))
        if value < 0:
            bar = " " * (half - magnitude) + "#" * magnitude + "|"
            bar += " " * half
        else:
            bar = " " * half + "|" + "#" * magnitude
            bar += " " * (half - magnitude)
        lines.append(f"{label.ljust(label_width)} {bar} "
                     f"{value:+.1f}{unit}")
    return "\n".join(lines)
