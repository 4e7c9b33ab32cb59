"""Plain-text table/figure rendering for the experiment harness."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..passes import PassRunRecord


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    for row in materialized:
        parts.append(line(row))
    return "\n".join(parts)


def format_pass_history(history: Sequence["PassRunRecord"],
                        title: str = "Pass pipeline") -> str:
    """Render per-pass timing and analysis-cache behaviour as a table.

    One row per pass execution, plus a totals row; this is how the
    compile-side effect of the analysis-manager caching shows up in the
    harness output.
    """
    rows: List[List[object]] = []
    total_seconds = 0.0
    total_hits = 0
    total_misses = 0
    for record in history:
        total_seconds += record.duration_seconds
        total_hits += record.analysis_cache_hits
        total_misses += record.analysis_cache_misses
        rows.append([
            record.pass_name,
            "skipped" if record.skipped else
            "yes" if record.changed else "no",
            f"{record.duration_seconds * 1000:.2f}",
            record.analysis_cache_hits,
            record.analysis_cache_misses,
        ])
    rows.append(["TOTAL", "", f"{total_seconds * 1000:.2f}",
                 total_hits, total_misses])
    headers = ["pass", "changed", "ms", "cache hits", "cache misses"]
    return format_table(headers, rows, title=title)


def format_bar_chart(labels: Sequence[str], values: Sequence[float],
                     width: int = 50, title: str = "",
                     unit: str = "s") -> str:
    """Render a horizontal ASCII bar chart (used for Figure 4)."""
    peak = max(values) if values else 1.0
    peak = peak or 1.0
    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    label_width = max((len(label) for label in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(width * value / peak)))
        parts.append(f"{label.ljust(label_width)}  {value:8.2f}{unit}  {bar}")
    return "\n".join(parts)
