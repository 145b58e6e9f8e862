"""Plain-text rendering of experiment rows (tables/series like the paper's)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_value", "format_table", "format_curve", "summarize_frontier"]


def format_value(value) -> str:
    """Compact human-readable cell: floats to 4 significant places."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in cells
    )
    return f"{header}\n{rule}\n{body}"


def format_curve(
    rows: Sequence[Mapping], x: str, y: str, label: Optional[str] = None
) -> str:
    """One-line-per-point rendering of an (x, y) series."""
    prefix = f"{label}: " if label else ""
    points = ", ".join(
        f"({format_value(row[x])}, {format_value(row[y])})" for row in rows
    )
    return f"{prefix}{points}"


def summarize_frontier(rows: Sequence[Mapping], algorithm_key: str = "algorithm") -> str:
    """Per-algorithm best-REC / best-SPL summary of Fig.-4-style rows."""
    by_algorithm: Dict[str, List[Mapping]] = {}
    for row in rows:
        by_algorithm.setdefault(str(row[algorithm_key]), []).append(row)
    lines = []
    for name in sorted(by_algorithm):
        bucket = by_algorithm[name]
        best_rec = max(row["REC"] for row in bucket)
        best_spl = min(row["SPL"] for row in bucket)
        lines.append(
            f"{name}: max REC={format_value(best_rec)}, "
            f"min SPL={format_value(best_spl)} over {len(bucket)} point(s)"
        )
    return "\n".join(lines)
