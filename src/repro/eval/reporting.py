"""Plain-text rendering of experiment tables and figure series.

The experiment drivers print the same rows/series the paper reports; these
helpers keep that output consistent (column alignment, float formatting)
across every experiment module.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_float(value: float, digits: int = 4) -> str:
    """Render a float compactly (integers lose the trailing zeros)."""
    if value != value:  # NaN
        return "nan"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.{digits}f}"


def _render_cell(value: object, digits: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format_float(value, digits)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    digits: int = 4,
) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    rendered_rows = [
        [_render_cell(row.get(column, ""), digits) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(r[i]) for r in rendered_rows))
        for i, column in enumerate(columns)
    ]

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(rendered, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[Number]],
    x_values: Sequence[Number],
    x_label: str = "N",
    title: Optional[str] = None,
    digits: int = 4,
) -> str:
    """Render figure-style data: one labelled series per line over ``x_values``.

    Example output (Figure 4 style)::

        N        1      5      10
        cubelsi  0.81   0.78   0.74
        bow      0.62   0.60   0.57
    """
    columns = [x_label] + [format_float(float(x), 2) for x in x_values]
    rows = []
    for name, values in series.items():
        row: Dict[str, object] = {x_label: name}
        for x, value in zip(x_values, values):
            row[format_float(float(x), 2)] = value
        rows.append(row)
    return format_table(rows, columns=columns, title=title, digits=digits)


def format_kv(pairs: Mapping[str, object], title: Optional[str] = None) -> str:
    """Render key/value pairs one per line (used for summary blocks)."""
    width = max((len(str(k)) for k in pairs), default=0)
    lines = [title] if title else []
    for key, value in pairs.items():
        rendered = _render_cell(value, 4)
        lines.append(f"{str(key).ljust(width)} : {rendered}")
    return "\n".join(lines)


def format_bytes(num_bytes: float) -> str:
    """Human readable byte sizes (the units Table VII uses)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if value < 1024.0 or unit == "PB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} PB"
