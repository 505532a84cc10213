"""The ``metrics.csv`` format, and deterministic SVG line charts from it.

:func:`metrics_row` writes the rows of :data:`METRICS_HEADER` and
:func:`read_metrics` reads them back.  No raster dependencies: the chart is
plain SVG text, so identical input produces byte-identical output and diffs
stay readable.  Three series are drawn against the step axis: the
classification term, the weighted alignment term (both on the left loss
axis) and the validation accuracy (right axis, 0..1, drawn only at sampled
steps).
"""

from __future__ import annotations

import csv
import math

METRICS_HEADER = "step,total,cls,align,k,src_acc,val_acc,wall_ms"
_OPTIONAL = ("val_acc", "wall_ms")

_WIDTH, _HEIGHT = 960, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 70, 40, 50


class PlotError(Exception):
    pass


def metrics_row(record, train) -> str:
    """One ``metrics.csv`` line (no newline) for a training step's record;
    ``train`` supplies the ``lam`` weight of the logged alignment term.
    Floats are written with ``repr``, so they read back exactly."""
    p = record.parts
    values = (p.total, p.cls, train.lam * p.align, p.k, record.src_acc)
    return ",".join([
        str(record.step),
        *(repr(float(v)) for v in values),
        "" if record.val_acc is None else repr(float(record.val_acc)),
        "" if record.wall_ms is None else f"{record.wall_ms:.3f}",
    ])


def read_metrics(path) -> list[dict]:
    """Data rows as ``{column: number}``; an empty ``val_acc`` or ``wall_ms``
    cell reads as None.  Raises :class:`PlotError` naming the first bad line."""
    with open(path, "r", newline="") as fh:
        first = fh.readline().rstrip("\r\n")
        if first != METRICS_HEADER:
            raise PlotError(
                f"{path}: missing or reordered columns; expected header '{METRICS_HEADER}'"
            )
        fh.seek(0)
        reader = csv.DictReader(fh)
        rows = [_parse_row(f"{path}: line {reader.line_num}", raw) for raw in reader]
    if not rows:
        raise PlotError(f"{path}: no data rows")
    return rows


def _parse_row(where: str, raw: dict) -> dict:
    if None in raw or None in raw.values():
        raise PlotError(f"{where}: expected {METRICS_HEADER.count(',') + 1} cells")
    row = dict.fromkeys(_OPTIONAL)
    for key, text in raw.items():
        if text == "" and key in _OPTIONAL:
            continue
        try:
            row[key] = int(text) if key == "step" else float(text)
        except ValueError:
            raise PlotError(f"{where}: {key} '{text}' is not a number") from None
        if not math.isfinite(row[key]):
            raise PlotError(f"{where}: {key} is {text}, not a finite number")
    return row


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}" />'


def render_chart(rows: list[dict]) -> str:
    steps = [r["step"] for r in rows]
    cls = [r["cls"] for r in rows]
    align = [r["align"] for r in rows]
    val = [(r["step"], r["val_acc"]) for r in rows if r["val_acc"] is not None]

    x_lo, x_hi = min(steps), max(steps)
    x_span = max(x_hi - x_lo, 1)
    loss_values = cls + align
    y_lo, y_hi = 0.0, max(max(loss_values), 1e-12)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(step):
        return _MARGIN_L + (step - x_lo) / x_span * plot_w

    def sy_loss(v):
        return _MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    def sy_acc(v):
        return _MARGIN_T + (1.0 - v) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white" />',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">training curves</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1" />',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444" />'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{tick:.0f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy_loss(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#444" />'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(0.0, 1.0):
        y = sy_acc(tick)
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w + 5}" '
            f'y2="{y:.2f}" stroke="#444" />'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w + 9}" y="{y + 4:.2f}" text-anchor="start" '
            f'font-size="11">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        'font-size="12">step</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">loss</text>'
    )
    parts.append(
        f'<text x="{_WIDTH - 14}" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(90 {_WIDTH - 14} '
        f'{_MARGIN_T + plot_h / 2:.0f})">validation accuracy</text>'
    )

    parts.append(_polyline([(sx(s), sy_loss(v)) for s, v in zip(steps, cls)], "#d62728"))
    parts.append(_polyline([(sx(s), sy_loss(v)) for s, v in zip(steps, align)], "#1f77b4"))
    parts.append(_polyline([(sx(s), sy_acc(v)) for s, v in val], "#2ca02c"))

    legend = [
        ("classification", "#d62728"),
        ("weighted alignment", "#1f77b4"),
        ("validation accuracy", "#2ca02c"),
    ]
    for i, (label, color) in enumerate(legend):
        y = _MARGIN_T + 16 + i * 18
        parts.append(
            f'<line x1="{_MARGIN_L + 12}" y1="{y}" x2="{_MARGIN_L + 40}" y2="{y}" '
            f'stroke="{color}" stroke-width="2" />'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 46}" y="{y + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def plot_metrics(csv_path, out_path):
    rows = read_metrics(csv_path)
    svg = render_chart(rows)
    with open(out_path, "w", newline="\n") as fh:
        fh.write(svg)
