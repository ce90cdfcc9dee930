"""Grouped-bar comparison charts as self-contained SVG.

No plotting library is involved: the document is assembled from strings, so
identical rows always produce byte-identical output. ``_escape`` replaces
``&``, ``<``, ``>`` and ``"`` in every label, which is all that text and
double-quoted attributes need. ``xml.sax.saxutils.escape`` is not used: it
leaves ``"`` alone, and importing it loads urllib, http, email and ssl, some
25 ms of start-up.
"""

from .listcore import ListLabError
from .report import ComparisonRow, algo_labels

PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2")
TITLE = "Total access cost by input"
WIDTH, HEIGHT = 900, 420


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


class EmptyReport(ListLabError):
    """A chart needs at least one comparison row."""


def _tick_step(maximum: int) -> int:
    # smallest of 1/2/5 * 10^k giving at most ~6 ticks
    step = 1
    while maximum / step > 6:
        if maximum / (2 * step) <= 6:
            step *= 2
        elif maximum / (5 * step) <= 6:
            step *= 5
        else:
            step *= 10
    return step


def render_bar_chart(rows: list[ComparisonRow]) -> str:
    """One bar group per row, one bar slot per algorithm, labeled axes."""
    if not rows:
        raise EmptyReport("no rows to chart")
    algos = algo_labels(rows)
    top, bottom, left, right = 50, 64, 72, 24
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    max_cost = max((max(r.costs.values(), default=0) for r in rows), default=0)
    step = _tick_step(max(max_cost, 1))
    y_max = step * -(-max(max_cost, 1) // step)  # round up to a tick boundary

    def y_of(value: float) -> float:
        return top + plot_h * (1.0 - value / y_max)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{_escape(TITLE)}</text>',
    ]

    # y grid, ticks and axis label
    tick = 0
    while tick <= y_max:
        y = y_of(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{WIDTH - right}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{tick}</text>'
        )
        tick += step
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">total access cost</text>'
    )

    # bars
    group_w = plot_w / len(rows)
    bar_w = group_w * 0.8 / max(len(algos), 1)
    for g, row in enumerate(rows):
        group_x = left + g * group_w
        for a, algo in enumerate(algos):
            if algo not in row.costs:
                continue
            x = group_x + group_w * 0.1 + a * bar_w
            y = y_of(row.costs[algo])
            parts.append(
                f'<rect class="bar" data-file="{_escape(row.file)}" data-algo="{_escape(algo)}" '
                f'x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{top + plot_h - y:.2f}" '
                f'fill="{PALETTE[a % len(PALETTE)]}"/>'
            )
        label = row.file if len(row.file) <= 14 else row.file[:13] + "…"
        parts.append(
            f'<text x="{group_x + group_w / 2:.2f}" y="{top + plot_h + 18}" '
            f'text-anchor="middle" font-size="11">{_escape(label)}</text>'
        )

    # x axis line and legend
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{WIDTH - right}" y2="{top + plot_h}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    legend_x = left
    legend_y = HEIGHT - 22
    for a, algo in enumerate(algos):
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y - 10}" width="12" height="12" '
            f'fill="{PALETTE[a % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="{legend_y}" font-size="12">{_escape(algo)}</text>'
        )
        legend_x += 16 + 8 * len(algo) + 24

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
