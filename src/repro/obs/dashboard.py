"""Terminal dashboard renderer for the ``watch`` CLI subcommand.

Pure functions from telemetry state (a :class:`TimeSeriesStore`, an
:class:`SLOBoard`, a :class:`FlightRecorder`) to a text frame — the CLI
owns the clear-screen/redraw loop, so every section here is unit-testable
on synthetic stores without a TTY.  Colour is plain SGR escapes gated on
a flag (``--plain`` turns them off for logs and tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .export import _fmt, render_table
from .flight import FlightRecorder
from .slo import SLOBoard
from .timeseries import TimeSeriesStore

__all__ = ["sparkline", "render_dashboard"]

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
_SGR = {"green": "32", "yellow": "33", "red": "31", "bold": "1", "dim": "2"}
_STATE_COLOR = {"ok": "green", "warning": "yellow", "page": "red"}

#: Series surfaced in the gauge/rate panes, in display order.  Missing
#: ones are skipped, so the dashboard degrades gracefully on runs that
#: exercise only part of the pipeline.
GAUGE_SERIES = (
    "fleet.backlog.frames",
    "fleet.backlog.segments",
    "fleet.budget.utilization",
    "fleet.lanes_quarantined",
    "fleet.recall_cum",
    "fleet.frames_lost_ratio",
    "fleet.tick_cost",
    "ci.resilient.budget_remaining",
    "ci.breaker.state_code",
)
RATE_SERIES = (
    "stage.frames_relayed",
    "marshal.segments_deferred",
    "fleet.sched.flushed",
    "fleet.sched.postponed",
    "ci.resilient.retries",
)


def _paint(text: str, color: Optional[str], enabled: bool) -> str:
    if not enabled or color is None:
        return text
    return f"\x1b[{_SGR[color]}m{text}\x1b[0m"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Unicode block-glyph trend of the last ``width`` values (NaN-safe)."""
    tail = list(values)[-width:]
    finite = [v for v in tail if not math.isnan(v) and not math.isinf(v)]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for value in tail:
        if math.isnan(value) or math.isinf(value):
            chars.append(" ")
            continue
        if span <= 0:
            chars.append(_SPARK_GLYPHS[0])
            continue
        idx = int((value - lo) / span * (len(_SPARK_GLYPHS) - 1))
        chars.append(_SPARK_GLYPHS[idx])
    return "".join(chars)


def _series_rows(store: TimeSeriesStore, names: Sequence[str],
                 window: int) -> List[Dict]:
    rows = []
    for name in names:
        values = store.values(name, window=window)
        finite = values[~(values != values)]
        if not len(finite):
            continue
        stats = store.window_stats(name, window=window)
        rows.append({
            "series": name,
            "last": stats["last"],
            "mean": stats["mean"],
            "max": stats["max"],
            "trend": sparkline(values),
        })
    return rows


def render_dashboard(
    store: TimeSeriesStore,
    board: Optional[SLOBoard] = None,
    flight: Optional[FlightRecorder] = None,
    tick: Optional[int] = None,
    title: str = "repro watch",
    window: int = 24,
    color: bool = True,
) -> str:
    """One full ``top``-style frame of the live fleet telemetry."""
    sections: List[str] = []

    badge = ""
    if board is not None and board.trackers:
        worst = board.worst_state
        badge = "  [" + _paint(f"SLO: {worst}",
                               _STATE_COLOR[worst], color) + "]"
    tick_part = f" — tick {tick}" if tick is not None else ""
    header = _paint(f"{title}{tick_part}", "bold", color) + badge
    sections.append(header)

    gauge_rows = _series_rows(store, GAUGE_SERIES, window)
    if gauge_rows:
        sections.append(_paint("== backpressure & health ==", "dim", color))
        sections.append(render_table(gauge_rows))

    rate_rows = _series_rows(store, RATE_SERIES, window)
    if rate_rows:
        sections.append(_paint("== rates (per tick) ==", "dim", color))
        sections.append(render_table(rate_rows))

    if board is not None and board.trackers:
        sections.append(_paint("== SLOs ==", "dim", color))
        slo_rows = []
        for summary in board.summaries():
            state = summary["state"]
            slo_rows.append({
                "slo": summary["slo"],
                "state": _paint(state, _STATE_COLOR[state], color),
                "value": _fmt(summary["value"]),
                "target": f"{summary['objective']} {_fmt(summary['target'])}",
                "burn_s": _fmt(summary["burn_short"]),
                "burn_l": _fmt(summary["burn_long"]),
            })
        sections.append(render_table(slo_rows))
        events = board.timeline()[-5:]
        if events:
            sections.append(_paint("== recent alerts ==", "dim", color))
            sections.append(render_table(events))

    if flight is not None and flight.dumps_total:
        dumps = flight.dumps
        line = (f"flight dumps: {flight.dumps_total} "
                f"(last: {dumps[-1]['reason']} @ tick {dumps[-1]['tick']}"
                + (f", lane {dumps[-1]['lane']}" if dumps[-1]["lane"] else "")
                + ")")
        sections.append(_paint(line, "red", color))

    return "\n".join(sections) + "\n"
