"""Trace exporters: Chrome/Perfetto trace-event JSON and plain dicts.

The Chrome trace-event format (the JSON Perfetto and ``chrome://tracing``
load directly) wants microsecond timestamps; simulated cycles are mapped
through the host clock (``ts_us = cycles / frequency_hz * 1e6``), so a
span's rendered width in the Perfetto UI is its *simulated* duration on
the paper's testbed.  Spans become ``"ph": "X"`` complete events, the
tracer's instant events become ``"ph": "i"`` markers, and each layer
(operator, kernel, pcie, wal, staging, ...) gets its own named thread
row so the stack reads top-to-bottom like the architecture diagram.

:func:`validate_chrome_trace` is the minimal schema gate CI's obs-regress
job runs on the emitted file: required keys present on every event and
timestamps monotonic per thread row.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

__all__ = [
    "CHROME_REQUIRED_KEYS",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: Keys every emitted trace event must carry (the CI schema gate).
CHROME_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")

#: One process id for the whole simulated machine.
_PID = 1


def _json_safe(attrs: dict) -> dict[str, Any]:
    """Attribute dict with every value coerced to a JSON scalar."""
    safe: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe


def chrome_trace_events(tracer: "Tracer", frequency_hz: float) -> list[dict[str, Any]]:
    """Render a tracer's spans and events as Chrome trace-event dicts.

    Thread ids are assigned per category in first-appearance order (a
    pure function of the trace), each preceded by a ``thread_name``
    metadata record; events within a thread row are sorted by
    timestamp, so the monotonic-per-tid property holds by construction.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency_hz must be > 0, got {frequency_hz}")
    scale = 1e6 / frequency_hz  # cycles -> microseconds

    tids: dict[str, int] = {}

    def tid_for(category: str) -> int:
        return tids.setdefault(category, len(tids) + 1)

    spans = []
    for span in tracer.spans():
        if span.end is None:
            continue  # an open span has no duration to draw
        spans.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.begin * scale,
                "dur": span.cycles * scale,
                "pid": _PID,
                "tid": tid_for(span.category),
                "args": _json_safe(span.attrs),
            }
        )
    instants = [
        {
            "name": event.name,
            "cat": event.category,
            "ph": "i",
            "s": "t",
            "ts": event.ts * scale,
            "pid": _PID,
            "tid": tid_for(event.category),
            "args": _json_safe(event.attrs),
        }
        for event in tracer.events
    ]

    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": _PID,
            "tid": tid,
            "args": {"name": category},
        }
        for category, tid in tids.items()
    ]
    payload = sorted(spans + instants, key=lambda e: (e["tid"], e["ts"]))
    return metadata + payload


def write_chrome_trace(
    path: str, tracer: "Tracer", frequency_hz: float, **metadata
) -> list[dict[str, Any]]:
    """Write the Perfetto-loadable trace JSON to *path*; returns the events.

    The file is the object form (``{"traceEvents": [...]}``) with
    ``displayTimeUnit`` set to milliseconds and any extra *metadata*
    recorded under ``"metadata"`` (e.g. the workload name and the clock
    used for the cycle->microsecond mapping).
    """
    events = chrome_trace_events(tracer, frequency_hz)
    record = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"frequency_hz": frequency_hz, **metadata},
    }
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=2, sort_keys=True)
    return events


def validate_chrome_trace(events: list[dict[str, Any]]) -> list[str]:
    """Schema problems of a trace-event list (empty = valid).

    Checks the minimal contract CI gates on: every event carries
    ``name/ph/ts/pid/tid``, timestamps are non-negative numbers, ``X``
    events carry a non-negative ``dur``, and within each ``tid`` the
    timestamps of non-metadata events never go backwards.
    """
    problems: list[str] = []
    last_ts: dict[int, float] = {}
    for index, event in enumerate(events):
        missing = [key for key in CHROME_REQUIRED_KEYS if key not in event]
        if missing:
            problems.append(f"event {index}: missing keys {missing}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index}: bad ts {ts!r}")
            continue
        if event["ph"] == "X" and event.get("dur", -1) < 0:
            problems.append(f"event {index}: X event needs dur >= 0")
        if event["ph"] == "M":
            continue
        tid = event["tid"]
        if ts < last_ts.get(tid, 0.0):
            problems.append(
                f"event {index}: ts {ts} goes backwards on tid {tid} "
                f"(last {last_ts[tid]})"
            )
        last_ts[tid] = max(last_ts.get(tid, 0.0), ts)
    return problems
