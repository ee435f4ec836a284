"""ASCII scheduling-trace rendering.

Turns a :class:`~repro.metrics.timeline.Timeline` of ``sched_in`` /
``sched_out`` / ``vmenter`` / ``vmexit`` events into a per-CPU gantt chart
readable in a terminal — the textual equivalent of Figure 4's timing
diagram.  Each CPU is one row; each column is a time bucket filled with
the initial of the thread that occupied it ('v' for donated vCPU slices,
'.' for idle).
"""

from repro.obs.kinds import SLICES


def render_gantt(timeline, start_ns, end_ns, cpu_ids=None, width=100,
                 label_width=8):
    """Render the ``[start_ns, end_ns)`` window as an ASCII gantt chart."""
    if end_ns <= start_ns:
        raise ValueError("end_ns must exceed start_ns")
    spans = occupancy_spans(timeline, start_ns, end_ns)
    if cpu_ids is None:
        cpu_ids = sorted(spans, key=str)
    bucket_ns = (end_ns - start_ns) / width

    lines = []
    header = " " * label_width + f"|{start_ns / 1e6:.3f} ms".ljust(width - 1)
    header += f"{end_ns / 1e6:.3f} ms|"
    lines.append(header)
    for cpu_id in cpu_ids:
        row = ["."] * width
        for span_start, span_end, label in spans.get(cpu_id, []):
            first = int(max(span_start - start_ns, 0) // bucket_ns)
            last = int(min(span_end - start_ns, end_ns - start_ns - 1)
                       // bucket_ns)
            for bucket in range(first, min(last + 1, width)):
                row[bucket] = label
        lines.append(f"cpu {str(cpu_id):<4}".ljust(label_width) + "".join(row))
    lines.append(" " * label_width + f"('.'=idle, 'v'=vCPU slice, "
                 f"letter=thread initial)")
    dropped = getattr(timeline, "dropped", 0)
    if dropped:
        lines.append(" " * label_width
                     + f"(!) {dropped} events dropped by the capture buffer; "
                     "spans may be incomplete")
    return "\n".join(lines)


_OPEN_KINDS = tuple(SLICES)
_CLOSE_KINDS = tuple(SLICES.values())


def occupancy_spans(timeline, start_ns=None, end_ns=None):
    """Extract per-CPU (start, end, glyph) occupancy spans from a timeline.

    Spans still open when the window ends are closed at the horizon:
    ``end_ns`` when given, otherwise the timestamp of the last event seen —
    so an open occupancy is always reported rather than silently vanishing.
    Opens that straddle ``start_ns`` are clamped to the window start.
    """
    spans = {}
    open_spans = {}
    last_ts = None
    for event in timeline:
        ts = event.ts_ns
        if end_ns is not None and ts > end_ns:
            break
        last_ts = ts
        if event.kind in _OPEN_KINDS:
            if start_ns is not None:
                ts = max(ts, start_ns)
            open_spans[event.cpu_id] = (ts, _glyph(event))
        elif event.kind in _CLOSE_KINDS:
            opened = open_spans.pop(event.cpu_id, None)
            # A close before the window ends a span the window never shows.
            if opened is not None and (start_ns is None or ts >= start_ns):
                opened_ts, glyph = opened
                spans.setdefault(event.cpu_id, []).append(
                    (opened_ts, ts, glyph))
    horizon = end_ns if end_ns is not None else last_ts
    if horizon is not None:
        for cpu_id, (opened_ts, glyph) in open_spans.items():
            spans.setdefault(cpu_id, []).append((opened_ts, horizon, glyph))
    return spans


def _glyph(event):
    if event.kind == "vmenter":
        return "v"
    name = str(event.detail.get("thread", "?"))
    return name[0] if name else "?"
