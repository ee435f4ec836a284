"""Trace and metrics exporters.

Three formats:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  ``sched_in/out``
  and ``vmenter/vmexit`` pairs become duration slices, ``rq_depth``
  becomes a counter track, everything else becomes instant events
  whose category is the kind's layer in :mod:`repro.obs.kinds`.
* **JSONL event stream** (:func:`write_jsonl`) — one JSON object per
  event, for ad-hoc ``jq``/pandas querying.
* **Text summary** (:meth:`MetricsRegistry.to_text` plus
  :func:`format_metrics` here) — for terminal reports.

Exporters accept a single tracer/timeline or a list of ``(label,
tracer)`` streams (an observability session produces one stream per
simulation environment; each stream becomes one Chrome ``pid``).
"""

import enum
import json

from repro.obs.kinds import KINDS, SLICES

_SLICE_END = {end: begin for begin, end in SLICES.items()}

# Counter-track kinds: kind -> args key holding the sampled value.
_COUNTER_KINDS = {"rq_depth": "depth"}


def _category(kind):
    """Chrome ``cat`` of a kind: its catalog layer."""
    spec = KINDS.get(kind)
    return spec.layer if spec is not None else "misc"


def _slice_name(begin):
    if begin.kind == "vmenter":
        return f"vcpu {begin.detail.get('vcpu', '?')}"
    return str(begin.detail.get("thread", "?"))


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return str(value)


def _args(event):
    return {key: _jsonable(val) for key, val in event.detail.items()}


def _normalize_streams(trace_source):
    """Accept a tracer, a timeline, or a list of (label, tracer) pairs."""
    if hasattr(trace_source, "record"):
        return [("trace", trace_source)]
    return list(trace_source)


def chrome_trace(trace_source):
    """Build a Chrome trace-event JSON object (dict) from trace streams.

    ``span.begin``/``span.end`` pairs become async events (``b``/``e``)
    keyed by request id, with completed roots additionally emitting their
    critical-path ``parts`` as nested async windows plus a flow arrow
    (``s``/``f``) linking the request's begin CPU to its pickup CPU.
    ``otherData.streams`` carries each stream's ``trace_meta``
    bookkeeping (event/drop counts, capacity, ring mode) so truncated
    ring-buffer captures are detectable from the Chrome view too.
    """
    trace_events = []
    dropped_total = 0
    streams_meta = []
    for pid, (label, tracer) in enumerate(_normalize_streams(trace_source)):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        dropped_total += getattr(tracer, "dropped", 0)
        summary_fn = getattr(tracer, "summary", None)
        meta = summary_fn() if callable(summary_fn) else {
            "events": sum(1 for _ in tracer),
            "dropped": getattr(tracer, "dropped", 0),
        }
        streams_meta.append(dict(
            {"pid": pid, "stream": label},
            **{key: _jsonable(val) for key, val in meta.items()}))
        tids = {}
        opens = {}
        span_opens = {}
        last_ts = 0

        def tid_for(cpu_id):
            tid = tids.get(cpu_id)
            if tid is None:
                tid = len(tids)
                tids[cpu_id] = tid
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": f"cpu {cpu_id}"},
                })
            return tid

        for event in tracer:
            ts_us = event.ts_ns / 1000.0
            last_ts = max(last_ts, event.ts_ns)
            kind = event.kind
            if kind in SLICES:
                opens[(event.cpu_id, kind)] = event
                continue
            if kind in _SLICE_END:
                begin_kind = _SLICE_END[kind]
                begin = opens.pop((event.cpu_id, begin_kind), None)
                if begin is None:
                    # Unmatched end (begin fell out of the ring buffer):
                    # degrade to an instant so the event still shows up.
                    trace_events.append({
                        "ph": "i", "s": "t", "name": kind,
                        "cat": _category(begin_kind),
                        "ts": ts_us, "pid": pid, "tid": tid_for(event.cpu_id),
                        "args": _args(event),
                    })
                    continue
                args = _args(begin)
                args.update(_args(event))
                trace_events.append({
                    "ph": "X", "name": _slice_name(begin),
                    "cat": _category(begin_kind),
                    "ts": begin.ts_ns / 1000.0,
                    "dur": (event.ts_ns - begin.ts_ns) / 1000.0,
                    "pid": pid, "tid": tid_for(event.cpu_id), "args": args,
                })
                continue
            if kind == "span.begin":
                args = _args(event)
                span_opens[args.get("span")] = event
                trace_events.append({
                    "ph": "b", "cat": "span", "id": args.get("request"),
                    "name": args.get("name", "span"), "ts": ts_us,
                    "pid": pid, "tid": tid_for(event.cpu_id), "args": args,
                })
                continue
            if kind == "span.end":
                args = _args(event)
                begin = span_opens.pop(args.get("span"), None)
                trace_events.append({
                    "ph": "e", "cat": "span", "id": args.get("request"),
                    "name": args.get("name", "span"), "ts": ts_us,
                    "pid": pid, "tid": tid_for(event.cpu_id),
                    "args": {key: val for key, val in args.items()
                             if key != "parts"},
                })
                for part in args.get("parts") or ():
                    name, lo, hi = part[0], part[1], part[2]
                    trace_events.append({
                        "ph": "b", "cat": "span", "id": args.get("request"),
                        "name": name, "ts": lo / 1000.0,
                        "pid": pid, "tid": tid_for(event.cpu_id), "args": {},
                    })
                    trace_events.append({
                        "ph": "e", "cat": "span", "id": args.get("request"),
                        "name": name, "ts": hi / 1000.0,
                        "pid": pid, "tid": tid_for(event.cpu_id), "args": {},
                    })
                if begin is not None and "parent" not in begin.detail:
                    flow_id = f"flow:{args.get('request')}"
                    trace_events.append({
                        "ph": "s", "cat": "span.flow", "id": flow_id,
                        "name": args.get("name", "span"),
                        "ts": begin.ts_ns / 1000.0, "pid": pid,
                        "tid": tid_for(begin.cpu_id),
                    })
                    trace_events.append({
                        "ph": "f", "cat": "span.flow", "id": flow_id,
                        "name": args.get("name", "span"), "bp": "e",
                        "ts": ts_us, "pid": pid,
                        "tid": tid_for(event.cpu_id),
                    })
                continue
            if kind in _COUNTER_KINDS:
                key = _COUNTER_KINDS[kind]
                value = event.detail.get(key, 0)
                trace_events.append({
                    "ph": "C", "name": f"{kind} cpu{event.cpu_id}",
                    "ts": ts_us, "pid": pid,
                    "args": {key: _jsonable(value)},
                })
                continue
            trace_events.append({
                "ph": "i", "s": "t", "name": kind,
                "cat": _category(kind),
                "ts": ts_us, "pid": pid, "tid": tid_for(event.cpu_id),
                "args": _args(event),
            })

        # Close slices still open at trace end so they remain visible.
        for (cpu_id, begin_kind), begin in opens.items():
            trace_events.append({
                "ph": "X", "name": _slice_name(begin),
                "cat": _category(begin_kind),
                "ts": begin.ts_ns / 1000.0,
                "dur": max((last_ts - begin.ts_ns) / 1000.0, 0.001),
                "pid": pid, "tid": tid_for(cpu_id),
                "args": dict(_args(begin), open_at_trace_end=True),
            })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"dropped_events": dropped_total,
                      "streams": streams_meta},
    }


def write_chrome_trace(path, trace_source):
    """Serialize :func:`chrome_trace` output to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(trace_source), handle)
    return path


def write_jsonl(path, trace_source):
    """Write one JSON object per trace event; returns the path.

    Each stream is prefixed with one ``"kind": "trace_meta"`` object
    carrying the capture bookkeeping (event/drop counts, capacity, ring
    mode) — the JSONL equivalent of the Chrome exporter's
    ``otherData.dropped_events``, so downstream analyzers can tell a
    truncated stream from a complete one.
    """
    with open(path, "w") as handle:
        for pid, (label, tracer) in enumerate(_normalize_streams(trace_source)):
            summary_fn = getattr(tracer, "summary", None)
            meta = summary_fn() if callable(summary_fn) else {
                "events": sum(1 for _ in tracer),
                "dropped": getattr(tracer, "dropped", 0),
            }
            handle.write(json.dumps({
                "pid": pid,
                "stream": label,
                "kind": "trace_meta",
                "args": {key: _jsonable(val) for key, val in meta.items()},
            }))
            handle.write("\n")
            for event in tracer:
                handle.write(json.dumps({
                    "pid": pid,
                    "stream": label,
                    "ts_ns": event.ts_ns,
                    "cpu": _jsonable(event.cpu_id),
                    "kind": event.kind,
                    "args": _args(event),
                }))
                handle.write("\n")
    return path


def write_metrics_json(path, registry):
    """Write a registry snapshot (instruments + sources) as JSON."""
    with open(path, "w") as handle:
        json.dump(registry.snapshot(), handle, indent=2, default=_jsonable)
    return path


def format_metrics(snapshot, source_prefixes=("sim.engine",)):
    """Render a snapshot's headline numbers as indented text lines."""
    lines = []
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            lines.append(f"  {name}: {value}")
    for name, summary in snapshot.get("histograms", {}).items():
        lines.append(f"  {name}: {summary}")
    for name, data in snapshot.get("sources", {}).items():
        if not name.startswith(tuple(source_prefixes)):
            continue
        for key, value in sorted(data.items()):
            lines.append(f"  {name}.{key}: {value}")
    return "\n".join(lines)
