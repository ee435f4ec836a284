"""Trace analysis: scheduling-latency profiles and switch-cost accounting.

This is the read side of the observability spine: it consumes
:class:`~repro.metrics.timeline.TimelineEvent` streams — live tracers, an
:class:`~repro.obs.session.ObservabilitySession`'s streams, or a JSONL
capture written by :func:`~repro.obs.export.write_jsonl` — and computes
the quantities behind the paper's Figures 4-6 and Table 2:

* per-thread wakeup (``enqueue``) to ``sched_in`` latency distributions;
* per-CPU busy occupancy and per-vCPU backed time;
* vmexit switch-cost accounting split by exit reason and premature flag
  (the ~2 us vCPU context switch the paper cites);
* IPI send-to-deliver latency;
* preprocessing-window hit/miss rates (probe-IRQ exits that arrived in
  time vs. premature revocations).

``taichi-experiments analyze <trace.jsonl>`` wires this into the CLI,
optionally running the :mod:`~repro.obs.invariants` catalog over the same
stream.
"""

import json
from collections import Counter, deque

from repro.metrics.stats import summarize
from repro.metrics.timeline import TimelineEvent
from repro.obs.invariants import check_events
from repro.obs.kinds import IPI_DROP_KINDS

_PROFILE_QS = (50, 90, 99)


def load_jsonl(path):
    """Parse a ``write_jsonl`` capture into ``[(label, events, meta)]``.

    ``meta`` is the stream's ``trace_meta`` bookkeeping (event/drop
    counts) when present, else ``{}``.  Events keep JSONL field types:
    ``cpu_id`` is whatever JSON preserved (stringified ids stay strings).
    """
    streams = {}
    order = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            key = (obj.get("pid", 0), obj.get("stream", "trace"))
            if key not in streams:
                streams[key] = {"events": [], "meta": {}}
                order.append(key)
            if obj.get("kind") in ("trace_meta", "telemetry_meta"):
                streams[key]["meta"] = obj.get("args", {})
                continue
            if obj.get("kind") == "telemetry":
                # Telemetry snapshot series interleave with trace captures
                # in the same dir; the event profiler skips them (use
                # repro.obs.telemetry.load_telemetry_jsonl to read them)
                # but their meta line still feeds the drop warnings.
                continue
            streams[key]["events"].append(TimelineEvent(
                int(obj["ts_ns"]), obj.get("cpu"), obj["kind"],
                obj.get("args", {}),
            ))
    return [(label, streams[key]["events"], streams[key]["meta"])
            for key in order for _, label in (key,)]


def analyze_events(events, dropped=0):
    """Single-pass scheduling profile of one event stream; returns a dict."""
    events = list(events)
    kinds = Counter()
    first_ts = events[0].ts_ns if events else 0
    last_ts = events[-1].ts_ns if events else 0

    pending_wake = {}          # thread -> enqueue ts
    wake_all = []
    wake_by_thread = {}        # thread -> [latency_ns]

    sched_open = {}            # cpu -> sched_in ts
    busy_ns = Counter()        # cpu -> occupied ns

    vm_open = {}               # cpu -> vmenter event
    vcpu_stats = {}            # vcpu -> {"slices", "backed_ns"}
    slice_durations = []
    switch_samples = []
    switch_by_reason = {}      # reason -> {"count","premature","total_ns"}
    window_hits = 0
    window_misses = 0

    ipi_pending = {}           # (dst, vector) -> deque of send ts
    ipi_latencies = []
    ipi_unmatched_delivers = 0
    ipi_drop_credit = Counter()  # fault drops traced before their send

    dp_yields = Counter()      # service -> yields

    alerts_raised = Counter()  # alert name -> raise count
    alerts_cleared = 0

    faults_by_kind = Counter()
    faults_cleared = 0
    handled_by_mechanism = Counter()
    ipi_fault_drops = 0
    ipi_offline_drops = 0
    probe_suppressed = 0
    probe_spurious = 0

    for event in events:
        kind = event.kind
        kinds[kind] += 1
        if event.ts_ns > last_ts:
            last_ts = event.ts_ns

        if kind == "enqueue":
            pending_wake[event.detail.get("thread")] = event.ts_ns
        elif kind == "sched_in":
            thread = event.detail.get("thread")
            woken = pending_wake.pop(thread, None)
            if woken is not None:
                latency = event.ts_ns - woken
                wake_all.append(latency)
                wake_by_thread.setdefault(thread, []).append(latency)
            sched_open[event.cpu_id] = event.ts_ns
        elif kind == "sched_out":
            start = sched_open.pop(event.cpu_id, None)
            if start is not None:
                busy_ns[event.cpu_id] += event.ts_ns - start
        elif kind == "vmenter":
            vm_open[event.cpu_id] = event
        elif kind == "vmexit":
            begin = vm_open.pop(event.cpu_id, None)
            if begin is not None:
                slice_durations.append(event.ts_ns - begin.ts_ns)
            vcpu = event.detail.get("vcpu")
            stats = vcpu_stats.setdefault(vcpu, {"slices": 0, "backed_ns": 0})
            stats["slices"] += 1
            if begin is not None:
                stats["backed_ns"] += event.ts_ns - begin.ts_ns
            cost = (event.detail.get("enter_cost_ns", 0)
                    + event.detail.get("exit_cost_ns", 0))
            switch_samples.append(cost)
            reason = event.detail.get("reason", "?")
            premature = bool(event.detail.get("premature"))
            bucket = switch_by_reason.setdefault(
                reason, {"count": 0, "premature": 0, "total_ns": 0})
            bucket["count"] += 1
            bucket["total_ns"] += cost
            if premature:
                bucket["premature"] += 1
            if reason == "hw_probe_irq":
                if premature:
                    window_misses += 1
                else:
                    window_hits += 1
        elif kind == "ipi_send":
            key = (event.detail.get("dst"), event.detail.get("vector"))
            if ipi_drop_credit[key] > 0:
                ipi_drop_credit[key] -= 1  # send dropped before being traced
            else:
                ipi_pending.setdefault(key, deque()).append(event.ts_ns)
        elif kind == "ipi_deliver":
            queue = ipi_pending.get((event.cpu_id, event.detail.get("vector")))
            if queue:
                ipi_latencies.append(event.ts_ns - queue.popleft())
            else:
                ipi_unmatched_delivers += 1
        elif kind in IPI_DROP_KINDS:
            if kind == "fault.ipi_drop":
                ipi_fault_drops += 1
            else:
                ipi_offline_drops += 1
            key = (event.cpu_id, event.detail.get("vector"))
            queue = ipi_pending.get(key)
            if queue:
                queue.popleft()
            else:
                ipi_drop_credit[key] += 1
        elif kind == "dp_idle_yield":
            dp_yields[event.detail.get("service")] += 1
        elif kind == "alert.raised":
            alerts_raised[event.detail.get("alert", "?")] += 1
        elif kind == "alert.cleared":
            alerts_cleared += 1
        elif kind == "fault.injected":
            faults_by_kind[event.detail.get("fault_kind", "?")] += 1
        elif kind == "fault.cleared":
            faults_cleared += 1
        elif kind == "fault.handled":
            handled_by_mechanism[event.detail.get("mechanism", "?")] += 1
        elif kind == "fault.probe_suppress":
            probe_suppressed += 1
        elif kind == "fault.probe_spurious":
            probe_spurious += 1

    span_ns = max(last_ts - first_ts, 0)
    # Slices/stints still open at stream end occupy their CPU until then.
    for cpu, start in sched_open.items():
        busy_ns[cpu] += last_ts - start
    for cpu, begin in vm_open.items():
        vcpu = begin.detail.get("vcpu")
        stats = vcpu_stats.setdefault(vcpu, {"slices": 0, "backed_ns": 0})
        stats["backed_ns"] += last_ts - begin.ts_ns

    probe_exits = window_hits + window_misses
    return {
        "events": len(events),
        "dropped": int(dropped),
        "span_ns": span_ns,
        "kinds": dict(sorted(kinds.items())),
        "wakeup_to_sched_in_ns": summarize(wake_all, qs=_PROFILE_QS),
        "wakeup_to_sched_in_by_thread": {
            thread: summarize(samples, qs=_PROFILE_QS)
            for thread, samples in sorted(
                wake_by_thread.items(), key=lambda item: str(item[0]))
        },
        "cpu_occupancy": {
            cpu: {
                "busy_ns": busy,
                "busy_pct": round(100.0 * busy / span_ns, 3) if span_ns else 0.0,
            }
            for cpu, busy in sorted(busy_ns.items(), key=lambda i: str(i[0]))
        },
        "vcpu_occupancy": {
            vcpu: {
                **stats,
                "backed_pct": (round(100.0 * stats["backed_ns"] / span_ns, 3)
                               if span_ns else 0.0),
            }
            for vcpu, stats in sorted(
                vcpu_stats.items(), key=lambda i: str(i[0]))
        },
        "switch_cost_ns": summarize(switch_samples, qs=_PROFILE_QS),
        "switch_by_reason": {
            reason: {
                "count": bucket["count"],
                "premature": bucket["premature"],
                "total_cost_ns": bucket["total_ns"],
                "mean_cost_ns": round(bucket["total_ns"] / bucket["count"], 1),
            }
            for reason, bucket in sorted(switch_by_reason.items())
        },
        "slice_duration_ns": summarize(slice_durations, qs=_PROFILE_QS),
        "ipi_latency_ns": {
            **summarize(ipi_latencies, qs=_PROFILE_QS),
            "unmatched_sends": sum(
                len(queue) for queue in ipi_pending.values()),
            "unmatched_delivers": ipi_unmatched_delivers,
        },
        "preprocessing_window": {
            "probe_exits": probe_exits,
            "hits": window_hits,
            "misses": window_misses,
            "hit_rate": (round(window_hits / probe_exits, 4)
                         if probe_exits else None),
        },
        "dp_idle_yields": {
            "total": sum(dp_yields.values()),
            "by_service": dict(sorted(
                dp_yields.items(), key=lambda i: str(i[0]))),
        },
        "alerts": {
            "raised": sum(alerts_raised.values()),
            "cleared": alerts_cleared,
            "by_alert": dict(sorted(alerts_raised.items())),
        },
        "faults": {
            "injected": sum(faults_by_kind.values()),
            "cleared": faults_cleared,
            "by_kind": dict(sorted(faults_by_kind.items())),
            "handled": sum(handled_by_mechanism.values()),
            "handled_by_mechanism": dict(sorted(
                handled_by_mechanism.items())),
            "ipi_drops_injected": ipi_fault_drops,
            "ipi_drops_offline": ipi_offline_drops,
            "probe_irqs_suppressed": probe_suppressed,
            "probe_irqs_spurious": probe_spurious,
        },
    }


def _normalize(streams):
    """Accept session streams [(label, tracer)], [(label, events, meta)],
    a bare tracer, or a JSONL path."""
    if isinstance(streams, str):
        return load_jsonl(streams)
    if hasattr(streams, "record"):
        streams = [("trace", streams)]
    normalized = []
    for entry in streams:
        if len(entry) == 3:
            label, events, meta = entry
        else:
            label, tracer = entry
            summary_fn = getattr(tracer, "summary", None)
            meta = summary_fn() if callable(summary_fn) else {}
            events = list(tracer)
        normalized.append((label, list(events), dict(meta)))
    return normalized


def analyze_streams(streams, check_invariants=True, checkers=None):
    """Profile every stream (and optionally check invariants).

    ``streams`` may be an :class:`ObservabilitySession`'s ``.streams``,
    ``[(label, events, meta)]`` triples, a single tracer, or a path to a
    JSONL capture.  Returns ``{"streams", "warnings", "violations"}``
    where ``violations`` is ``[(stream_label, Violation)]``.
    """
    reports = {}
    warnings = []
    violations = []
    for label, events, meta in _normalize(streams):
        dropped = int(meta.get("dropped", 0) or 0)
        reports[label] = analyze_events(events, dropped=dropped)
        if dropped:
            mode = meta.get("mode", "ring")
            if meta.get("stream_type") == "telemetry" or "snapshots" in meta:
                warnings.append(
                    f"stream {label!r}: {dropped} telemetry snapshots "
                    f"dropped ({mode} mode) — the series is truncated and "
                    "interval-derived rates understate the full run")
            else:
                warnings.append(
                    f"stream {label!r}: {dropped} events dropped ({mode} "
                    "mode) — the profile covers a truncated stream and "
                    "pairing violations may be capture artifacts")
        if check_invariants:
            violations.extend(
                (label, violation)
                for violation in check_events(events, checkers=checkers))
    return {"streams": reports, "warnings": warnings,
            "violations": violations}


def analyze_capture(path, check_invariants=True, checkers=None):
    """Analyze a JSONL capture file (the ``analyze`` CLI entry point)."""
    return analyze_streams(load_jsonl(path), check_invariants=check_invariants,
                           checkers=checkers)


def critical_path_from_streams(streams, exemplar_k=None):
    """Span trees + per-channel critical-path report over any stream form.

    ``streams`` accepts everything :func:`analyze_streams` does.  Returns
    ``(trees, report)`` — see :func:`repro.obs.spans.build_span_trees`
    and :func:`repro.obs.spans.critical_path_report`.
    """
    from repro.obs import spans as spans_mod

    trees = {}
    for _label, events, _meta in _normalize(streams):
        trees.update(spans_mod.build_span_trees(events))
    kwargs = {} if exemplar_k is None else {"exemplar_k": exemplar_k}
    return trees, spans_mod.critical_path_report(trees, **kwargs)


def find_request_tree(streams, request_id):
    """The reconstructed span tree for one request id, or None."""
    trees, _report = critical_path_from_streams(streams)
    return trees.get(request_id)


# -- Report formatting ---------------------------------------------------------


def _us(ns):
    return f"{ns / 1000.0:.2f}us"


def _fmt_summary(summary):
    if summary.get("count", 0) == 0:
        return "(no samples)"
    parts = [f"n={summary['count']}"]
    for key in ("min", "p50", "p90", "p99", "max"):
        if key in summary:
            parts.append(f"{key}={_us(summary[key])}")
    if "mean" in summary:
        parts.insert(1, f"mean={_us(summary['mean'])}")
    return " ".join(parts)


def format_stream_report(label, report):
    """Render one stream's profile as indented text lines."""
    lines = [f"== stream {label!r}: {report['events']} events over "
             f"{_us(report['span_ns'])}"
             + (f" ({report['dropped']} dropped)" if report["dropped"] else "")]
    lines.append("  wakeup->sched_in latency: "
                 + _fmt_summary(report["wakeup_to_sched_in_ns"]))
    by_thread = report["wakeup_to_sched_in_by_thread"]
    for thread, summary in list(by_thread.items())[:12]:
        lines.append(f"    {thread}: {_fmt_summary(summary)}")
    if len(by_thread) > 12:
        lines.append(f"    ... {len(by_thread) - 12} more threads")

    occupancy = report["cpu_occupancy"]
    if occupancy:
        rendered = ", ".join(f"cpu {cpu}={data['busy_pct']:.1f}%"
                             for cpu, data in occupancy.items())
        lines.append(f"  cpu occupancy: {rendered}")
    vcpus = report["vcpu_occupancy"]
    if vcpus:
        rendered = ", ".join(
            f"{vcpu}={data['slices']} slices/{_us(data['backed_ns'])}"
            for vcpu, data in vcpus.items())
        lines.append(f"  vcpu backing: {rendered}")

    lines.append("  vmexit switch cost: "
                 + _fmt_summary(report["switch_cost_ns"]))
    for reason, bucket in report["switch_by_reason"].items():
        premature = (f", {bucket['premature']} premature"
                     if bucket["premature"] else "")
        lines.append(f"    {reason}: {bucket['count']} exits, mean "
                     f"{_us(bucket['mean_cost_ns'])}{premature}")
    lines.append("  vcpu slice duration: "
                 + _fmt_summary(report["slice_duration_ns"]))

    ipi = report["ipi_latency_ns"]
    extra = ""
    if ipi.get("unmatched_sends"):
        extra = f" ({ipi['unmatched_sends']} sends in flight at stream end)"
    lines.append("  ipi send->deliver: " + _fmt_summary(ipi) + extra)

    window = report["preprocessing_window"]
    if window["probe_exits"]:
        lines.append(
            f"  preprocessing window: {window['hits']}/{window['probe_exits']}"
            f" probe exits in time (hit rate {window['hit_rate']:.2%},"
            f" {window['misses']} premature)")
    dp = report["dp_idle_yields"]
    if dp["total"]:
        rendered = ", ".join(f"{service}={count}"
                             for service, count in dp["by_service"].items())
        lines.append(f"  dp idle yields: {dp['total']} ({rendered})")

    spans_begun = report["kinds"].get("span.begin", 0)
    if spans_begun:
        lines.append(f"  spans: {spans_begun} begun / "
                     f"{report['kinds'].get('span.end', 0)} ended "
                     "(use --critical-path for per-request attribution)")

    alerts = report.get("alerts", {})
    if alerts.get("raised"):
        rendered = ", ".join(f"{name}={count}"
                             for name, count in alerts["by_alert"].items())
        lines.append(f"  alerts: {alerts['raised']} raised / "
                     f"{alerts['cleared']} cleared ({rendered})")

    faults = report.get("faults", {})
    if faults.get("injected") or faults.get("handled"):
        rendered = ", ".join(f"{kind}={count}"
                             for kind, count in faults["by_kind"].items())
        lines.append(f"  faults: {faults['injected']} injected / "
                     f"{faults['cleared']} cleared ({rendered})")
        if faults["handled"]:
            rendered = ", ".join(
                f"{mechanism}={count}" for mechanism, count
                in faults["handled_by_mechanism"].items())
            lines.append(f"  degradation responses: {faults['handled']} "
                         f"({rendered})")
        drops = []
        if faults["ipi_drops_injected"]:
            drops.append(f"{faults['ipi_drops_injected']} injected")
        if faults["ipi_drops_offline"]:
            drops.append(f"{faults['ipi_drops_offline']} offline")
        if drops:
            lines.append(f"  ipi drops: {', '.join(drops)}")
        if faults["probe_irqs_suppressed"] or faults["probe_irqs_spurious"]:
            lines.append(
                f"  probe faults: {faults['probe_irqs_suppressed']} IRQs "
                f"suppressed, {faults['probe_irqs_spurious']} spurious")
    return "\n".join(lines)


def format_analysis(analysis, max_violations=20):
    """Render a full :func:`analyze_streams` result as text."""
    lines = []
    for warning in analysis["warnings"]:
        lines.append(f"WARNING: {warning}")
    for label, report in analysis["streams"].items():
        lines.append(format_stream_report(label, report))
    violations = analysis["violations"]
    if violations:
        lines.append(f"INVARIANT VIOLATIONS: {len(violations)}")
        for label, violation in violations[:max_violations]:
            lines.append(f"  stream {label!r}:")
            for row in str(violation).splitlines():
                lines.append(f"  {row}")
        if len(violations) > max_violations:
            lines.append(f"  ... {len(violations) - max_violations} more")
    else:
        lines.append("invariants: all checks passed (0 violations)")
    return "\n".join(lines)


def analysis_to_json(analysis):
    """JSON-safe version of an :func:`analyze_streams` result."""
    out = {
        "streams": analysis["streams"],
        "warnings": list(analysis["warnings"]),
        "violations": [
            {"stream": label, **violation.to_dict()}
            for label, violation in analysis["violations"]
        ],
    }
    if "critical_path" in analysis:
        # Attached by the CLI's --critical-path pass; plain data already.
        out["critical_path"] = analysis["critical_path"]
    return out


def write_analysis_json(path, analysis):
    """Serialize :func:`analysis_to_json` to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(analysis_to_json(analysis), handle, indent=2, default=str)
    return path
