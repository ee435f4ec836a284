"""Causal request tracing: span trees, critical paths, tail exemplars.

The flat tracer answers "what happened on this CPU"; this module answers
"where did *this request's* latency go".  A :class:`SpanTracker` rides on
every :class:`~repro.sim.environment.Environment` (``env.spans``,
disabled by default) and threads correlation ids through the two request
paths the paper's SLOs are written against:

* **VM-startup workflows** (channel ``vm``) — request issue, CP queue
  wait, device-initialization execution (with preemptions by vCPU slices
  and IPI-delivery windows attributed from the flat event stream), and
  host-side QEMU instantiation;
* **DP packets** (channel ``dp``) — accelerator stall and preprocessing,
  then the rx-queue wait decomposed into vCPU occupancy, vmexit switch
  cost, in-flight IPI/probe-IRQ delivery, queued-behind service time and
  residual scheduling delay.

Spans are emitted as paired ``span.begin`` / ``span.end`` trace events
carrying ``request``/``parent`` ids, so a JSONL capture reconstructs into
per-request trees (:func:`build_span_trees`).  Each completed root span
carries a ``parts`` list — a *gapless, exact partition* of the request's
end-to-end window into named segments.  The partition is built by a
boundary sweep where the deepest overlapping activity wins, so segment
durations always sum to the measured total ns-exactly, by construction —
fault-injected IPI delay windows show up as wider ``ipi_deliver``
segments, never as unexplained gaps.

A bounded :class:`ExemplarReservoir` per channel retains the K worst
requests' full span trees (O(K) memory); alert events and run summaries
link to them by request id.  Everything here only *reads* simulation
state and records trace events — span tracking never schedules, so
spans-on runs produce byte-identical results to spans-off runs.
"""

from collections import deque

from repro.metrics.stats import summarize

#: Default tail-exemplar retention per channel.
DEFAULT_EXEMPLAR_K = 4

#: Exemplar records cap their stored ``parts`` timeline at this many
#: entries (the ``segments`` totals stay exact either way).
_EXEMPLAR_PARTS_CAP = 96

#: Attribution priority: when activities overlap, the *deepest* one wins
#: the instant (lower number = deeper).
_PRIORITY = {"switch": 0, "ipi": 1, "vcpu": 2, "dp": 3}
_SEGMENT_NAME = {
    "switch": "vmexit_switch",
    "ipi": "ipi_deliver",
    "vcpu": "vcpu_occupied",
    "dp": "queued_behind",
}

#: Flat-event kinds the tracker's hook actually consumes; everything
#: else early-returns (the hook runs on every trace event).
_HANDLED_KINDS = frozenset((
    "sched_in", "sched_out", "vmenter", "vmexit", "ipi_send",
    "ipi_deliver", "hwprobe_irq", "fault.ipi_drop", "ipi.dropped",
))

#: Per-CPU closed-interval retention floor; pruned against the oldest
#: open span so memory stays O(in-flight requests + recent activity).
_PRUNE_TRIGGER = 512


class Span:
    """One live span: a named window of a request's lifetime."""

    __slots__ = ("span_id", "request_id", "parent_id", "name", "channel",
                 "cpu_id", "t_begin", "t_end")

    def __init__(self, span_id, request_id, parent_id, name, channel,
                 cpu_id, t_begin):
        self.span_id = span_id
        self.request_id = request_id
        self.parent_id = parent_id
        self.name = name
        self.channel = channel
        self.cpu_id = cpu_id
        self.t_begin = t_begin
        self.t_end = None

    def to_dict(self):
        return {
            "span": self.span_id,
            "request": self.request_id,
            "parent": self.parent_id,
            "name": self.name,
            "begin_ns": self.t_begin,
            "end_ns": self.t_end,
        }

    def __repr__(self):
        return (f"<Span {self.span_id} {self.name!r} "
                f"[{self.t_begin}..{self.t_end}]>")


class ExemplarReservoir:
    """Bounded worst-K retention of completed request records.

    Ordering is deterministic: worst duration first, ties broken by
    request id, so reservoir contents are a pure function of the offered
    stream — fleet reports stay byte-identical at any ``--jobs`` level.
    """

    def __init__(self, k=DEFAULT_EXEMPLAR_K):
        self.k = max(int(k), 1)
        self.records = []      # sorted worst-first
        self.offered = 0

    def offer(self, record):
        self.offered += 1
        self.records.append(record)
        self.records.sort(key=lambda r: (-r["duration_ns"], r["request"]))
        del self.records[self.k:]

    def worst_ids(self):
        return [record["request"] for record in self.records]

    def __len__(self):
        return len(self.records)

    def __repr__(self):
        return f"<ExemplarReservoir k={self.k} kept={len(self.records)}>"


def merge_parts(parts):
    """Coalesce adjacent same-name parts; drops empty pieces."""
    out = []
    for name, lo, hi in parts:
        if hi <= lo:
            continue
        if out and out[-1][0] == name and out[-1][2] == lo:
            out[-1][2] = hi
        else:
            out.append([name, lo, hi])
    return out


def segment_totals(parts):
    """``{segment name: total ns}`` over a parts timeline."""
    totals = {}
    for name, lo, hi in parts:
        totals[name] = totals.get(name, 0) + (hi - lo)
    return dict(sorted(totals.items()))


def dominant_segment(segments):
    """``(name, share_pct)`` of the largest segment (deterministic ties)."""
    total = sum(segments.values())
    if not total:
        return None, 0.0
    name = max(sorted(segments), key=lambda n: segments[n])
    return name, round(100.0 * segments[name] / total, 1)


class SpanTracker:
    """Per-environment span state machine and exemplar store.

    Starts disabled; :meth:`enable` hooks :meth:`observe` into the env's
    tracer so the tracker sees the flat event stream (vCPU slices, IPI
    traffic, DP thread scheduling) it attributes wait windows from.
    Instrumentation sites gate on ``env.spans.enabled`` with a single
    attribute check, mirroring the tracer's own gate.
    """

    def __init__(self, env, exemplar_k=DEFAULT_EXEMPLAR_K):
        self.env = env
        self.enabled = False
        self.exemplar_k = exemplar_k
        self.reservoirs = {}       # channel -> ExemplarReservoir
        self.roots_completed = 0

        self._open = {}            # span_id -> Span
        self._tree = {}            # request_id -> [closed child Span]
        self._span_seq = {}        # request_id -> next child ordinal
        self._request_seq = 0      # auto request-id counter (dp packets)
        self._vm_state = {}        # request_id -> phase bookkeeping

        # Flat-stream attribution state.
        self._cpu_iv = {}          # cpu -> deque[(t0, t1, kind, extra)]
        self._open_vm = {}         # cpu -> vmenter ts
        self._open_dp = {}         # cpu -> dp-thread sched_in ts
        self._dp_threads = set()   # registered DP service thread names
        self._ipi_pending = {}     # (dst, vector) -> deque[send ts]
        self._watched = {}         # thread name -> wait/run bookkeeping

    # -- Lifecycle ----------------------------------------------------------------

    def enable(self, exemplar_k=None):
        if exemplar_k is not None:
            self.exemplar_k = int(exemplar_k)
        if not self.enabled:
            self.enabled = True
            self.env.tracer.add_hook(self.observe)
        return self

    def disable(self):
        if self.enabled:
            self.enabled = False
            self.env.tracer.remove_hook(self.observe)
        return self

    def register_dp_thread(self, name):
        """DP services register their poller thread so rx-queue waits can
        be attributed to queued-behind service time.  Cheap and
        unconditional: spans may be enabled after the service exists."""
        self._dp_threads.add(name)

    def watch_thread(self, name):
        """Track a request-owned thread's scheduling (CP workflows)."""
        self._watched[name] = {"cpu": None, "open": None, "iv": []}

    def unwatch_thread(self, name):
        self._watched.pop(name, None)

    # -- Flat-event consumption (tracer hook) --------------------------------------

    def observe(self, event):
        kind = event.kind
        if kind not in _HANDLED_KINDS:
            return
        detail = event.detail
        if kind == "sched_in":
            thread = detail.get("thread")
            if thread in self._dp_threads:
                self._open_dp[event.cpu_id] = event.ts_ns
            watched = self._watched.get(thread)
            if watched is not None:
                watched["cpu"] = event.cpu_id
                watched["open"] = event.ts_ns
        elif kind == "sched_out":
            thread = detail.get("thread")
            if thread in self._dp_threads:
                t0 = self._open_dp.pop(event.cpu_id, None)
                if t0 is not None:
                    self._add_interval(event.cpu_id, t0, event.ts_ns, "dp")
            watched = self._watched.get(thread)
            if watched is not None and watched["open"] is not None:
                watched["iv"].append((watched["open"], event.ts_ns))
                watched["open"] = None
        elif kind == "vmenter":
            self._open_vm[event.cpu_id] = event.ts_ns
        elif kind == "vmexit":
            t0 = self._open_vm.pop(event.cpu_id, None)
            if t0 is not None:
                self._add_interval(event.cpu_id, t0, event.ts_ns, "vcpu",
                                   detail.get("exit_cost_ns", 0))
        elif kind == "ipi_send":
            if not detail.get("routed"):
                key = (detail.get("dst"), detail.get("vector"))
                self._ipi_pending.setdefault(key, deque()).append(event.ts_ns)
        elif kind == "ipi_deliver":
            queue = self._ipi_pending.get(
                (event.cpu_id, detail.get("vector")))
            if queue:
                self._add_interval(event.cpu_id, queue.popleft(),
                                   event.ts_ns, "ipi")
        elif kind == "hwprobe_irq":
            # The preempt IRQ is traced at fire time with its delivery
            # latency, so the in-flight window is known up front.
            self._add_interval(event.cpu_id, event.ts_ns,
                               event.ts_ns + detail.get("latency_ns", 0),
                               "ipi")
        else:  # fault.ipi_drop / ipi.dropped: that send never delivers
            queue = self._ipi_pending.get(
                (event.cpu_id, detail.get("vector")))
            if queue:
                queue.popleft()

    def _add_interval(self, cpu_id, t0, t1, kind, extra=0):
        intervals = self._cpu_iv.get(cpu_id)
        if intervals is None:
            intervals = self._cpu_iv[cpu_id] = deque()
        intervals.append((t0, t1, kind, extra))
        if len(intervals) > _PRUNE_TRIGGER:
            floor = self._retention_floor()
            while intervals and intervals[0][1] < floor:
                intervals.popleft()

    def _retention_floor(self):
        if not self._open:
            return self.env.now
        return min(span.t_begin for span in self._open.values())

    # -- Span emission -------------------------------------------------------------

    def begin(self, name, channel=None, parent=None, request_id=None,
              cpu_id="-"):
        """Open a span at ``env.now``; returns its span id."""
        if request_id is None:
            if parent is not None:
                request_id = self._open[parent].request_id
            else:
                self._request_seq += 1
                request_id = f"pkt-{self._request_seq}"
        ordinal = self._span_seq.get(request_id, 0)
        self._span_seq[request_id] = ordinal + 1
        span_id = f"{request_id}#{ordinal}"
        span = Span(span_id, request_id, parent, name, channel, cpu_id,
                    self.env.now)
        self._open[span_id] = span
        tracer = self.env.tracer
        if tracer.enabled:
            detail = {"span": span_id, "request": request_id, "name": name}
            if parent is not None:
                detail["parent"] = parent
            if channel is not None:
                detail["channel"] = channel
            tracer.record(self.env.now, cpu_id, "span.begin", **detail)
        return span_id

    def end(self, span_id, **extra):
        """Close a non-root span at ``env.now``."""
        span = self._open.pop(span_id)
        span.t_end = self.env.now
        self._tree.setdefault(span.request_id, []).append(span)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.record(self.env.now, span.cpu_id, "span.end",
                          span=span_id, request=span.request_id,
                          name=span.name, **extra)
        return span

    def end_root(self, span_id, parts):
        """Close a root span with its exact-partition ``parts`` timeline.

        Records the ``span.end`` event carrying ``duration_ns`` and the
        parts, offers the completed tree to the channel's exemplar
        reservoir, and drops all per-request state.
        """
        span = self._open.pop(span_id)
        span.t_end = self.env.now
        parts = merge_parts(parts)
        duration = span.t_end - span.t_begin
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.record(self.env.now, span.cpu_id, "span.end",
                          span=span_id, request=span.request_id,
                          name=span.name, duration_ns=duration, parts=parts)
        children = self._tree.pop(span.request_id, [])
        self._span_seq.pop(span.request_id, None)
        self.roots_completed += 1

        segments = segment_totals(parts)
        dominant, share = dominant_segment(segments)
        record = {
            "request": span.request_id,
            "channel": span.channel,
            "name": span.name,
            "cpu": span.cpu_id,
            "begin_ns": span.t_begin,
            "end_ns": span.t_end,
            "duration_ns": duration,
            "segments": segments,
            "dominant": dominant,
            "dominant_pct": share,
            "parts": parts[:_EXEMPLAR_PARTS_CAP],
            "parts_truncated": len(parts) > _EXEMPLAR_PARTS_CAP,
            "spans": [child.to_dict() for child in children]
            + [span.to_dict()],
        }
        reservoir = self.reservoirs.get(span.channel)
        if reservoir is None:
            reservoir = self.reservoirs[span.channel] = ExemplarReservoir(
                self.exemplar_k)
        reservoir.offer(record)
        return record

    # -- Window attribution --------------------------------------------------------

    def attribute(self, cpu_id, t0, t1, residual):
        """Exact partition of ``[t0, t1)`` on one CPU into named parts.

        Overlapping recorded activity (vCPU slices with their switch-cost
        tails, in-flight IPIs/probe IRQs, DP-thread service time) claims
        instants by depth; anything unclaimed becomes ``residual``.  The
        returned parts are contiguous from ``t0`` to ``t1``, so their
        durations sum to ``t1 - t0`` exactly.
        """
        if t1 <= t0:
            return []
        segs = []
        for interval in self._cpu_iv.get(cpu_id, ()):
            a, b, kind, extra = interval
            if b <= t0 or a >= t1:
                continue
            if kind == "vcpu" and extra:
                cut = max(a, b - extra)
                if cut > a:
                    segs.append((a, cut, "vcpu"))
                segs.append((cut, b, "switch"))
            else:
                segs.append((a, b, kind))
        open_vm = self._open_vm.get(cpu_id)
        if open_vm is not None and open_vm < t1:
            segs.append((open_vm, t1, "vcpu"))
        open_dp = self._open_dp.get(cpu_id)
        if open_dp is not None and open_dp < t1:
            segs.append((open_dp, t1, "dp"))

        bounds = {t0, t1}
        for a, b, _kind in segs:
            if t0 < a < t1:
                bounds.add(a)
            if t0 < b < t1:
                bounds.add(b)
        marks = sorted(bounds)
        parts = []
        for lo, hi in zip(marks, marks[1:]):
            best = None
            for a, b, kind in segs:
                if a <= lo and b >= hi:
                    if best is None or _PRIORITY[kind] < _PRIORITY[best]:
                        best = kind
            parts.append([_SEGMENT_NAME[best] if best else residual, lo, hi])
        return merge_parts(parts)

    # -- DP packet channel ---------------------------------------------------------

    def begin_dp(self, request, dst_cpu_id):
        """Open a DP request root (accelerator submit time)."""
        request.span_id = self.begin("dp_request", channel="dp",
                                     cpu_id=dst_cpu_id)

    def end_dp(self, request, cpu_id):
        """Close a DP root at poll pickup with the full decomposition."""
        span = self._open.get(request.span_id)
        if span is None:
            request.span_id = None
            return None
        now = self.env.now
        parts = []
        accel_start = request.t_accel_start
        rx_ready = request.t_rx_ready
        if accel_start is not None and accel_start > span.t_begin:
            parts.append(["accel_stall", span.t_begin,
                          min(accel_start, now)])
        preprocess_from = max(span.t_begin, accel_start or span.t_begin)
        if rx_ready is not None and rx_ready > preprocess_from:
            parts.append(["accel_preprocess", preprocess_from,
                          min(rx_ready, now)])
        wait_from = max(span.t_begin, rx_ready or span.t_begin)
        parts.extend(self.attribute(cpu_id, wait_from, now, "sched_delay"))
        record = self.end_root(request.span_id, parts)
        request.span_id = None
        return record

    # -- VM-startup channel --------------------------------------------------------

    def vm_begin(self, request):
        """Open a VM-startup root + its CP queue-wait child at issue."""
        request_id = f"vm{request.vm_id}"
        root = self.begin("vm_startup", channel="vm", request_id=request_id)
        queue = self.begin("cp_queue_wait", parent=root)
        self._vm_state[request_id] = {
            "root": root, "child": queue, "thread": None, "parts": [],
            "t_phase": self.env.now,
        }
        request.span_id = root

    def vm_watch(self, request, thread_name):
        """Bind the provisioning thread to the request (at submit)."""
        state = self._vm_state.get(f"vm{request.vm_id}")
        if state is not None:
            state["thread"] = thread_name
            self.watch_thread(thread_name)

    def vm_cp_started(self, request):
        """CP task first ran: close queue wait, open execution."""
        state = self._vm_state.get(f"vm{request.vm_id}")
        if state is None:
            return
        now = self.env.now
        watched = self._watched.get(state["thread"]) or {}
        cpu_id = watched.get("cpu")
        if cpu_id is not None:
            state["parts"].extend(
                self.attribute(cpu_id, state["t_phase"], now, "queue_wait"))
        elif now > state["t_phase"]:
            state["parts"].append(["queue_wait", state["t_phase"], now])
        self.end(state["child"])
        state["child"] = self.begin("cp_execute", parent=state["root"],
                                    cpu_id=cpu_id if cpu_id is not None
                                    else "-")
        state["t_phase"] = now

    def vm_devices_ready(self, request):
        """Device init done: close execution, open QEMU instantiation."""
        state = self._vm_state.get(f"vm{request.vm_id}")
        if state is None:
            return
        now = self.env.now
        state["parts"].extend(self._cp_execute_parts(state, now))
        self.end(state["child"])
        state["child"] = self.begin("qemu_instantiate",
                                    parent=state["root"])
        state["t_phase"] = now

    def _cp_execute_parts(self, state, t1):
        """Partition the execution window: thread-running time is
        ``cp_execute``; gaps are attributed from the CPU's activity
        (vCPU slices, switch tails, IPI windows) else ``cp_preempted``."""
        t0 = state["t_phase"]
        watched = self._watched.get(state["thread"])
        if watched is None:
            return [["cp_execute", t0, t1]] if t1 > t0 else []
        run = [(max(a, t0), min(b, t1)) for a, b in watched["iv"]
               if b > t0 and a < t1]
        if watched["open"] is not None and watched["open"] < t1:
            run.append((max(watched["open"], t0), t1))
        run.sort()
        cpu_id = watched.get("cpu")
        parts = []
        cursor = t0
        for a, b in run:
            if a > cursor:
                parts.extend(self._gap_parts(cpu_id, cursor, a))
            if b > cursor:
                parts.append(["cp_execute", max(a, cursor), b])
                cursor = b
        if cursor < t1:
            parts.extend(self._gap_parts(cpu_id, cursor, t1))
        return parts

    def _gap_parts(self, cpu_id, t0, t1):
        if cpu_id is None:
            return [["cp_preempted", t0, t1]] if t1 > t0 else []
        return self.attribute(cpu_id, t0, t1, "cp_preempted")

    def vm_started(self, request):
        """QEMU came up: close the tree and offer it to the reservoir."""
        request_id = f"vm{request.vm_id}"
        state = self._vm_state.pop(request_id, None)
        if state is None:
            return None
        now = self.env.now
        if now > state["t_phase"]:
            state["parts"].append(["qemu_instantiate", state["t_phase"],
                                   now])
        self.end(state["child"])
        record = self.end_root(state["root"], state["parts"])
        if state["thread"]:
            self.unwatch_thread(state["thread"])
        request.span_id = None
        return record

    # -- Reporting -----------------------------------------------------------------

    def exemplars(self):
        """``{channel: [exemplar records worst-first]}`` (JSON-safe)."""
        return {channel: list(reservoir.records)
                for channel, reservoir in sorted(self.reservoirs.items())}

    def worst_ids(self, channel):
        """Worst live exemplar request ids for ``channel`` (worst-first)."""
        reservoir = self.reservoirs.get(channel)
        return reservoir.worst_ids() if reservoir is not None else []

    def open_spans(self):
        return len(self._open)

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return (f"<SpanTracker {state} open={len(self._open)} "
                f"completed={self.roots_completed}>")


# -- Post-hoc reconstruction ---------------------------------------------------


def build_span_trees(events):
    """Reconstruct request trees from ``span.begin``/``span.end`` events.

    Returns ``{request_id: tree}`` where each tree is a dict with the
    root's channel/window, the span list (roots last, as recorded), the
    critical-path ``parts`` (from the root's ``span.end``), and
    ``complete`` (False when the capture ended mid-request).
    """
    trees = {}
    open_spans = {}
    for event in events:
        kind = event.kind
        if kind == "span.begin":
            detail = event.detail
            request_id = detail.get("request")
            tree = trees.setdefault(request_id, {
                "request": request_id, "channel": None, "spans": [],
                "parts": [], "begin_ns": None, "end_ns": None,
                "duration_ns": None, "complete": False,
            })
            span = {
                "span": detail.get("span"),
                "request": request_id,
                "parent": detail.get("parent"),
                "name": detail.get("name"),
                "begin_ns": event.ts_ns,
                "end_ns": None,
            }
            tree["spans"].append(span)
            open_spans[span["span"]] = (tree, span)
            if span["parent"] is None:
                tree["channel"] = detail.get("channel")
                tree["begin_ns"] = event.ts_ns
        elif kind == "span.end":
            detail = event.detail
            entry = open_spans.pop(detail.get("span"), None)
            if entry is None:
                continue
            tree, span = entry
            span["end_ns"] = event.ts_ns
            if span["parent"] is None:
                tree["end_ns"] = event.ts_ns
                tree["duration_ns"] = detail.get(
                    "duration_ns", event.ts_ns - span["begin_ns"])
                tree["parts"] = [list(part)
                                 for part in detail.get("parts", [])]
                tree["complete"] = True
    return trees


def critical_path_report(trees, exemplar_k=DEFAULT_EXEMPLAR_K):
    """Aggregate reconstructed trees into a per-channel latency budget.

    For each channel: request counts, duration summary, total segment
    shares, the worst-K exemplars, and the *tail-dominant* segment — the
    segment claiming the largest share of the worst-K requests' time
    (the "startup p99 dominated by ipi_deliver: 61%" headline).
    """
    channels = {}
    for tree in trees.values():
        channel = tree.get("channel") or "?"
        bucket = channels.setdefault(channel, {"trees": [], "open": 0})
        if tree["complete"]:
            bucket["trees"].append(tree)
        else:
            bucket["open"] += 1

    report = {}
    for channel in sorted(channels):
        bucket = channels[channel]
        complete = sorted(bucket["trees"],
                          key=lambda t: (-t["duration_ns"], t["request"]))
        durations = [tree["duration_ns"] for tree in complete]
        totals = {}
        for tree in complete:
            for name, ns in segment_totals(tree["parts"]).items():
                totals[name] = totals.get(name, 0) + ns
        totals = dict(sorted(totals.items()))
        grand = sum(totals.values())
        worst = complete[:exemplar_k]
        tail_totals = {}
        for tree in worst:
            for name, ns in segment_totals(tree["parts"]).items():
                tail_totals[name] = tail_totals.get(name, 0) + ns
        tail_dominant, tail_share = dominant_segment(tail_totals)
        report[channel] = {
            "requests": len(complete) + bucket["open"],
            "complete": len(complete),
            "open": bucket["open"],
            "duration_ns": summarize(durations, qs=(50, 90, 99)),
            "segments": {
                name: {
                    "total_ns": ns,
                    "share_pct": (round(100.0 * ns / grand, 1)
                                  if grand else 0.0),
                }
                for name, ns in totals.items()
            },
            "tail_dominant": tail_dominant,
            "tail_dominant_pct": tail_share,
            "exemplars": [
                {
                    "request": tree["request"],
                    "duration_ns": tree["duration_ns"],
                    "segments": segment_totals(tree["parts"]),
                    "dominant": dominant_segment(
                        segment_totals(tree["parts"]))[0],
                }
                for tree in worst
            ],
        }
    return report


# -- Text rendering ------------------------------------------------------------


def _ms(ns):
    return f"{ns / 1e6:.3f}ms"


def format_critical_path(report):
    """Render a :func:`critical_path_report` as indented text."""
    if not report:
        return "no spans in capture (run with spans enabled)"
    lines = []
    for channel, block in report.items():
        duration = block["duration_ns"]
        head = (f"== channel {channel!r}: {block['complete']} requests"
                + (f" (+{block['open']} still open)" if block["open"]
                   else ""))
        lines.append(head)
        if duration.get("count"):
            lines.append(
                f"  end-to-end: p50 {_ms(duration['p50'])} "
                f"p99 {_ms(duration['p99'])} max {_ms(duration['max'])}")
        if block["tail_dominant"]:
            lines.append(
                f"  tail dominated by {block['tail_dominant']}: "
                f"{block['tail_dominant_pct']}% of worst-request time")
        for name, seg in block["segments"].items():
            lines.append(f"    {name}: {_ms(seg['total_ns'])} "
                         f"({seg['share_pct']}%)")
        for exemplar in block["exemplars"]:
            lines.append(
                f"  exemplar {exemplar['request']}: "
                f"{_ms(exemplar['duration_ns'])} "
                f"(dominant {exemplar['dominant']})")
    return "\n".join(lines)


def format_waterfall(tree, width=48):
    """Render one request's span tree as an ASCII waterfall."""
    begin = tree["begin_ns"]
    end = tree["end_ns"]
    if begin is None:
        return f"request {tree['request']!r}: no root span in capture"
    if end is None:
        end = max((span["end_ns"] or span["begin_ns"]
                   for span in tree["spans"]), default=begin)
    total = max(end - begin, 1)
    lines = [f"request {tree['request']!r} (channel "
             f"{tree.get('channel') or '?'}): "
             f"{_ms(end - begin)}"
             + ("" if tree["complete"] else " [incomplete capture]")]
    by_id = {span["span"]: span for span in tree["spans"]}

    def depth(span):
        n = 0
        while span.get("parent"):
            parent = by_id.get(span["parent"])
            if parent is None:
                break
            n += 1
            span = parent
        return n

    for span in sorted(tree["spans"],
                       key=lambda s: (s["begin_ns"], s["span"])):
        t0 = span["begin_ns"]
        t1 = span["end_ns"] if span["end_ns"] is not None else end
        lo = int(width * (t0 - begin) / total)
        hi = max(int(width * (t1 - begin) / total), lo + 1)
        bar = " " * lo + "#" * (hi - lo)
        pad = "  " * depth(span)
        open_note = "" if span["end_ns"] is not None else " (open)"
        lines.append(f"  [{bar:<{width}}] {pad}{span['name']} "
                     f"+{_ms(t0 - begin)} {_ms(t1 - t0)}{open_note}")
    if tree["parts"]:
        lines.append("  critical path:")
        for name, lo, hi in tree["parts"]:
            lines.append(f"    {name}: +{_ms(lo - begin)} "
                         f"for {_ms(hi - lo)}")
    return "\n".join(lines)
