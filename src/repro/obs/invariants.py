"""Streaming causal-invariant checkers for trace streams.

The simulator's causal story — every IPI delivered, every ``vmenter``
paired with a ``vmexit``, no thread on two CPUs at once — is encoded here
as small pluggable checkers.  Each checker consumes one event at a time,
so the same objects run **inline** during a simulation (hooked into a
tracer via :meth:`~repro.sim.environment.Environment.add_trace_hook` or
``observe(check_invariants=True)``) or **post-hoc** over a capture
(:func:`check_events`, or ``taichi-experiments analyze``).

Violations fail loudly: each carries the checker name, a precise message,
the offending event, and the events that led up to it.

Caveat for post-hoc runs: a ring-buffer capture that dropped its oldest
events may have lost the *begin* half of slice pairs, so pairing checkers
can report artifacts on truncated streams.  The analyzer surfaces the
drop count next to any violations; inline checking never has this
problem because hooks see events before the capacity policy drops them.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.obs.kinds import IPI_DROP_KINDS, KINDS


@dataclass
class Violation:
    """One invariant breach with enough context to debug it."""

    checker: str
    message: str
    event: object = None       # the offending TimelineEvent, if any
    context: tuple = ()        # recent events preceding the offender

    def to_dict(self):
        return {
            "checker": self.checker,
            "message": self.message,
            "event": str(self.event) if self.event is not None else None,
            "context": [str(event) for event in self.context],
        }

    def __str__(self):
        lines = [f"[{self.checker}] {self.message}"]
        for event in self.context:
            lines.append(f"    ... {event}")
        if self.event is not None:
            lines.append(f"    >>> {self.event}")
        return "\n".join(lines)


class InvariantChecker:
    """Base class: feed events through :meth:`observe`, then :meth:`finish`.

    Both return an iterable of :class:`Violation`.  Checkers are cheap,
    single-pass, and keep O(open-state) memory so they can run inline on
    multi-million-event streams.  :class:`InvariantEngine` feeds a
    checker only the ``kinds`` it declares; ``None`` means every event.
    """

    name = "invariant"
    kinds = None

    def observe(self, event):
        return ()

    def finish(self, last_ts_ns):
        """Called once after the stream ends; ``last_ts_ns`` is the final
        timestamp seen (0 for an empty stream)."""
        return ()


class MonotonicTimestamps(InvariantChecker):
    """Events must be recorded in non-decreasing timestamp order."""

    name = "monotonic_timestamps"

    def __init__(self):
        self._last_ts = None

    def observe(self, event):
        out = []
        if self._last_ts is not None and event.ts_ns < self._last_ts:
            out.append(Violation(
                self.name,
                f"timestamp went backwards: {event.ts_ns} ns after "
                f"{self._last_ts} ns",
                event,
            ))
        self._last_ts = max(event.ts_ns, self._last_ts or event.ts_ns)
        return out


class IpiDeliveryBound(InvariantChecker):
    """Every ``ipi_send`` must produce a matching ``ipi_deliver`` in time.

    Sends and delivers are matched FIFO per (destination CPU, vector).
    A delivery later than ``bound_ns`` after its send — or a send never
    delivered at all by ``bound_ns`` before stream end — is a violation.
    Deliveries without a send are legal (``IPIController.deliver`` is also
    the device-IRQ path and bypasses the send hook).
    """

    name = "ipi_delivery_bound"
    kinds = ("ipi_send", "ipi_deliver", "fault.ipi_delay", *IPI_DROP_KINDS)

    def __init__(self, bound_ns=1_000_000):
        self.bound_ns = int(bound_ns)
        self._pending = {}     # (dst, vector) -> deque of send events
        self._drop_credit = {}   # (dst, vector) -> drops seen before the send
        self._delay_grace = {}   # (dst, vector) -> injected extra latency, ns

    def observe(self, event):
        if event.kind == "ipi_send":
            key = (event.detail.get("dst"), event.detail.get("vector"))
            # A fault drop recorded just before this send (the orchestrator
            # hook runs — and may drop — before ``ipi_send`` is traced)
            # means this send will never be delivered, legitimately.
            if self._drop_credit.get(key, 0) > 0:
                self._drop_credit[key] -= 1
                return ()
            self._pending.setdefault(key, deque()).append(event)
            return ()
        if event.kind in IPI_DROP_KINDS:
            # Injected or offline drop: forgive the oldest in-flight send.
            key = (event.cpu_id, event.detail.get("vector"))
            queue = self._pending.get(key)
            if queue:
                queue.popleft()
            else:
                self._drop_credit[key] = self._drop_credit.get(key, 0) + 1
            return ()
        if event.kind == "fault.ipi_delay":
            key = (event.cpu_id, event.detail.get("vector"))
            self._delay_grace[key] = (
                self._delay_grace.get(key, 0)
                + int(event.detail.get("extra_ns", 0)))
            return ()
        key = (event.cpu_id, event.detail.get("vector"))  # ipi_deliver
        queue = self._pending.get(key)
        if not queue:
            return ()
        send = queue.popleft()
        dt = event.ts_ns - send.ts_ns
        if dt > self.bound_ns:
            # Injected delivery delays extend the bound; consume the grace.
            grace = self._delay_grace.get(key, 0)
            if grace > 0:
                used = min(grace, dt - self.bound_ns)
                self._delay_grace[key] = grace - used
                dt -= used
        if dt > self.bound_ns:
            return [Violation(
                self.name,
                f"IPI {key[1]!r} to cpu {key[0]!r} delivered {dt} ns after "
                f"send (bound {self.bound_ns} ns)",
                event,
                context=(send,),
            )]
        return ()

    def finish(self, last_ts_ns):
        out = []
        for (dst, vector), queue in sorted(
                self._pending.items(), key=lambda item: str(item[0])):
            grace = self._delay_grace.get((dst, vector), 0)
            for send in queue:
                overdue = last_ts_ns - send.ts_ns
                if overdue > self.bound_ns + grace:
                    out.append(Violation(
                        self.name,
                        f"IPI {vector!r} to cpu {dst!r} sent at "
                        f"{send.ts_ns} ns was never delivered "
                        f"({overdue} ns elapsed, bound {self.bound_ns} ns)",
                        send,
                    ))
        return out


#: Pairing checker name -> (begin kinds, message templates).  Templates
#: format with ``id`` (the last key value), ``kind`` (the offending
#: event's kind) and ``begin`` (its begin kind), plus ``stale_ts`` for a
#: repeated begin, ``ts`` for a begin open at stream end, and
#: ``field``/``got``/``want`` for an end that disagrees with its begin.
PAIRINGS = {
    "slice_pair_nesting": (("sched_in", "vmenter"), {
        "twice": "nested {kind} on cpu {id!r}: previous {kind} at "
                 "{stale_ts} ns never closed",
        "orphan": "unpaired {kind} on cpu {id!r}: no open {begin}",
        "mismatch": "{kind} on cpu {id!r} closes {field}={got!r} but the "
                    "open {begin} was {field}={want!r}",
    }),
    "fault_recovery": (("fault.injected",), {
        "twice": "fault {id!r} injected twice without an intervening clear",
        "orphan": "fault {id!r} cleared but never injected",
        "open": "fault {id!r} injected at {ts} ns was never cleared",
    }),
    "alert_pairing": (("alert.raised",), {
        "twice": "alert {id!r} raised twice without an intervening clear",
        "orphan": "alert {id!r} cleared but never raised",
    }),
    "span_pairing": (("span.begin",), {
        "twice": "span {id!r} begun twice without an end",
        "orphan": "span {id!r} ended but never begun",
    }),
}


class PairingChecker(InvariantChecker):
    """Begin/end pairs declared in :mod:`repro.obs.kinds` must pair up.

    ``name`` picks one family from :data:`PAIRINGS`.  Each begin is keyed
    on its catalog ``key`` fields: a second begin on an open key, an end
    with no open begin, or an end that disagrees with its begin on a
    ``match`` field is a violation.  A begin still open at stream end is
    one only where the catalog sets ``open_is_violation``: an injected
    fault never cleared means the injector lost its revert path, while a
    run may simply stop mid-slice, mid-incident or mid-request.
    """

    def __init__(self, name):
        self.name = name
        begins, self._messages = PAIRINGS[name]
        self._begins = {kind: KINDS[kind] for kind in begins}
        self._ends = {spec.end: spec for spec in self._begins.values()}
        self.kinds = (*self._begins, *self._ends)
        self._open = {}        # (begin kind, *key values) -> begin event

    @staticmethod
    def _key(spec, event):
        detail = event.detail
        return (spec.name, *[event.cpu_id if field == "cpu"
                             else detail.get(field) for field in spec.key])

    def _violation(self, message, key, event, context=(), **fields):
        text = self._messages[message].format(id=key[-1], kind=event.kind,
                                              **fields)
        return [Violation(self.name, text, event, context=context)]

    def observe(self, event):
        spec = self._begins.get(event.kind)
        if spec is not None:
            key = self._key(spec, event)
            stale = self._open.get(key)
            self._open[key] = event
            if stale is not None:
                return self._violation("twice", key, event, (stale,),
                                       stale_ts=stale.ts_ns)
            return self.begun(event)
        spec = self._ends[event.kind]
        key = self._key(spec, event)
        begin = self._open.pop(key, None)
        if begin is None:
            return self._violation("orphan", key, event, begin=spec.name)
        for field in spec.match:
            want, got = begin.detail.get(field), event.detail.get(field)
            if want != got:
                return self._violation("mismatch", key, event, (begin,),
                                       begin=spec.name, field=field,
                                       got=got, want=want)
        return self.ended(begin, event)

    def begun(self, event):
        """Family-specific checks on a first begin; returns violations."""
        return ()

    def ended(self, begin, event):
        """Family-specific checks on a matched end; returns violations."""
        return ()

    def finish(self, last_ts_ns):
        out = []
        for key in sorted(key for key in self._open
                          if self._begins[key[0]].open_is_violation):
            begin = self._open[key]
            until_ns = begin.detail.get("until_ns")
            if isinstance(until_ns, int) and last_ts_ns < until_ns:
                continue  # the capture simply ended inside the window
            out.extend(self._violation("open", key, begin, ts=begin.ts_ns))
        return out


class SingleCpuPerThread(InvariantChecker):
    """A thread may be running (``sched_in`` .. ``sched_out``) on at most
    one CPU at a time."""

    name = "single_cpu_per_thread"
    kinds = ("sched_in", "sched_out")

    def __init__(self):
        self._running = {}     # thread -> sched_in event

    def observe(self, event):
        if event.kind == "sched_in":
            thread = event.detail.get("thread")
            active = self._running.get(thread)
            self._running[thread] = event
            if active is not None and active.cpu_id != event.cpu_id:
                return [Violation(
                    self.name,
                    f"thread {thread!r} sched_in on cpu {event.cpu_id!r} "
                    f"while still running on cpu {active.cpu_id!r}",
                    event,
                    context=(active,),
                )]
        else:
            thread = event.detail.get("thread")
            active = self._running.get(thread)
            if active is not None and active.cpu_id == event.cpu_id:
                del self._running[thread]
        return ()


class IdleYieldThreshold(InvariantChecker):
    """``dp_idle_yield`` only after the empty-poll threshold was crossed.

    A service yields after waiting ``threshold * poll_ns`` with no
    traffic, so the yield must come at least that long after the CPU's
    previous slice end (``vmexit``) or previous yield.  A yield inside
    that budget means the threshold crossing was fabricated.
    """

    name = "idle_yield_threshold"
    kinds = ("vmexit", "dp_idle_yield")

    def __init__(self, poll_ns=200):
        self.poll_ns = int(poll_ns)
        self._floor = {}       # cpu -> last vmexit/dp_idle_yield event

    def observe(self, event):
        if event.kind == "vmexit":
            self._floor[event.cpu_id] = event
            return ()
        floor = self._floor.get(event.cpu_id)
        self._floor[event.cpu_id] = event
        threshold = event.detail.get("threshold")
        if floor is None or not isinstance(threshold, int):
            return ()
        budget_ns = max(threshold, 1) * self.poll_ns
        gap = event.ts_ns - floor.ts_ns
        if gap < budget_ns:
            return [Violation(
                self.name,
                f"dp_idle_yield on cpu {event.cpu_id!r} only {gap} ns "
                f"after {floor.kind} — threshold {threshold} needs "
                f"{budget_ns} ns of empty polling",
                event,
                context=(floor,),
            )]
        return ()


class RunQueueDepthConsistency(InvariantChecker):
    """``rq_depth`` samples must be plausible run-queue depths.

    Depths are non-negative integers, and the sample emitted right after
    an ``enqueue`` on the same CPU at the same instant must report at
    least the thread just queued.
    """

    name = "runqueue_depth"

    def __init__(self):
        self._prev = None      # immediately preceding event in the stream

    def observe(self, event):
        prev, self._prev = self._prev, event
        if event.kind != "rq_depth":
            return ()
        depth = event.detail.get("depth")
        if not isinstance(depth, int) or depth < 0:
            return [Violation(
                self.name,
                f"rq_depth on cpu {event.cpu_id!r} reports invalid depth "
                f"{depth!r}",
                event,
            )]
        if (prev is not None and prev.kind == "enqueue"
                and prev.cpu_id == event.cpu_id
                and prev.ts_ns == event.ts_ns and depth < 1):
            return [Violation(
                self.name,
                f"rq_depth 0 on cpu {event.cpu_id!r} immediately after an "
                f"enqueue at the same instant",
                event,
                context=(prev,),
            )]
        return ()


class SpanPairingChecker(PairingChecker):
    """Span pairing plus parent nesting.

    A child's begin must fall inside an open parent carrying the same
    request id, and a parent must not end while any of its children are
    still open.
    """

    def __init__(self):
        super().__init__("span_pairing")
        self._open_children = {}  # parent span id -> open child count

    def begun(self, event):
        detail = event.detail
        parent = detail.get("parent")
        if parent is None:
            return ()
        span_id = detail.get("span")
        parent_begin = self._open.get(("span.begin", parent))
        if parent_begin is None:
            return [Violation(
                self.name,
                f"span {span_id!r} begun under parent {parent!r} "
                f"which is not open",
                event,
            )]
        if parent_begin.detail.get("request") != detail.get("request"):
            return [Violation(
                self.name,
                f"span {span_id!r} (request "
                f"{detail.get('request')!r}) nests under parent "
                f"{parent!r} of request "
                f"{parent_begin.detail.get('request')!r}",
                event,
                context=(parent_begin,),
            )]
        self._open_children[parent] = self._open_children.get(parent, 0) + 1
        return ()

    def ended(self, begin, event):
        parent = begin.detail.get("parent")
        if parent is not None and self._open_children.get(parent):
            self._open_children[parent] -= 1
        span_id = event.detail.get("span")
        if self._open_children.pop(span_id, 0):
            return [Violation(
                self.name,
                f"span {span_id!r} ended while a child span is still open",
                event,
                context=(begin,),
            )]
        return ()


class TenantFairShareChecker(InvariantChecker):
    """A tenant is never chosen over a cheaper backlogged tenant.

    The weighted-fair vCPU pick (``tenant.pick`` events) must select the
    eligible tenant with the lowest weight-normalized granted time.  Each
    event carries the chosen tenant's normalized usage plus every
    backlogged (eligible-but-not-chosen) tenant's — picking a tenant whose
    usage exceeds a backlogged one's by more than ``slack_ns`` means a
    tenant ran ahead of its weighted share while another waited.  Silent
    on single-tenant streams.
    """

    name = "tenant_fair_share"
    kinds = ("tenant.pick",)

    def __init__(self, slack_ns=1_000):
        self.slack_ns = int(slack_ns)

    def observe(self, event):
        chosen = event.detail.get("tenant")
        usage_ns = event.detail.get("usage_ns", 0)
        out = []
        for other, other_usage in (event.detail.get("backlogged")
                                   or {}).items():
            if usage_ns > other_usage + self.slack_ns:
                out.append(Violation(
                    self.name,
                    f"tenant {chosen!r} (normalized usage {usage_ns} ns) "
                    f"was backed while backlogged tenant {other!r} had "
                    f"only {other_usage} ns — exceeds its weighted share",
                    event,
                ))
        return out


class TenantGrantConservation(InvariantChecker):
    """Grant ledgers conserve: every donated slice lands in exactly one
    tenant's ledger and the board total.

    ``tenant.grant`` events carry the slice, the tenant's running total
    and the board's running total; re-accumulating them must reproduce
    both.  A mismatch means accounting lost or double-counted a slice.
    Silent on single-tenant streams.
    """

    name = "tenant_grant_conservation"
    kinds = ("tenant.grant",)

    def __init__(self):
        self._per_tenant = {}
        self._total = 0

    def observe(self, event):
        tenant = event.detail.get("tenant")
        slice_ns = event.detail.get("ns", 0)
        expected_tenant = self._per_tenant.get(tenant, 0) + slice_ns
        expected_total = self._total + slice_ns
        self._per_tenant[tenant] = expected_tenant
        self._total = expected_total
        out = []
        if event.detail.get("tenant_total_ns") != expected_tenant:
            out.append(Violation(
                self.name,
                f"tenant {tenant!r} ledger reads "
                f"{event.detail.get('tenant_total_ns')} ns but its grants "
                f"sum to {expected_tenant} ns",
                event,
            ))
        if event.detail.get("total_ns") < expected_total:
            # The board total also counts slices of untagged vCPUs, so it
            # may run ahead of the tenant ledgers — never behind them.
            out.append(Violation(
                self.name,
                f"board grant total {event.detail.get('total_ns')} ns is "
                f"behind the sum of tenant grants ({expected_total} ns) — "
                f"a slice was double-attributed",
                event,
            ))
        return out


def default_checkers():
    """Fresh instances of the full checker catalog."""
    return [
        MonotonicTimestamps(),
        IpiDeliveryBound(),
        PairingChecker("slice_pair_nesting"),
        SingleCpuPerThread(),
        IdleYieldThreshold(),
        RunQueueDepthConsistency(),
        PairingChecker("fault_recovery"),
        PairingChecker("alert_pairing"),
        SpanPairingChecker(),
        TenantFairShareChecker(),
        TenantGrantConservation(),
    ]


@dataclass
class InvariantEngine:
    """Runs a set of checkers over one event stream.

    Feed events through :meth:`observe` (usable directly as a tracer
    hook), then call :meth:`finish` once for end-of-stream checks.  Each
    event goes only to the checkers that declare its kind.  Keeps a short
    ring of recent events and attaches it to each violation as context.
    """

    checkers: list = None
    context_events: int = 4
    max_violations: int = 1_000

    violations: list = field(default_factory=list, init=False)
    overflowed: int = field(default=0, init=False)

    def __post_init__(self):
        if self.checkers is None:
            self.checkers = default_checkers()
        self._recent = deque(maxlen=self.context_events)
        self._routes = {}      # kind -> checkers that declare it
        self._last_ts = 0
        self._finished = False

    def observe(self, event):
        kind = event.kind
        checkers = self._routes.get(kind)
        if checkers is None:
            checkers = self._routes[kind] = [
                checker for checker in self.checkers
                if checker.kinds is None or kind in checker.kinds]
        for checker in checkers:
            for violation in checker.observe(event):
                if not violation.context:
                    violation.context = tuple(self._recent)
                self._add(violation)
        self._recent.append(event)
        if event.ts_ns > self._last_ts:
            self._last_ts = event.ts_ns

    def finish(self):
        """End-of-stream checks; idempotent.  Returns all violations."""
        if not self._finished:
            self._finished = True
            for checker in self.checkers:
                for violation in checker.finish(self._last_ts):
                    self._add(violation)
        return self.violations

    def _add(self, violation):
        if len(self.violations) >= self.max_violations:
            self.overflowed += 1
            return
        self.violations.append(violation)


def check_events(events, checkers=None):
    """Post-hoc convenience: run checkers over ``events``, return violations."""
    engine = InvariantEngine(checkers=checkers)
    for event in events:
        engine.observe(event)
    return engine.finish()
