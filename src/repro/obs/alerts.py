"""SLO alerting over the telemetry stream: rules-as-data with hysteresis.

An :class:`SLOMonitor` is a :class:`~repro.obs.telemetry.TelemetryBus`
subscriber that evaluates declarative :class:`AlertRule`\\ s against each
snapshot's flat signal namespace (:meth:`TelemetrySnapshot.signals`).
Rules live in scenario JSON (``"alerts": [...]``), so an experiment arm
declares its SLOs next to its workload, and a fault-injection run can
assert "the dp p99 alert raised during the storm and cleared after".

Hysteresis is the point: a rule fires only after ``hold`` consecutive
breaching intervals and clears only after ``clear_hold`` consecutive
healthy ones, so a single noisy interval neither pages nor flaps.  Every
transition is recorded as a paired ``alert.raised`` / ``alert.cleared``
trace event (board-level, cpu ``"-"``), which the invariant suite checks
for correct pairing (the ``alert_pairing``
:class:`~repro.obs.invariants.PairingChecker`).
"""

from dataclasses import dataclass, field

#: Comparison operators a rule may use; ``gt`` means "alert when the
#: signal is greater than the threshold".
_OPS = {
    "gt": lambda value, threshold: value > threshold,
    "ge": lambda value, threshold: value >= threshold,
    "lt": lambda value, threshold: value < threshold,
    "le": lambda value, threshold: value <= threshold,
}

_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule evaluated per telemetry interval.

    ``signal`` names an entry in the snapshot's flat signal namespace
    (``dp_rx_wait_us_p99``, ``startup_slo_attainment_pct``,
    ``probe_health`` ...).  ``min_count`` suppresses evaluation of
    sketch-derived signals until the interval saw that many samples
    (guards percentile rules against one-sample intervals); it checks
    the matching ``<channel>_count`` signal when the rule's signal is a
    ``_pXX`` / ``_mean`` derivation.
    """

    name: str
    signal: str
    threshold: float
    op: str = "gt"
    hold: int = 2
    clear_hold: int = 2
    severity: str = "warning"
    min_count: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("alert rule needs a name")
        if not self.signal:
            raise ValueError(f"alert rule {self.name!r} needs a signal")
        if self.op not in _OPS:
            raise ValueError(
                f"alert rule {self.name!r}: op must be one of "
                f"{sorted(_OPS)}, got {self.op!r}")
        if self.hold < 1 or self.clear_hold < 1:
            raise ValueError(
                f"alert rule {self.name!r}: hold/clear_hold must be >= 1")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"alert rule {self.name!r}: severity must be one of "
                f"{_SEVERITIES}, got {self.severity!r}")
        if self.min_count < 0:
            raise ValueError(
                f"alert rule {self.name!r}: min_count must be >= 0")

    def breaches(self, value):
        return _OPS[self.op](value, self.threshold)

    def count_signal(self):
        """The ``<channel>_count`` signal guarding this rule, if derivable."""
        for suffix in ("_mean",):
            if self.signal.endswith(suffix):
                return self.signal[:-len(suffix)] + "_count"
        head, sep, tail = self.signal.rpartition("_p")
        if sep and tail and tail.replace(".", "", 1).isdigit():
            return head + "_count"
        return None

    def to_dict(self):
        out = {"name": self.name, "signal": self.signal,
               "threshold": self.threshold}
        if self.op != "gt":
            out["op"] = self.op
        if self.hold != 2:
            out["hold"] = self.hold
        if self.clear_hold != 2:
            out["clear_hold"] = self.clear_hold
        if self.severity != "warning":
            out["severity"] = self.severity
        if self.min_count:
            out["min_count"] = self.min_count
        return out

    @classmethod
    def from_dict(cls, data):
        if isinstance(data, cls):
            return data
        known = {"name", "signal", "threshold", "op", "hold", "clear_hold",
                 "severity", "min_count"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"alert rule has unknown keys: {sorted(unknown)}")
        return cls(**data)


def normalize_alert_rules(rules):
    """Coerce a list of dicts/rules into AlertRules; reject duplicates."""
    out = [AlertRule.from_dict(rule) for rule in rules or ()]
    seen = set()
    for rule in out:
        if rule.name in seen:
            raise ValueError(f"duplicate alert rule name {rule.name!r}")
        seen.add(rule.name)
    return out


#: A sensible default rule set mirroring the paper's SLOs: dp rx-wait
#: tail, VM-startup attainment, and probe health.
DEFAULT_ALERT_RULES = (
    AlertRule(name="dp_rx_wait_p99_high", signal="dp_rx_wait_us_p99",
              threshold=300.0, op="gt", severity="critical", min_count=8),
    AlertRule(name="startup_slo_attainment_low",
              signal="startup_slo_attainment_pct", threshold=99.0, op="lt"),
    AlertRule(name="probe_degraded", signal="probe_health",
              threshold=1.0, op="lt", hold=1, severity="critical"),
)


def channel_for_signal(signal):
    """Map an alert signal name to its tail-exemplar span channel.

    ``dp_*`` signals (rx-wait sketches, attainment) trace back to DP
    packet spans; ``startup_*`` / ``vm_*`` signals to VM-startup spans.
    Signals with no per-request story (``probe_health``) map to None.
    """
    if signal.startswith("dp_"):
        return "dp"
    if signal.startswith(("startup_", "vm_")):
        return "vm"
    return None


@dataclass
class ActiveAlert:
    """Book-keeping for one currently-firing rule."""

    rule: AlertRule
    raised_ns: int
    value: float
    peak: float = field(default=0.0)

    def __post_init__(self):
        self.peak = self.value


class SLOMonitor:
    """Telemetry subscriber that raises/clears alerts with hysteresis.

    Subscribe it to a bus *before* exporters so emitted snapshots carry
    the interval's active alerts (the monitor appends rule names to
    ``snapshot.alerts``).  When a ``tracer`` is supplied, transitions
    are recorded as ``alert.raised`` / ``alert.cleared`` trace events.
    """

    def __init__(self, rules=None, tracer=None, node_id="node",
                 exemplar_provider=None):
        self.rules = normalize_alert_rules(
            rules if rules is not None else DEFAULT_ALERT_RULES)
        self.tracer = tracer
        self.node_id = node_id
        # When a span tracker (anything with ``worst_ids(channel)``) is
        # attached, raised alerts reference the worst live tail exemplars
        # of the signal's channel — the "which request" breadcrumb.
        self.exemplar_provider = exemplar_provider
        self.active = {}           # rule name -> ActiveAlert
        self.history = []          # closed alert dicts, in clear order
        self.raised_total = 0
        self.cleared_total = 0
        self.end_of_run_cleared = 0
        self._breach_streak = {rule.name: 0 for rule in self.rules}
        self._ok_streak = {rule.name: 0 for rule in self.rules}
        self._last_ts = 0
        self._finished = False

    # -- Evaluation --------------------------------------------------------------

    def on_snapshot(self, snapshot):
        signals = snapshot.signals()
        self._last_ts = snapshot.t_end_ns
        for rule in self.rules:
            self._evaluate(rule, signals, snapshot)
        for name in sorted(self.active):
            snapshot.alerts.append(name)

    def _evaluate(self, rule, signals, snapshot):
        value = signals.get(rule.signal)
        count_signal = rule.count_signal()
        if rule.min_count and count_signal is not None:
            if signals.get(count_signal, 0) < rule.min_count:
                value = None
        if value is None:
            # No data this interval: neither a breach nor evidence of
            # health — streaks freeze rather than reset or advance.
            return
        if rule.breaches(value):
            self._breach_streak[rule.name] += 1
            self._ok_streak[rule.name] = 0
            active = self.active.get(rule.name)
            if active is not None:
                worse = (value > active.peak if rule.op in ("gt", "ge")
                         else value < active.peak)
                if worse:
                    active.peak = value
            elif self._breach_streak[rule.name] >= rule.hold:
                self._raise(rule, value, snapshot)
        else:
            self._ok_streak[rule.name] += 1
            self._breach_streak[rule.name] = 0
            if (rule.name in self.active
                    and self._ok_streak[rule.name] >= rule.clear_hold):
                self._clear(rule, value, snapshot)

    def _raise(self, rule, value, snapshot):
        self.active[rule.name] = ActiveAlert(
            rule=rule, raised_ns=snapshot.t_end_ns, value=value)
        self.raised_total += 1
        if self.tracer is not None:
            detail = {
                "alert": rule.name, "signal": rule.signal, "value": value,
                "threshold": rule.threshold, "op": rule.op,
                "severity": rule.severity, "node": self.node_id,
            }
            exemplars = self._exemplars_for(rule.signal)
            if exemplars:
                detail["exemplars"] = exemplars
            self.tracer.record(snapshot.t_end_ns, "-", "alert.raised",
                               **detail)

    def _exemplars_for(self, signal):
        """Worst live exemplar request ids for the signal's channel."""
        if self.exemplar_provider is None:
            return []
        channel = channel_for_signal(signal)
        if channel is None:
            return []
        return list(self.exemplar_provider.worst_ids(channel))

    def _clear(self, rule, value, snapshot):
        active = self.active.pop(rule.name)
        duration_ns = snapshot.t_end_ns - active.raised_ns
        self.cleared_total += 1
        self.history.append({
            "alert": rule.name,
            "signal": rule.signal,
            "severity": rule.severity,
            "raised_ns": active.raised_ns,
            "cleared_ns": snapshot.t_end_ns,
            "duration_ns": duration_ns,
            "peak": active.peak,
        })
        if self.tracer is not None:
            self.tracer.record(
                snapshot.t_end_ns, "-", "alert.cleared",
                alert=rule.name, signal=rule.signal, value=value,
                threshold=rule.threshold, duration_ns=duration_ns,
                peak=active.peak, severity=rule.severity,
                node=self.node_id)

    # -- End of run --------------------------------------------------------------

    def finish(self, now_ns=None):
        """Emit synthetic ``alert.cleared`` events for still-active alerts.

        Called by :meth:`TelemetryBus.close` when the run ends: a soak
        that finishes mid-incident would otherwise leave its raise
        unpaired in the trace stream.  The synthetic clear is stamped
        ``end_of_run=True`` and does *not* touch :attr:`active` or the
        history — the summary still reports the incident as open; only
        the trace stream gets closure.  Idempotent.
        """
        if self._finished:
            return
        self._finished = True
        ts = self._last_ts if now_ns is None else max(now_ns, self._last_ts)
        for name in sorted(self.active):
            active = self.active[name]
            rule = active.rule
            self.end_of_run_cleared += 1
            if self.tracer is not None:
                self.tracer.record(
                    ts, "-", "alert.cleared",
                    alert=name, signal=rule.signal, value=None,
                    threshold=rule.threshold,
                    duration_ns=ts - active.raised_ns, peak=active.peak,
                    severity=rule.severity, node=self.node_id,
                    end_of_run=True)

    # -- Reporting ---------------------------------------------------------------

    def summary(self):
        """Plain-data rollup for run summaries and fleet shipping."""
        return {
            "rules": len(self.rules),
            "raised": self.raised_total,
            "cleared": self.cleared_total,
            "active": sorted(self.active),
            "history": list(self.history),
        }

    def __repr__(self):
        return (f"<SLOMonitor rules={len(self.rules)} "
                f"active={sorted(self.active)} raised={self.raised_total}>")
