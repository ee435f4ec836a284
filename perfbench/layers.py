"""Outside-in layer attribution: timing wrappers and per-layer counts.

The traced run wraps public functions of each ``repro`` package from
here, never from inside ``src/``.  A wrapped call is a span; a span's
*self* time is its duration minus the time its wrapped child spans
cover, so the self times of all spans partition the traced wall time
they enclose.  Work the engine runs as a ``sim`` process (the DP poll
loop, each CPU's main loop) is reachable only through
``Environment.run``, so its cost lands in ``sim.run.self_ms``.

Counts come from the public ``env.metrics.snapshot()`` sources and from
the soak or fleet summary, never from the wrappers.
"""

import importlib
import inspect
from time import perf_counter_ns

#: ``(layer, module, class or None, function)`` for every wrapped public
#: function.  ``None`` as the class means a module-level function, named
#: by the module it is looked up in at call time: callers bind imported
#: names in their own namespace, so the wrapper goes there.
WRAPPED = (
    ("sim", "repro.sim.environment", "Environment", "run"),
    ("sim", "repro.sim.store", "Store", "put"),
    ("sim", "repro.sim.store", "Store", "get_batch"),
    ("sim", "repro.sim.store", "Store", "when_nonempty"),
    ("kernel", "repro.kernel.kernel", "Kernel", "select_cpu"),
    ("kernel", "repro.kernel.kernel", "Kernel", "place_thread"),
    ("kernel", "repro.kernel.kernel", "Kernel", "wake_thread"),
    ("kernel", "repro.kernel.kernel", "Kernel", "steal_work"),
    ("kernel", "repro.kernel.kernel", "Kernel", "try_fill_idle"),
    ("kernel", "repro.kernel.runqueue", "RunQueue", "pick_next"),
    ("kernel", "repro.kernel.ipi", "IPIController", "send"),
    ("kernel", "repro.kernel.softirq", "SoftirqSubsystem", "run_pending"),
    ("hw", "repro.hw.accelerator", "Accelerator", "submit"),
    ("hw", "repro.hw.enic", "ENic", "submit"),
    ("hw", "repro.hw.port", "Link", "transfer"),
    ("hw", "repro.hw.probe", "HardwareWorkloadProbe", "on_packet"),
    ("cp", "repro.cp.device_mgmt", "DeviceManager", "submit"),
    ("core", "repro.core.vcpu_scheduler", "VCPUScheduler", "on_dp_idle"),
    ("core", "repro.core.sw_probe", "SoftwareWorkloadProbe", "notify_idle"),
    ("core", "repro.core.sw_probe", "SoftwareWorkloadProbe", "adapt"),
    ("core", "repro.core.ipi_orchestrator", "UnifiedIPIOrchestrator",
     "route"),
    ("virt", "repro.virt.vcpu", "VirtualCPU", "set_backing"),
    ("virt", "repro.virt.vcpu", "VirtualCPU", "revoke"),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "choose"),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "may_back"),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "note_grant"),
    ("obs", "repro.obs.tracer", "Tracer", "record"),
    ("obs", "repro.obs.spans", "SpanTracker", "observe"),
    ("obs", "repro.obs.spans", "SpanTracker", "attribute"),
    ("obs", "repro.obs.telemetry", "TelemetryBus", "tick"),
    ("metrics", "repro.metrics.sketch", "QuantileSketch", "add"),
    ("metrics", "repro.metrics.stats", "LatencyRecorder", "record"),
    ("scenario", "repro.scenario.spec", "Scenario", "build"),
    ("scenario", "repro.scenario.soak", None, "run_soak"),
    ("fleet", "repro.fleet.runner", None, "pool_outcomes"),
    ("fleet", "repro.fleet.report", None, "canonical_report"),
)

#: Layers whose summed self time is reported as ``<layer>.self_ms``.
#: The others have at most two wrapped functions, or none: ``dp`` and
#: ``faults`` run inside the engine loop.
TOTALLED_LAYERS = ("sim", "kernel", "hw", "core", "obs")

#: Spans that run once per repeat: only their self time is reported.
_ONCE_PER_REPEAT = ("sim.run", "scenario.Scenario.build", "scenario.run_soak",
                    "fleet.pool_outcomes", "fleet.canonical_report")

#: Every vCPU exit reason (``repro.virt.vmexit.VMExitReason`` values).
EXIT_REASONS = ("timeslice_expired", "hw_probe_irq", "halt", "ipi_send",
                "migration", "external")

#: Tenants of the ``tenant_storm`` board.
TENANTS = ("victim", "noisy")


def span_name(layer, cls, func):
    """Metric prefix of one wrapped function, e.g. ``kernel.Kernel.steal_work``.

    ``Environment.run`` is the engine loop and is named ``sim.run``.
    """
    if (cls, func) == ("Environment", "run"):
        return "sim.run"
    return ".".join(part for part in (layer, cls, func) if part)


class LayerClock:
    """Installs the timing wrappers and keeps ``[calls, self_ns]`` per span."""

    def __init__(self, only_layers=None):
        self.only_layers = only_layers
        self.stats = {}
        self._stack = []

    def install(self):
        for layer, module_name, cls_name, func in WRAPPED:
            if self.only_layers is not None and layer not in self.only_layers:
                continue
            name = span_name(layer, cls_name, func)
            self.stats[name] = [0, 0]
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            setattr(owner, func, self._wrap(owner.__dict__[func], name))
        return self

    def _wrap(self, fn, name):
        stat = self.stats[name]
        stack = self._stack

        def close(start):
            elapsed = perf_counter_ns() - start
            stat[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

        if inspect.isgeneratorfunction(fn):
            def timed_generator(*args, **kwargs):
                stat[0] += 1
                gen = fn(*args, **kwargs)
                value, error = None, None
                while True:
                    start = perf_counter_ns()
                    stack.append(0)
                    try:
                        if error is None:
                            out = gen.send(value)
                        else:
                            out = gen.throw(error)
                    except StopIteration as stop:
                        close(start)
                        return stop.value
                    except BaseException:
                        close(start)
                        raise
                    close(start)
                    value, error = None, None
                    try:
                        value = yield out
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        error = exc
            return timed_generator

        def timed(*args, **kwargs):
            stat[0] += 1
            start = perf_counter_ns()
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(start)
        return timed

    def metrics(self):
        """Calls and self time of every installed span, plus layer totals."""
        out = {}
        totals = dict.fromkeys(TOTALLED_LAYERS, 0)
        for name, (calls, self_ns) in self.stats.items():
            if name not in _ONCE_PER_REPEAT:
                out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ns / 1e6
            layer = name.split(".")[0]
            if layer in totals:
                totals[layer] += self_ns
        for layer, self_ns in totals.items():
            out[f"{layer}.self_ms"] = self_ns / 1e6
        return out


#: Per-layer counts, unit budgets and derived figures, with their units.
COUNTS = {
    "sim.events_processed": "count",
    "sim.events_skipped": "count",
    "sim.skipped_ratio": "ratio",
    "sim.heap_peak": "count",
    "sim.events_per_packet": "ratio",
    "sim.host_us_per_event": "us",
    "kernel.context_switches": "count",
    "kernel.steals": "count",
    "kernel.softirq_runs": "count",
    "kernel.ipi_sent": "count",
    "kernel.busy_ratio": "ratio",
    "kernel.sched_latency_p99_ns": "ns",
    "kernel.select_cpu_per_switch": "ratio",
    "hw.accelerator_packets": "count",
    "hw.probe_packets_inspected": "count",
    "hw.probe_irqs_fired": "count",
    "dp.packets_processed": "count",
    "dp.processing_ns": "ns",
    "dp.idle_notifications": "count",
    "dp.idle_yields": "count",
    "cp.vms_requested": "count",
    "cp.vms_started": "count",
    "cp.sim_vm_startup_p90_ms": "ms",
    "cp.sim_startup_slo_pct": "%",
    "core.slices_run": "count",
    **{f"core.exits.{reason}": "count" for reason in EXIT_REASONS},
    "core.window_hits": "count",
    "core.window_misses": "count",
    "core.window_hit_ratio": "ratio",
    "core.premature_exits": "count",
    "core.lock_safe_migrations": "count",
    "virt.switch_overhead_ns": "ns",
    "tenancy.total_granted_ns": "ns",
    **{f"tenancy.grants.{tenant}": "count" for tenant in TENANTS},
    "tenancy.victim_dp_p99_us": "us",
    "tenancy.victim_dp_slo_pct": "%",
    "faults.injected": "count",
    "faults.cleared": "count",
    "obs.trace_records": "count",
    "obs.telemetry_intervals": "count",
    "obs.spans_completed": "count",
    "obs.invariant_violations": "count",
    "fleet.nodes_ok": "count",
    "fleet.nodes_failed": "count",
    "fleet.retries": "count",
    "fleet.report_bytes": "B",
    "fleet.node_host_s": "s",
    "fleet.host_s": "s",
    "fleet.parallel_efficiency": "ratio",
    "bench.trace_overhead_pct": "%",
}


def catalogue():
    """Every per-layer metric the traced run prints, with its unit."""
    names = {}
    for layer, _module, cls, func in WRAPPED:
        name = span_name(layer, cls, func)
        if name not in _ONCE_PER_REPEAT:
            names[f"{name}.calls"] = "count"
        names[f"{name}.self_ms"] = "ms"
    for layer in TOTALLED_LAYERS:
        names[f"{layer}.self_ms"] = "ms"
    names.update(COUNTS)
    return names


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, counts, plain_wall_s, traced_wall_s):
    """``{name: (value, unit)}`` for the whole catalogue.

    ``spans`` come from :meth:`LayerClock.metrics` of the traced repeat
    and ``counts`` from its summary (identical to the untraced one's);
    host time per event uses the untraced repeat.  A layer the workload
    does not run reads 0.
    """
    units = catalogue()
    values = dict.fromkeys(units, 0)
    values.update(spans)
    values.update(counts)
    events = values["sim.events_processed"]
    values["sim.events_per_packet"] = ratio(events,
                                            values["hw.accelerator_packets"])
    values["sim.host_us_per_event"] = ratio(plain_wall_s * 1e6, events)
    values["kernel.select_cpu_per_switch"] = ratio(
        values["kernel.Kernel.select_cpu.calls"],
        values["kernel.context_switches"])
    values["bench.trace_overhead_pct"] = (
        100 * (traced_wall_s - plain_wall_s) / plain_wall_s)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    return {name: (values[name], unit) for name, unit in units.items()}


def _sources(snapshot, prefix):
    return [source for name, source in snapshot["sources"].items()
            if name.split("#")[0].startswith(prefix)]


def _one(snapshot, prefix):
    found = _sources(snapshot, prefix)
    return found[0] if found else {}


def soak_counts(snapshot, summary, violations, tracer, stops):
    """Per-layer counts of one soak from its metrics snapshot and summary.

    ``stops`` is the number of stop events the benchmark's slice timing
    added to the engine's queue; the event counts leave them out.
    """
    engine = _one(snapshot, "sim.engine")
    events = engine.get("events_processed", 0) - stops
    skipped = engine.get("events_skipped", 0)
    board = _one(snapshot, "board.")
    kernel = _one(snapshot, "kernel.")
    vcpu = _one(snapshot, "core.vcpu_scheduler")
    injector = _one(snapshot, "faults.injector")
    dp = _sources(snapshot, "dp.")
    busy = kernel.get("busy_ns", 0)
    hits = vcpu.get("window_hits", 0)
    misses = vcpu.get("window_misses", 0)
    exits = vcpu.get("exits", {})
    tenants = summary.get("tenants", {})
    counts = {
        "sim.events_processed": events,
        "sim.events_skipped": skipped,
        "sim.skipped_ratio": ratio(skipped, events + skipped),
        "sim.heap_peak": engine.get("heap_peak", 0),
        "kernel.context_switches": kernel.get("context_switches", 0),
        "kernel.steals": kernel.get("steals", 0),
        "kernel.softirq_runs": kernel.get("softirq_runs", 0),
        "kernel.ipi_sent": kernel.get("ipi_sent", 0),
        "kernel.busy_ratio": ratio(busy, busy + kernel.get("idle_ns", 0)),
        "kernel.sched_latency_p99_ns":
            kernel.get("sched_latency", {}).get("p99", 0.0),
        "hw.accelerator_packets": board.get("accelerator_packets", 0),
        "hw.probe_packets_inspected": board.get("probe_packets_inspected", 0),
        "hw.probe_irqs_fired": board.get("probe_irqs_fired", 0),
        "dp.packets_processed": sum(s.get("packets_processed", 0)
                                    for s in dp),
        "dp.processing_ns": sum(s.get("processing_ns", 0) for s in dp),
        "dp.idle_notifications": sum(s.get("idle_notifications", 0)
                                     for s in dp),
        "dp.idle_yields": snapshot["counters"].get("dp.idle_yields", 0),
        **startup_counts(summary),
        "core.slices_run": vcpu.get("slices_run", 0),
        "core.window_hits": hits,
        "core.window_misses": misses,
        "core.window_hit_ratio": ratio(hits, hits + misses),
        "core.premature_exits": vcpu.get("premature_exits", 0),
        "core.lock_safe_migrations": vcpu.get("lock_safe_migrations", 0),
        "virt.switch_overhead_ns": vcpu.get("switch_overhead_ns", 0),
        "tenancy.total_granted_ns":
            (summary.get("tenancy") or {}).get("total_granted_ns", 0),
        "faults.injected": injector.get("faults_injected", 0),
        "faults.cleared": injector.get("faults_cleared", 0),
        "obs.trace_records": (len(tracer.events) + tracer.dropped
                              if tracer is not None else 0),
        "obs.telemetry_intervals":
            (summary.get("telemetry") or {}).get("intervals", 0),
        "obs.spans_completed":
            (summary.get("spans") or {}).get("completed", 0),
        "obs.invariant_violations": violations,
    }
    for reason in EXIT_REASONS:
        counts[f"core.exits.{reason}"] = exits.get(reason, 0)
    for tenant in TENANTS:
        counts[f"tenancy.grants.{tenant}"] = tenants.get(tenant, {}).get(
            "grants", 0)
    if "victim" in tenants:
        victim = tenants["victim"]
        counts["tenancy.victim_dp_p99_us"] = victim["dp_latency_us"].get(
            "p99", 0.0)
        counts["tenancy.victim_dp_slo_pct"] = victim["dp_slo_attainment_pct"]
    return counts


def startup_counts(block):
    """VM-startup results of one soak summary or fleet aggregate block."""
    return {
        "cp.vms_requested": block["vms_requested"],
        "cp.vms_started": block["vms_started"],
        "cp.sim_vm_startup_p90_ms": block["startup_ms"].get("p90", 0.0),
        "cp.sim_startup_slo_pct": block["startup_slo_attainment_pct"],
    }


def fleet_counts(report, stops):
    """Per-layer counts of one fleet run, summed over its node summaries.

    Node summaries ship only deterministic counters, so layers whose
    counts live in a node's metrics sources read 0 here.  ``stops`` is
    as in :func:`soak_counts`, summed over the nodes.
    """
    nodes = report["nodes"]
    events = sum(node["metrics"]["engine_events"] for node in nodes) - stops
    skipped = sum(node["metrics"]["engine_events_skipped"] for node in nodes)
    return {
        "sim.events_processed": events,
        "sim.events_skipped": skipped,
        "sim.skipped_ratio": ratio(skipped, events + skipped),
        "dp.idle_yields": sum(node["metrics"]["counters"].get(
            "dp.idle_yields", 0) for node in nodes),
        **startup_counts(report["aggregate"]["fleet"]),
        "faults.injected": sum(node["faults"]["injected"] for node in nodes),
        "faults.cleared": sum(node["faults"]["cleared"] for node in nodes),
    }
