"""The production-soak driver: one Scenario, one board, one summary.

This is the simulation shape the paper's Section 6.6 production story
rests on — bursty DP background at a fixed offered load, CP hum, tenant
latency probes against the accelerator, VM-creation storms through the
host/eNIC lifecycle, then a drain window for in-flight startups.  The
fleet runner, ``ext_production_soak`` and ``ext_multitenant`` all call
:func:`run_soak` with a :class:`~repro.scenario.spec.Scenario`.

Every load source on the board is a :class:`LoadSource`.  A tenant-less
scenario soaks one *implicit tenant*; a scenario that declares
``tenants`` gets one source per tenant from :mod:`repro.tenancy.soak`,
which also adds the per-tenant summary blocks and gauges.  Both run the
same loop below.

Determinism contract: the summary is a pure function of
``(scenario, seed, windows)`` — no wall clock, no process-global state.
The RNG stream names (:data:`IMPLICIT_STREAMS` for the implicit tenant)
and process names are part of that contract: they seed the per-purpose
substreams, so renaming them would silently re-draw every published
number.
"""

from repro.cp.device_mgmt import DeviceManager
from repro.hw.host import HostNode, VMSpec
from repro.hw.packet import IORequest, PacketKind
from repro.metrics import LatencyRecorder, QuantileSketch
from repro.metrics.sketch import DEFAULT_ALPHA
from repro.metrics.stats import attainment_pct, summarize
from repro.sim.units import MICROSECONDS, MILLISECONDS

#: Probe-sample retention; beyond this the recorder's reservoir keeps
#: percentiles honest but the summary stops shipping raw samples.
_SAMPLE_CAP = 50_000

#: ``WorkloadMix.dp_utilization`` is offered load relative to this nominal
#: DP partition size, so a board that repartitions CPUs (``dp_boost``, or
#: type-2 losing one to QEMU) sees the *same* total traffic spread over
#: its actual service count — capacity changes show up in latency, not in
#: offered work.  The implicit tenant probes this many nominal queues.
_NOMINAL_DP_SERVICES = 8

#: RNG stream names of the implicit tenant, by purpose.
IMPLICIT_STREAMS = {
    "dp": "dp-background",
    "cp": "cp-background",
    "probe": "fleet-probe",
    "storms": "fleet-storms",
    "devmgmt": "device-mgmt",
}


class LoadSource:
    """One source of soak load and the state its processes share.

    ``services``/``cp_affinity`` of ``None`` mean the whole board: the
    source's DP background covers every service, its probes target the
    nominal ``("net", q, 0)`` queues, and its host and CP hum use the
    deployment's CP affinity.  ``suffix`` tells its processes apart.
    ``account`` is the source's own :class:`ProbeAccount`, fed next to
    the pooled one; the implicit tenant has none, so each probe is
    recorded once.
    """

    def __init__(self, mix, traffic, dp_slo_us, streams=IMPLICIT_STREAMS,
                 suffix="", tenant=None, services=None, cp_affinity=None):
        self.mix = mix
        self.traffic = traffic
        self.dp_slo_us = dp_slo_us
        self.streams = streams
        self.suffix = suffix
        self.tenant = tenant
        self.services = services
        self.cp_affinity = cp_affinity
        self.host = None                  # built after warmup
        self.account = None


class ProbeAccount:
    """Probe latencies scored against one SLO.

    The sketch accumulates on every probe whether or not a bus drains
    interval deltas from it: with a bus it *is* the channel's cumulative
    sketch, so the summary's sketch is the same object either way.
    """

    def __init__(self, name, slo_us, bus, channel, alpha):
        self.recorder = LatencyRecorder(name=name, cap=_SAMPLE_CAP)
        self.slo_us = slo_us
        self.within = 0
        self.channel = bus.channel(channel) if bus is not None else None
        self.sketch = (self.channel.cumulative if self.channel is not None
                       else QuantileSketch(alpha))

    def record(self, latency_ns):
        self.recorder.record(latency_ns)
        latency_us = latency_ns / MICROSECONDS
        if latency_us <= self.slo_us:
            self.within += 1
        if self.channel is not None:
            self.channel.observe(latency_us)
        else:
            self.sketch.add(latency_us)

    def attainment_pct(self):
        return attainment_pct(self.within, self.recorder.count)


def startup_counts(vms, now_ns, slo_ns):
    """``(within, due, overdue_pending)`` VM startups at ``now_ns``.

    ``due`` is the SLO denominator: completed startups plus those still
    pending past the SLO.  A pending startup past the SLO is a violation
    even though it never produced a sample — a saturated control plane
    must not score 100% by finishing almost nothing.  Requests younger
    than the SLO are censored (they still had time), not counted.
    """
    within = due = overdue = 0
    for vm in vms:
        startup_ns = vm.startup_time_ns()
        if startup_ns is None:
            if now_ns - vm.request.t_issued > slo_ns:
                overdue += 1
                due += 1
            continue
        due += 1
        if startup_ns <= slo_ns:
            within += 1
    return within, due, overdue


def startup_block(vms, now_ns, slo_ns):
    """Startup SLO summary keys over ``vms``, plus the sorted samples (ms).

    A sketch of the samples must be built from this *sorted* list so its
    float ``sum`` is independent of VM completion order (and of whether
    a telemetry bus also streamed the same values as interval deltas).
    """
    startups_ms = sorted(
        vm.startup_time_ns() / MILLISECONDS for vm in vms
        if vm.startup_time_ns() is not None)
    within, due, overdue = startup_counts(vms, now_ns, slo_ns)
    block = {
        "startup_ms": summarize(startups_ms, qs=(50, 90, 99)),
        "startup_slo_ms": slo_ns / MILLISECONDS,
        "startup_within_slo": within,
        "startup_slo_total": due,
        "startup_overdue_pending": overdue,
        "startup_slo_attainment_pct": attainment_pct(within, due),
    }
    return block, startups_ms


def run_soak(scenario, seed=0, duration_ns=400 * MILLISECONDS,
             drain_ns=200 * MILLISECONDS, dp_slo_us=300.0, fault_scale=1.0,
             label="node", telemetry=None, spans=False, exemplar_k=None):
    """Soak one scenario and return its picklable summary dict.

    ``fault_scale`` compresses the scenario's fault plan alongside a
    scaled duration; ``label`` names the board in the summary and its
    probe recorder (the fleet runner passes the node id).  A scenario
    with ``tenants`` adds ``summary["tenants"]``/``summary["tenancy"]``
    (see :mod:`repro.tenancy.soak`); every other key is pooled over all
    load sources.

    ``telemetry`` is an optional
    :class:`~repro.obs.telemetry.TelemetryConfig`: when set (or when the
    scenario declares ``alerts``, which arms a default config), a
    :class:`~repro.obs.telemetry.TelemetryBus` samples the run on
    sim-time intervals — counter deltas, health gauges (run-queue depth,
    grant occupancy, probe health, running SLO attainment), and sketch
    deltas for dp rx-wait and VM-startup latency — and an
    :class:`~repro.obs.alerts.SLOMonitor` evaluates the scenario's alert
    rules against each snapshot.  Telemetry never changes the simulated
    schedule (ticks only read state), and the summary's quantile
    sketches accumulate identically with the bus on or off.

    ``spans=True`` enables causal request tracing
    (:class:`~repro.obs.spans.SpanTracker`): DP probe packets and VM
    startups carry correlation ids, the K worst requests per channel
    (``exemplar_k``, default 4) ship under ``summary["exemplars"]`` with
    their full critical-path decomposition, and raised alerts reference
    the worst live exemplar ids.  Span tracking only *reads* the flat
    event stream, so every other summary key is byte-identical to a
    spans-off run.
    """
    from repro.scenario.spec import TRAFFIC_PROFILES
    from repro.workloads.background import (
        start_cp_background, start_dp_background,
    )

    deployment = scenario.build(seed=seed, fault_scale=fault_scale)
    if spans:
        deployment.env.spans.enable(exemplar_k=exemplar_k)
    env = deployment.env
    board = deployment.board

    # Streaming telemetry (optional).  Scenario-declared alert rules
    # imply a bus even when the driver didn't ask for one, so SLO
    # monitoring is purely declarative.
    if telemetry is None and scenario.alerts is not None:
        from repro.obs.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(node_id=label)
    alpha = telemetry.alpha if telemetry else DEFAULT_ALPHA
    bus = None
    ring = None
    monitor = None
    jsonl_writer = None
    if telemetry is not None:
        from repro.obs.alerts import SLOMonitor
        from repro.obs.telemetry import (
            RingSeries, TelemetryBus, TelemetryJsonlWriter,
        )

        node_id = telemetry.node_id if telemetry.node_id != "node" else label
        bus = TelemetryBus(registry=env.metrics,
                           interval_ns=telemetry.interval_ns,
                           node_id=node_id, alpha=alpha)
        rules = scenario.alerts if scenario.alerts is not None \
            else telemetry.alerts
        if rules is not None:
            # The monitor subscribes first so exported snapshots carry
            # the interval's active alerts.
            monitor = bus.subscribe(SLOMonitor(
                rules=rules, tracer=env.tracer, node_id=node_id,
                exemplar_provider=env.spans if spans else None))
        ring = bus.subscribe(RingSeries(cap=telemetry.ring_cap))
        if telemetry.jsonl_path:
            jsonl_writer = bus.subscribe(TelemetryJsonlWriter(
                telemetry.jsonl_path, cap=telemetry.jsonl_cap,
                node_id=node_id))

    pooled = ProbeAccount(f"{label}-probe", dp_slo_us, bus, "dp_rx_wait_us",
                          alpha)
    tenants = None
    if scenario.tenants:
        from repro.tenancy.soak import TenantSoak

        tenants = TenantSoak(deployment, scenario, dp_slo_us, label, bus,
                             alpha)
        sources = tenants.sources
    else:
        sources = [LoadSource(scenario.workload, scenario.traffic, dp_slo_us)]

    for source in sources:
        mix = source.mix
        per_service_util = min(
            mix.dp_utilization * _NOMINAL_DP_SERVICES
            / len(deployment.services), 0.95)
        start_dp_background(
            deployment, utilization=per_service_util,
            burstiness=TRAFFIC_PROFILES[source.traffic],
            rng=deployment.rng.stream(source.streams["dp"]),
            queues=[service.queue_ids[0]
                    for service in source.services or deployment.services],
            label=f"dp-bg{source.suffix}", tenant=source.tenant)
        start_cp_background(
            deployment, n_monitors=mix.n_monitors,
            rolling_tasks=mix.rolling_tasks,
            rng=deployment.rng.stream(source.streams["cp"]),
            affinity=source.cp_affinity, name_prefix=source.tenant)
    deployment.warmup()

    for source in sources:
        manager = DeviceManager(
            board, source.cp_affinity or deployment.cp_affinity,
            rng=board.rng.stream(source.streams["devmgmt"]))
        source.host = HostNode(deployment, manager=manager,
                               services=source.services,
                               tenant_id=source.tenant)

    def latency_probe(source):
        accounts = (pooled,) if source.account is None \
            else (pooled, source.account)

        def record_probe(event):
            latency_ns = event.value.total_latency_ns
            for account in accounts:
                account.record(latency_ns)

        rng = deployment.rng.stream(source.streams["probe"])
        period_ns = source.mix.probe_period_us * MICROSECONDS
        queues = ([("net", queue, 0) for queue in range(_NOMINAL_DP_SERVICES)]
                  if source.services is None
                  else [service.queue_ids[0] for service in source.services])
        while True:
            queue_id = queues[int(rng.integers(0, len(queues)))]
            done = env.event()
            done.callbacks.append(record_probe)
            board.accelerator.submit(IORequest(
                PacketKind.NET_TX, 64, queue_id,
                service_ns=1_500, done=done, tenant=source.tenant))
            yield env.timeout(int(rng.exponential(period_ns)))

    def storm_source(source):
        mix = source.mix
        rng = deployment.rng.stream(source.streams["storms"])
        period_ns = mix.vm_period_ms * MILLISECONDS
        while True:
            yield env.timeout(int(rng.exponential(period_ns)))
            for _ in range(int(rng.integers(mix.vm_batch_min,
                                            mix.vm_batch_max + 1))):
                source.host.create_vm(VMSpec(n_vblks=mix.vm_vblks))

    for source in sources:
        env.process(latency_probe(source),
                    name=f"latency-probe{source.suffix}")
        env.process(storm_source(source),
                    name=f"storm-source{source.suffix}")

    def all_vms():
        return [vm for source in sources for vm in source.host.vms]

    slo_ns = sources[0].host.manager.params.startup_slo_ns
    if bus is not None:
        _wire_bus_gauges(bus, deployment, all_vms, pooled, slo_ns)
        if tenants is not None:
            tenants.add_gauges(bus, env, slo_ns)
        bus.attach(env)

    deployment.run(env.now + duration_ns)
    # Drain: give in-flight startups a grace window.
    deployment.run(env.now + drain_ns)
    if bus is not None:
        bus.close(env.now)

    dp_samples_us = [value / MICROSECONDS
                     for value in pooled.recorder.samples]
    dp_within = sum(1 for value in dp_samples_us if value <= dp_slo_us)
    vms = all_vms()
    startup, startups_ms = startup_block(vms, env.now, slo_ns)

    injector = deployment.fault_injector
    summary = {
        "node_id": label,
        "deployment": scenario.arm,
        "traffic": scenario.traffic,
        "seed": seed,
        "dp_samples_us": dp_samples_us,
        "dp_sample_count": pooled.recorder.count,
        "dp_latency_us": summarize(dp_samples_us, qs=(50, 90, 99, 99.9)),
        "dp_slo_us": dp_slo_us,
        "dp_within_slo": dp_within,
        "dp_slo_attainment_pct": attainment_pct(dp_within,
                                                len(dp_samples_us)),
        "startup_samples_ms": startups_ms,
        **startup,
        "vms_started": len(startups_ms),
        "vms_requested": len(vms),
        "faults": {
            "injected": injector.injected if injector else 0,
            "cleared": injector.cleared if injector else 0,
        },
        "dp_sketch": pooled.sketch.to_dict(),
        "dp_slo_total": len(dp_samples_us),
        "startup_sketch": QuantileSketch(alpha).extend(startups_ms).to_dict(),
        "engine": engine_summary(env),
    }
    if tenants is not None:
        summary.update(tenants.summary(env, slo_ns, alpha))
    if spans:
        # Only added when spans are on, so a spans-off summary (and its
        # fleet JSON) stays byte-identical to previous releases.
        summary["exemplars"] = env.spans.exemplars()
        summary["spans"] = {
            "completed": env.spans.roots_completed,
            "open": env.spans.open_spans(),
        }
    if bus is not None:
        summary["telemetry"] = {
            "intervals": bus.snapshots_emitted,
            "interval_ms": telemetry.interval_ms,
            "path": telemetry.jsonl_path,
            "ring_retained": len(ring),
            "alerts": monitor.summary() if monitor is not None else None,
        }
        if jsonl_writer is not None:
            summary["telemetry"]["path"] = jsonl_writer.finish()
    return summary


def engine_summary(env):
    """Deterministic engine self-profile for the summary ``engine`` block.

    Only wall-clock-free fields ship (no ``wall_time_s`` /
    ``events_per_wall_s``), keeping the fleet's byte-identity contract
    across ``--jobs`` levels.  These fields *do* depend on the engine
    mode — a stepped run processes the events a fast-forward run elides —
    which is exactly what the equivalence tests assert: summaries must be
    byte-identical outside this block, and
    ``stepped.events_processed == fast.events_processed +
    fast.events_skipped`` up to the handful of bookkeeping events each
    mode uniquely owns.
    """
    profile = env.profile()
    return {
        "events_processed": profile["events_processed"],
        "events_skipped": profile["events_skipped"],
        "fast_forward_windows": profile["fast_forward_windows"],
        "skipped_ratio": profile["skipped_ratio"],
        "scheduler": profile["scheduler"],
        "fast_forward": profile["fast_forward"],
    }


def _wire_bus_gauges(bus, deployment, all_vms, pooled, slo_ns):
    """Register board-health gauges and the VM-startup collector.

    Everything here *reads* simulation state — gauges and collectors
    must never mutate the schedule, or telemetry-on runs would diverge
    from telemetry-off runs.
    """
    env = deployment.env
    kernel = deployment.board.kernel
    taichi = deployment.taichi

    bus.add_gauge("rq_depth", lambda: sum(
        len(cpu.runqueue) for cpu in kernel.cpus.values()))
    if taichi is not None:
        scheduler = taichi.scheduler
        bus.add_gauge("grant_occupancy", lambda: sum(
            1 for grant in scheduler.active.values() if grant.active))
        bus.add_gauge("probe_health",
                      lambda: 0.0 if scheduler.probe_degraded else 1.0)
    else:
        # Baselines have no probe to lose; report steady health so the
        # same alert rules apply across arms.
        bus.add_gauge("probe_health", lambda: 1.0)
    bus.add_gauge("dp_slo_attainment_pct", pooled.attainment_pct)

    startup_channel = bus.channel("vm_startup_ms")
    seen = set()

    def collect_startups(now_ns):
        for vm in all_vms():
            if id(vm) in seen:
                continue
            startup_ns = vm.startup_time_ns()
            if startup_ns is None:
                continue
            seen.add(id(vm))
            startup_channel.observe(startup_ns / MILLISECONDS)

    bus.add_collector(collect_startups)
    # Collectors run before gauges at every tick, so counting live here
    # sees exactly the startups the collector just streamed.
    bus.add_gauge("startup_slo_attainment_pct", lambda: attainment_pct(
        *startup_counts(all_vms(), env.now, slo_ns)[:2]))
