"""The fault injector: applies a :class:`FaultPlan` to a live deployment.

Each fault window opens with a traced ``fault.injected`` event (carrying a
stable ``fault`` id) and closes with a matching ``fault.cleared`` — the
pairing the ``fault_recovery``
:class:`~repro.obs.invariants.PairingChecker` verifies.
Effects go through the simulation's real seams:

* ``ipi_drop``/``ipi_delay`` — a fault hook on :class:`IPIController`'s
  delivery chokepoint (every IPI, routed or not, passes through it);
* ``probe_outage``/``probe_flaky`` — the hardware workload probe's enable
  bit, a suppression veto, and spurious preempt IRQs;
* ``accel_stall`` — the accelerator's pipeline-stall horizon;
* ``vcpu_cost_spike`` — the live :class:`~repro.virt.costs.VirtCosts`;
* ``cpu_offline`` — real CPU hotplug (``kernel.offline_cpu`` then boot
  IPIs, which lossy-IPI windows can kill);
* ``dp_stall`` — a non-preemptible stall injected into a DP poll loop.

Every random decision draws from per-kind named streams of the
deployment's seeded :class:`~repro.sim.rng.RandomStreams`, so a fixed
seed reproduces the identical fault trace.
"""

from collections import Counter

from repro.faults.plan import FaultPlan
from repro.kernel.cpu import CpuState


class FaultInjector:
    """Arms the faults of one plan against one deployment."""

    def __init__(self, deployment, plan):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(faults=list(plan))
        self.deployment = deployment
        self.plan = plan
        self.env = deployment.env
        self.board = deployment.board
        self.kernel = deployment.board.kernel

        rng_root = deployment.rng.spawn("fault-injector")
        self._ipi_rng = rng_root.stream("ipi")
        self._probe_rng = rng_root.stream("probe")

        self.injected = 0
        self.cleared = 0
        self.by_kind = Counter()
        self._active = {}          # fault_id -> FaultSpec
        self._armed = False
        self._base_costs = None    # (vmenter_ns, vmexit_ns) at arm time

    # -- Arming ---------------------------------------------------------------

    def arm(self):
        """Schedule every fault occurrence; idempotent per injector."""
        if self._armed:
            return self
        self._armed = True
        self.kernel.ipi.set_fault_hook(self._ipi_fault)
        probe = self.board.hw_probe
        if probe is not None:
            probe.veto = self._probe_veto
        taichi = getattr(self.deployment, "taichi", None)
        if taichi is not None:
            costs = taichi.config.costs
            self._base_costs = (costs.vmenter_ns, costs.vmexit_ns)
        for index, spec in enumerate(self.plan.faults):
            for occurrence, start_ns in enumerate(spec.occurrences()):
                fault_id = f"{spec.kind}-{index}.{occurrence}"
                self._at(start_ns, lambda s=spec, f=fault_id: self._begin(s, f))
        self.env.metrics.add_source("faults.injector", self.stats)
        return self

    def _at(self, when_ns, action):
        delay = max(when_ns - self.env.now, 0)
        self.env.timeout(delay).callbacks.append(lambda _event: action())

    # -- Window lifecycle -----------------------------------------------------

    def _begin(self, spec, fault_id):
        apply = getattr(self, f"_apply_{spec.kind}")
        detail = apply(spec, fault_id)
        if detail is None:
            return  # not applicable to this deployment; nothing injected
        self.injected += 1
        self.by_kind[spec.kind] += 1
        self._active[fault_id] = spec
        self._record("fault.injected", detail.pop("cpu", "-"),
                     fault=fault_id, fault_kind=spec.kind,
                     until_ns=self.env.now + spec.duration_ns, **detail)
        if spec.duration_ns:
            self._at(self.env.now + spec.duration_ns,
                     lambda: self._end(spec, fault_id))
        else:
            self._end(spec, fault_id)

    def _end(self, spec, fault_id):
        if self._active.pop(fault_id, None) is None:
            return
        revert = getattr(self, f"_revert_{spec.kind}", None)
        detail = revert(spec, fault_id) if revert is not None else {}
        self.cleared += 1
        self._record("fault.cleared", (detail or {}).pop("cpu", "-"),
                     fault=fault_id, fault_kind=spec.kind, **(detail or {}))

    def _active_specs(self, kind):
        return [spec for spec in self._active.values() if spec.kind == kind]

    # -- IPI drop / delay -----------------------------------------------------

    def _apply_ipi_drop(self, spec, fault_id):
        return {"prob": spec.params.get("prob", 0.5)}

    def _apply_ipi_delay(self, spec, fault_id):
        return {"prob": spec.params.get("prob", 0.5),
                "delay_ns": spec.params.get("delay_ns", 30_000)}

    def _ipi_fault(self, dst_cpu, vector, payload):
        """IPIController fault hook: None, ('drop',) or ('delay', ns)."""
        drop_prob = max(
            (spec.params.get("prob", 0.5)
             for spec in self._active_specs("ipi_drop")), default=0.0)
        if drop_prob and self._ipi_rng.random() < drop_prob:
            return ("drop",)
        best = None
        for spec in self._active_specs("ipi_delay"):
            if self._ipi_rng.random() < spec.params.get("prob", 0.5):
                extra = int(spec.params.get("delay_ns", 30_000))
                best = extra if best is None else max(best, extra)
        if best is not None:
            return ("delay", best)
        return None

    # -- Hardware-probe outage / flakiness ------------------------------------

    def _apply_probe_outage(self, spec, fault_id):
        probe = self.board.hw_probe
        if probe is None:
            return None
        probe.enabled = False
        return {}

    def _revert_probe_outage(self, spec, fault_id):
        probe = self.board.hw_probe
        if not self._active_specs("probe_outage"):
            probe.enabled = True
        return {}

    def _apply_probe_flaky(self, spec, fault_id):
        probe = self.board.hw_probe
        if probe is None:
            return None
        period = int(spec.params.get("spurious_period_ns", 10_000))
        until_ns = self.env.now + spec.duration_ns
        self.env.process(self._spurious_loop(fault_id, period, until_ns),
                         name=f"fault-{fault_id}")
        return {"suppress_prob": spec.params.get("suppress_prob", 0.25)}

    def _probe_veto(self, dst_cpu_id):
        """Suppress a real V-state probe IRQ (false negative)?"""
        prob = max(
            (spec.params.get("suppress_prob", 0.25)
             for spec in self._active_specs("probe_flaky")), default=0.0)
        if prob and self._probe_rng.random() < prob:
            self._record("fault.probe_suppress", dst_cpu_id)
            return True
        return False

    def _spurious_loop(self, fault_id, period_ns, until_ns):
        """Fire false-positive preempt IRQs at V-state CPUs (misprediction)."""
        probe = self.board.hw_probe
        while self.env.now < until_ns and fault_id in self._active:
            yield self.env.timeout(period_ns)
            for cpu_id in probe.v_state_cpus():
                if probe.fire_spurious(cpu_id):
                    self._record("fault.probe_spurious", cpu_id)

    # -- Accelerator pipeline stall -------------------------------------------

    def _apply_accel_stall(self, spec, fault_id):
        accel = self.board.accelerator
        accel.stall_until_ns = max(accel.stall_until_ns,
                                   self.env.now + spec.duration_ns)
        return {"duration_ns": spec.duration_ns}

    # -- vCPU enter/exit cost spike -------------------------------------------

    def _apply_vcpu_cost_spike(self, spec, fault_id):
        if self._base_costs is None:
            return None
        self._recompute_costs(extra=spec.params.get("factor", 8.0))
        return {"factor": spec.params.get("factor", 8.0)}

    def _revert_vcpu_cost_spike(self, spec, fault_id):
        self._recompute_costs()
        return {}

    def _recompute_costs(self, extra=None):
        costs = self.deployment.taichi.config.costs
        factor = extra if extra is not None else 1.0
        for spec in self._active_specs("vcpu_cost_spike"):
            factor = max(factor, spec.params.get("factor", 8.0))
        base_enter, base_exit = self._base_costs
        costs.vmenter_ns = int(base_enter * factor)
        costs.vmexit_ns = int(base_exit * factor)

    # -- CPU hotplug storm ----------------------------------------------------

    def _resolve_cpu(self, spec):
        target = spec.params.get("cpu", "cp")
        if isinstance(target, str) and target.startswith("cp"):
            # "cp" is the last CP pCPU; "cp:<index>" indexes cp_cpu_ids.
            index = int(target[3:]) if target.startswith("cp:") else -1
            target = self.board.cp_cpu_ids[index]
        service_cpus = {service.cpu_id
                        for service in self.deployment.services}
        if target in service_cpus:
            return None  # never yank a CPU out from under a pinned poller
        return target

    def _apply_cpu_offline(self, spec, fault_id):
        cpu_id = self._resolve_cpu(spec)
        if cpu_id is None:
            return None
        self.kernel.offline_cpu(cpu_id)
        return {"cpu": cpu_id}

    def _revert_cpu_offline(self, spec, fault_id):
        cpu_id = self._resolve_cpu(spec)
        if cpu_id is None:
            return {}
        cpu = self.kernel.cpus[cpu_id]
        if cpu.state in (CpuState.OFFLINE, CpuState.BOOTING):
            # Recovery attempt: boot IPIs, which may themselves be dropped
            # by an overlapping ipi_drop window.  Without IPI retry the
            # CPU then stays down — exactly the degradation story.
            self.kernel.boot_cpu(cpu_id)
        return {"cpu": cpu_id}

    # -- DP service stall -----------------------------------------------------

    def _apply_dp_stall(self, spec, fault_id):
        services = self.deployment.services
        if not services:
            return None
        service = services[int(spec.params.get("service", 0)) % len(services)]
        stall_ns = int(spec.params.get("stall_ns", 2_000_000))
        service.inject_stall(stall_ns)
        return {"cpu": service.cpu_id, "service": service.name,
                "stall_ns": stall_ns}

    # -- Bookkeeping ----------------------------------------------------------

    def _record(self, kind, cpu_id, **detail):
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.record(self.env.now, cpu_id, kind, **detail)

    def stats(self):
        return {
            "plan": self.plan.name,
            "faults_injected": self.injected,
            "faults_cleared": self.cleared,
            "by_kind": dict(self.by_kind),
            "active": len(self._active),
            "ipi_dropped": self.kernel.ipi.dropped_fault,
            "ipi_delayed": self.kernel.ipi.delayed_fault,
        }

    def __repr__(self):
        return (f"<FaultInjector plan={self.plan.name!r} "
                f"injected={self.injected} active={len(self._active)}>")
