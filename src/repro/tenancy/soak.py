"""Tenant policy of the soak: one load source per tenant.

:func:`repro.scenario.soak.run_soak` runs the same loop for every
scenario; when the scenario declares ``tenants`` it asks
:class:`TenantSoak` for the load sources instead of using the implicit
tenant.  :class:`TenantSoak` installs a
:class:`~repro.tenancy.manager.TenancyManager` and builds one
:class:`~repro.scenario.soak.LoadSource` per tenant: DP background on the
tenant's own rx queues, CP hum and VM-creation storms bound to the
tenant's CP affinity through the tenant's own
:class:`~repro.cp.device_mgmt.DeviceManager`, and latency probes tagged
with the tenant id.

The summary keeps every pooled key of a tenant-less soak (so fleet
aggregation and ``top`` work unchanged) and adds
``summary["tenants"][tid]`` blocks plus a ``summary["tenancy"]`` ledger
view.  Tenant blocks carry sketches and counts, never raw sample arrays
— they must stay cheap to ship through fleet JSON.

Determinism contract: per-tenant RNG streams are named
``tenant-<id>-{dp,cp,probe,storms}`` and ``device-mgmt-<id>``; renaming
them would re-draw every multi-tenant number.
"""

from repro.metrics import QuantileSketch
from repro.metrics.stats import attainment_pct, summarize
from repro.scenario.soak import (
    LoadSource, ProbeAccount, startup_block, startup_counts,
)
from repro.sim.units import MICROSECONDS

from repro.tenancy.manager import TenancyManager


class TenantSoak:
    """The tenant-specific parts of one soak, called by ``run_soak``.

    Each tenant's source has its own streams, services, CP affinity and
    probe account (with a ``tenant.<id>.dp_rx_wait_us`` bus channel);
    its workload, traffic and DP SLO default to the scenario's.
    """

    def __init__(self, deployment, scenario, dp_slo_us, label, bus, alpha):
        self.manager = TenancyManager(
            deployment, scenario.tenants,
            isolation=scenario.tenant_isolation).install()
        self.sources = []
        for runtime in self.manager.runtimes:
            spec = runtime.spec
            tid = runtime.tenant_id
            streams = {purpose: f"tenant-{tid}-{purpose}"
                       for purpose in ("dp", "cp", "probe", "storms")}
            streams["devmgmt"] = f"device-mgmt-{tid}"
            source = LoadSource(
                mix=spec.workload or scenario.workload,
                traffic=spec.traffic or scenario.traffic,
                dp_slo_us=(spec.dp_slo_us if spec.dp_slo_us is not None
                           else dp_slo_us),
                streams=streams, suffix=f"-{tid}", tenant=tid,
                services=runtime.services, cp_affinity=runtime.cp_affinity)
            source.account = ProbeAccount(
                f"{label}-probe-{tid}", source.dp_slo_us, bus,
                f"tenant.{tid}.dp_rx_wait_us", alpha)
            self.sources.append(source)

    def add_gauges(self, bus, env, slo_ns):
        """Per-tenant ``tenant.<id>.*`` gauges.

        Per-tenant gauge names make the declarative alert rules work
        unchanged: a rule on ``tenant.victim.dp_slo_attainment_pct``
        needs no alert-code support, just this naming convention.
        """
        for source, runtime in zip(self.sources, self.manager.runtimes):
            prefix = f"tenant.{source.tenant}"
            bus.add_gauge(f"{prefix}.dp_slo_attainment_pct",
                          source.account.attainment_pct)
            bus.add_gauge(f"{prefix}.startup_slo_attainment_pct",
                          lambda vms=source.host.vms: attainment_pct(
                              *startup_counts(vms, env.now, slo_ns)[:2]))
            bus.add_gauge(f"{prefix}.granted_ns",
                          lambda runtime=runtime: runtime.granted_ns)

    def summary(self, env, slo_ns, alpha):
        """The ``tenancy`` and ``tenants`` summary blocks."""
        return {
            "tenancy": {
                "isolation": self.manager.isolation,
                "total_granted_ns": self.manager.total_granted_ns,
            },
            "tenants": {
                source.tenant: _tenant_block(source, runtime, env, slo_ns,
                                             alpha)
                for source, runtime in zip(self.sources,
                                           self.manager.runtimes)
            },
        }


def _tenant_block(source, runtime, env, slo_ns, alpha):
    """One tenant's summary block: sketches and counts, no raw arrays."""
    account = source.account
    dp_samples_us = [value / MICROSECONDS
                     for value in account.recorder.samples]
    vms = source.host.vms
    startup, startups_ms = startup_block(vms, env.now, slo_ns)
    return {
        "weight": runtime.weight,
        "services": len(runtime.services),
        "vcpus": len(runtime.vcpus),
        "dp_sample_count": account.recorder.count,
        "dp_latency_us": summarize(dp_samples_us, qs=(50, 90, 99, 99.9)),
        "dp_slo_us": source.dp_slo_us,
        "dp_slo_declared": runtime.spec.dp_slo_us is not None,
        # Scored over every probe, not the capped sample reservoir.
        "dp_within_slo": account.within,
        "dp_slo_total": account.recorder.count,
        "dp_slo_attainment_pct": account.attainment_pct(),
        "dp_sketch": account.sketch.to_dict(),
        **startup,
        "startup_sketch": QuantileSketch(alpha).extend(startups_ms).to_dict(),
        "vms_started": len(startups_ms),
        "vms_requested": len(vms),
        "granted_ns": runtime.granted_ns,
        "grants": runtime.grants,
    }


def verify_tenant_summary(summary):
    """Cross-check a multi-tenant summary's books; returns problem strings.

    Checks (empty list = clean):

    * grant conservation — per-tenant ledgers sum to the board total;
    * sample accounting — within-SLO counts never exceed totals;
    * declared per-tenant DP SLOs hold at p99 when isolation is on.
    """
    problems = []
    tenants = summary.get("tenants")
    tenancy = summary.get("tenancy")
    if not tenants or tenancy is None:
        return ["summary carries no tenant blocks"]
    ledger_sum = sum(block["granted_ns"] for block in tenants.values())
    if ledger_sum != tenancy["total_granted_ns"]:
        problems.append(
            f"grant ledgers do not conserve: tenants sum to "
            f"{ledger_sum} ns but the board granted "
            f"{tenancy['total_granted_ns']} ns")
    for tid, block in tenants.items():
        if block["dp_within_slo"] > block["dp_slo_total"]:
            problems.append(
                f"tenant {tid!r}: dp_within_slo {block['dp_within_slo']} "
                f"exceeds dp_slo_total {block['dp_slo_total']}")
        if block["startup_within_slo"] > block["startup_slo_total"]:
            problems.append(
                f"tenant {tid!r}: startup_within_slo "
                f"{block['startup_within_slo']} exceeds startup_slo_total "
                f"{block['startup_slo_total']}")
        p99 = block["dp_latency_us"].get("p99")
        if (tenancy["isolation"] and block.get("dp_slo_declared")
                and p99 is not None and p99 > block["dp_slo_us"]):
            problems.append(
                f"tenant {tid!r}: dp rx-wait p99 {p99:.1f}us breaches its "
                f"declared SLO {block['dp_slo_us']:.1f}us despite "
                f"isolation")
    return problems
