"""Multi-tenant isolation: noisy neighbors vs. a victim tenant (extension).

The paper schedules one implicit tenant per board; hyperscale SmartNICs
are shared.  This experiment pools one board among four tenants — a
weight-4 victim with a declared 300 us DP SLO and a moderate mix, plus
three weight-1 noisy neighbors running spiky incast traffic, a heavy CP
hum and dense storage-heavy VM-creation storms — and scores the victim
under three regimes over identical seeds and load:

* **Tai Chi, isolation on** — tenant-owned DP CPUs donate only to their
  own tenant's vCPUs and the shared CP pCPUs back tenants by weighted
  fair share; the isolation invariants (fair-share picks, grant-ledger
  conservation) are checked inline during this cell;
* **Tai Chi, isolation off** — the pre-tenancy tenancy-blind round-robin
  with accounting only: the measurable counterfactual;
* **static partition** — no harvesting at all, every tenant's CP work
  queues on the shared CP pCPUs.

The storm includes a hardware-probe outage spanning the measured
window.  With the probe dark, a donated slice runs to its full adaptive
expiry — and a backlogged neighbor's slices double up to 800 us — so
every vCPU squatting a victim DP CPU strands the victim's packets for
the whole slice.  Isolation-on keeps neighbors off the victim's CPUs
(only the victim's own short-sliced, frequently-halting vCPUs ever back
there), which is exactly the "rx-wait interference bound under faults"
invariant the tenancy layer promises.

The claim: isolation-on holds the victim's DP rx-wait p99 inside its
declared SLO and keeps startup attainment high while isolation-off
demonstrably breaches the p99 bound, and Tai Chi beats the static
partition on victim startup attainment either way.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.scenario import Scenario
from repro.scenario.soak import run_soak
from repro.sim.units import MILLISECONDS

_BASE_DURATION_NS = 500 * MILLISECONDS
_DRAIN_NS = 250 * MILLISECONDS
_VICTIM_SLO_US = 300.0

#: The probe goes dark just after warmup and stays dark through the whole
#: measured window (timestamps scale with ``fault_scale``).
_FAULTS = {
    "name": "tenant-probe-outage",
    "faults": [
        {"kind": "probe_outage", "at_ns": 10 * MILLISECONDS,
         "duration_ns": int(1.5 * _BASE_DURATION_NS)},
    ],
}


def _tenants():
    victim = {
        "tenant_id": "victim",
        "weight": 4.0,
        "dp_slo_us": _VICTIM_SLO_US,
        # No rolling (CPU-bound) tasks: the victim's own vCPU slices stay
        # short, so its self-interference under a dark probe stays far
        # below the SLO — the breach below is the neighbors' doing.
        "workload": {
            "dp_utilization": 0.25,
            "n_monitors": 1,
            "rolling_tasks": 0,
            "vm_period_ms": 100.0,
            "vm_batch_min": 1,
            "vm_batch_max": 2,
            "vm_vblks": 1,
        },
    }
    noisy = [
        {
            "tenant_id": f"noisy{index}",
            "weight": 1.0,
            "traffic": "spiky",
            "workload": {
                "dp_utilization": 0.60,
                "n_monitors": 6,
                "rolling_tasks": 6,
                "vm_period_ms": 40.0,
                "vm_batch_min": 6,
                "vm_batch_max": 10,
                "vm_vblks": 6,
            },
        }
        for index in range(3)
    ]
    return [victim] + noisy


def _cell(arm, isolation, duration_ns, seed, check_invariants=False):
    # Tai Chi cells run with the graceful-degradation layer installed (the
    # production posture): the probe monitor demotes to capped slices while
    # the probe is dark, bounding *self*-interference; the cross-tenant
    # stranding that remains is what the isolation flag governs.
    scenario = Scenario(arm=arm, traffic="bursty", faults=_FAULTS,
                        degradation=(arm == "taichi"), tenants=_tenants(),
                        tenant_isolation=isolation)
    soak = dict(seed=seed, duration_ns=duration_ns, drain_ns=_DRAIN_NS,
                fault_scale=duration_ns / _BASE_DURATION_NS,
                dp_slo_us=_VICTIM_SLO_US)
    violations = None
    if check_invariants:
        from repro.obs import observe

        with observe(check_invariants=True) as session:
            summary = run_soak(scenario, **soak)
        violations = len(session.violations())
    else:
        summary = run_soak(scenario, **soak)
    victim = summary["tenants"]["victim"]
    noisy_started = sum(
        block["vms_started"] for tid, block in summary["tenants"].items()
        if tid != "victim")
    return {
        "victim_dp_p99_us": victim["dp_latency_us"].get("p99", 0.0),
        "victim_dp_slo_pct": victim["dp_slo_attainment_pct"],
        "victim_startup_slo_pct": victim["startup_slo_attainment_pct"],
        "victim_vms_started": victim["vms_started"],
        "noisy_vms_started": noisy_started,
        "victim_granted_ms": victim["granted_ns"] / 1e6,
        "invariant_violations": violations,
    }


@register("ext_multitenant",
          "Multi-tenant isolation: noisy neighbors vs. victim", "extension")
def run(scale=1.0, seed=0):
    duration = scaled_duration(_BASE_DURATION_NS, scale,
                               floor_ns=200 * MILLISECONDS)
    isolated = _cell("taichi", True, duration, seed, check_invariants=True)
    shared = _cell("taichi", False, duration, seed)
    static = _cell("static", True, duration, seed)
    rows = [
        {"system": "Tai Chi, isolation on", **isolated},
        {"system": "Tai Chi, isolation off", **shared},
        {"system": "static partition", **static},
    ]
    return ExperimentResult(
        exp_id="ext_multitenant",
        title="Multi-tenant isolation: 3 noisy neighbors vs. victim tenant",
        paper_ref="extension",
        rows=rows,
        derived={
            "victim_dp_p99_on_us": isolated["victim_dp_p99_us"],
            "victim_dp_p99_off_us": shared["victim_dp_p99_us"],
            "interference_ratio":
                shared["victim_dp_p99_us"]
                / max(isolated["victim_dp_p99_us"], 1e-9),
            "victim_dp_slo_on_pct": isolated["victim_dp_slo_pct"],
            "victim_dp_slo_off_pct": shared["victim_dp_slo_pct"],
            "victim_startup_on_pct": isolated["victim_startup_slo_pct"],
            "victim_startup_off_pct": shared["victim_startup_slo_pct"],
            "victim_startup_static_pct": static["victim_startup_slo_pct"],
            "noisy_vms_on": isolated["noisy_vms_started"],
            "noisy_vms_static": static["noisy_vms_started"],
            "isolation_invariant_violations":
                isolated["invariant_violations"],
        },
        paper={
            "claim": (
                "extension: weighted-share isolation must hold the victim "
                "tenant's DP p99 inside its declared SLO under a "
                "3-neighbor VM storm that demonstrably breaches it with "
                "isolation off"
            ),
        },
    )
