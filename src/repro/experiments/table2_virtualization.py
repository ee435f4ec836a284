"""Table 2: type-1 vs type-2 vs Tai Chi architectural properties.

Structural properties (DP residency, OS count, IPC nativeness) read off
the deployment models; DP performance class measured with a short tcp_crr
run on each.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import overhead_pct
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_tcp_crr

PROPERTIES = {
    "taichi-vdp": {
        "label": "Type-1 (Xen-like; Tai Chi-vDP stand-in)",
        "dp_residency": "Guest (vCPU context)",
        "cp_residency": "Guest (vCPU context)",
        "os_count": 1,
        "dp_cp_ipc": "Native",
    },
    "type2": {
        "label": "Type-2 (QEMU+KVM)",
        "dp_residency": "SmartNIC OS",
        "cp_residency": "Guest OS",
        "os_count": 2,
        "dp_cp_ipc": "Broken (RPC required)",
    },
    "taichi": {
        "label": "Tai Chi (hybrid)",
        "dp_residency": "SmartNIC OS",
        "cp_residency": "SmartNIC OS (vCPU)",
        "os_count": 1,
        "dp_cp_ipc": "Native",
    },
}

#: Measured arms, in table order; ``run --arm`` narrows/extends the set
#: (arms without a PROPERTIES entry get a generic label).
DEFAULT_ARMS = ("taichi-vdp", "type2", "taichi")


@register("table2", "Virtualization architectures compared", "Table 2")
def run(scale=1.0, seed=0):
    duration = scaled_duration(30 * MILLISECONDS, scale)
    baseline = build("baseline", seed=seed)
    baseline.warmup()
    base_cps = run_tcp_crr(baseline, duration, n_connections=512)["cps"]
    rows = []
    for arm in arms_under_test(DEFAULT_ARMS):
        deployment = build(arm, seed=seed)
        deployment.warmup()
        cps = run_tcp_crr(deployment, duration, n_connections=512)["cps"]
        overhead = overhead_pct(cps, base_cps)
        props = PROPERTIES.get(arm, {
            "label": arm, "dp_residency": "-", "cp_residency": "-",
            "os_count": 1, "dp_cp_ipc": "-",
        })
        rows.append({
            "architecture": props["label"],
            "dp_residency": props["dp_residency"],
            "cp_residency": props["cp_residency"],
            "os_count": props["os_count"],
            "dp_cp_ipc": props["dp_cp_ipc"],
            "dp_overhead_pct": overhead,
        })
    return ExperimentResult(
        exp_id="table2",
        title="Type-1 vs type-2 vs hybrid virtualization",
        paper_ref="Table 2",
        rows=rows,
        paper={
            "type1_dp_perf": "Low (virtualization tax)",
            "type2_dp_perf": "Medium (2us scheduling latency + lost CPU)",
            "taichi_dp_perf": "High",
        },
    )
