"""Figure 12: netperf tcp_crr across the four virtualization designs.

Compares connections/s and rx/tx pps for: static baseline, Tai Chi,
Tai Chi-vDP (type-1 stand-in: DP in vCPU contexts), and QEMU+KVM type-2.
The paper reports ~8 % degradation for vDP, ~26 % for type-2, and ~0.2 %
for Tai Chi.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import overhead_pct
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_tcp_crr
from repro.workloads.background import start_cp_background

#: Reference arm first; ``run --arm`` swaps in any registry arms.
DEFAULT_ARMS = ("baseline", "taichi", "taichi-vdp", "type2")


@register("fig12", "netperf tcp_crr under four virtualization designs",
          "Figure 12")
def run(scale=1.0, seed=0):
    duration = scaled_duration(60 * MILLISECONDS, scale)
    rows = []
    baseline_cps = None
    for arm in arms_under_test(DEFAULT_ARMS):
        deployment = build(arm, seed=seed)
        start_cp_background(deployment, n_monitors=4, rolling_tasks=2)
        deployment.warmup()
        result = run_tcp_crr(deployment, duration, n_connections=512)
        if baseline_cps is None:
            baseline_cps = result["cps"]
        rows.append({
            "system": arm,
            "cps": result["cps"],
            "avg_rx_pps": result["avg_rx_pps"],
            "avg_tx_pps": result["avg_tx_pps"],
            "overhead_pct": overhead_pct(result["cps"], baseline_cps),
        })
    overheads = {row["system"]: row["overhead_pct"] for row in rows}
    return ExperimentResult(
        exp_id="fig12",
        title="Network performance (tcp_crr) across virtualization designs",
        paper_ref="Figure 12",
        rows=rows,
        derived=overheads,
        paper={
            "taichi_overhead_pct": 0.2,
            "taichi-vdp_overhead_pct": 8.0,
            "type2_overhead_pct": 26.0,
        },
    )
