"""Figure 13: fio 4 KB IOPS across the four virtualization designs.

The paper reports ~6 % IOPS degradation for Tai Chi-vDP, ~25.7 % for
type-2 QEMU+KVM, and ~0.06 % for Tai Chi.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import overhead_pct
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_fio
from repro.workloads.background import start_cp_background

#: Reference arm first; ``run --arm`` swaps in any registry arms.
DEFAULT_ARMS = ("baseline", "taichi", "taichi-vdp", "type2")


@register("fig13", "fio IOPS under four virtualization designs", "Figure 13")
def run(scale=1.0, seed=0):
    duration = scaled_duration(60 * MILLISECONDS, scale)
    rows = []
    baseline_iops = None
    for arm in arms_under_test(DEFAULT_ARMS):
        deployment = build(arm, seed=seed, dp_kind="storage")
        start_cp_background(deployment, n_monitors=4, rolling_tasks=2)
        deployment.warmup()
        result = run_fio(deployment, duration)
        if baseline_iops is None:
            baseline_iops = result["iops"]
        rows.append({
            "system": arm,
            "iops": result["iops"],
            "bw_mbps": result["bw_mbps"],
            "overhead_pct": overhead_pct(result["iops"], baseline_iops),
        })
    overheads = {row["system"]: row["overhead_pct"] for row in rows}
    return ExperimentResult(
        exp_id="fig13",
        title="Storage IOPS across virtualization designs",
        paper_ref="Figure 13",
        rows=rows,
        derived=overheads,
        paper={
            "taichi_overhead_pct": 0.06,
            "taichi-vdp_overhead_pct": 6.0,
            "type2_overhead_pct": 25.7,
        },
    )
