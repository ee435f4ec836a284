"""Figure 15: MySQL under 192 sysbench threads, Tai Chi vs baseline.

The paper reports 1.56 % average overhead (peaking at 1.63 % in average
query throughput).
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import overhead_pct
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_mysql
from repro.workloads.background import start_cp_background

METRICS = ("avg_query_per_s", "max_query_per_s", "avg_trans_per_s",
           "max_trans_per_s")

#: Reference arm first, measured arm second (``run --arm`` overrides).
DEFAULT_ARMS = ("baseline", "taichi")


def _measure(arm, duration, seed):
    deployment = build(arm, seed=seed)
    start_cp_background(deployment, n_monitors=4, rolling_tasks=3)
    deployment.warmup()
    return run_mysql(deployment, duration)


@register("fig15", "MySQL throughput under sysbench", "Figure 15")
def run(scale=1.0, seed=0):
    arms = arms_under_test(DEFAULT_ARMS)
    duration = scaled_duration(60 * MILLISECONDS, scale)
    baseline = _measure(arms[0], duration, seed)
    taichi = _measure(arms[-1], duration, seed)
    rows = []
    for metric in METRICS:
        rows.append({
            "metric": metric,
            "baseline": baseline[metric],
            "taichi": taichi[metric],
            "overhead_pct": overhead_pct(taichi[metric], baseline[metric]),
        })
    overheads = [row["overhead_pct"] for row in rows]
    return ExperimentResult(
        exp_id="fig15",
        title="MySQL query/transaction throughput",
        paper_ref="Figure 15",
        rows=rows,
        derived={
            "avg_overhead_pct": sum(overheads) / len(overheads),
            "max_overhead_pct": max(overheads),
        },
        paper={"avg_overhead_pct": 1.56, "max_overhead_pct": 1.63},
    )
