"""Figure 16: Nginx requests/s at 10k connections, HTTP and HTTPS.

The paper reports 0.51 % average overhead for Tai Chi, up to ~1 % in
short-connection (HTTPS) scenarios.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import overhead_pct
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_nginx
from repro.workloads.background import start_cp_background

#: Reference arm first, measured arm second (``run --arm`` overrides).
DEFAULT_ARMS = ("baseline", "taichi")


def _measure(arm, duration, protocol, seed):
    deployment = build(arm, seed=seed)
    start_cp_background(deployment, n_monitors=4, rolling_tasks=3)
    deployment.warmup()
    return run_nginx(deployment, duration, protocol=protocol)


@register("fig16", "Nginx requests/s (HTTP and HTTPS)", "Figure 16")
def run(scale=1.0, seed=0):
    arms = arms_under_test(DEFAULT_ARMS)
    duration = scaled_duration(50 * MILLISECONDS, scale)
    rows = []
    for protocol in ("http", "https"):
        baseline = _measure(arms[0], duration, protocol, seed)
        taichi = _measure(arms[-1], duration, protocol, seed)
        rows.append({
            "protocol": protocol,
            "baseline_rps": baseline["requests_per_s"],
            "taichi_rps": taichi["requests_per_s"],
            "overhead_pct": overhead_pct(
                taichi["requests_per_s"], baseline["requests_per_s"]
            ),
        })
    overheads = [row["overhead_pct"] for row in rows]
    return ExperimentResult(
        exp_id="fig16",
        title="Nginx web-serving throughput",
        paper_ref="Figure 16",
        rows=rows,
        derived={
            "avg_overhead_pct": sum(overheads) / len(overheads),
            "max_overhead_pct": max(overheads),
        },
        paper={"avg_overhead_pct": 0.51, "max_overhead_pct": 1.0},
    )
