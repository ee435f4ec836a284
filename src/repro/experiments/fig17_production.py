"""Figure 17: VM startup time vs instance density, with and without Tai Chi.

The production result: a 3.1x reduction in average VM startup latency in
high-density deployments.
"""

from repro.experiments.common import scaled_count
from repro.experiments.fig2_motivation import DENSITIES, run_density_point
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import ratio
from repro.scenario import arms_under_test
from repro.sim.units import MILLISECONDS

#: Reference arm first, measured arm second (``run --arm`` overrides).
DEFAULT_ARMS = ("baseline", "taichi")


@register("fig17", "VM startup vs density, with/without Tai Chi", "Figure 17")
def run(scale=1.0, seed=0):
    arms = arms_under_test(DEFAULT_ARMS)
    storm_size = scaled_count(16, scale, floor=8)
    rows = []
    for density in DENSITIES:
        base_startup, _, slo_ns = run_density_point(
            arms[0], density, storm_size, seed
        )
        taichi_startup, _, _ = run_density_point(
            arms[-1], density, storm_size, seed
        )
        rows.append({
            "density": density,
            "baseline_startup_ms": base_startup / MILLISECONDS,
            "taichi_startup_ms": taichi_startup / MILLISECONDS,
            "baseline_vs_slo": ratio(base_startup, slo_ns),
            "taichi_vs_slo": ratio(taichi_startup, slo_ns),
            "reduction": ratio(base_startup, taichi_startup),
        })
    return ExperimentResult(
        exp_id="fig17",
        title="Average VM startup time across instance densities",
        paper_ref="Figure 17",
        rows=rows,
        derived={"startup_reduction_at_x4": rows[-1]["reduction"]},
        paper={"startup_reduction_at_x4": 3.1},
    )
