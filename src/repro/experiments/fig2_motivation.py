"""Figure 2: baseline CP degradation with instance density.

VM-creation storms at density x1..x4 against the static-partition
baseline.  The paper reports CP task execution time degrading ~8x and VM
startup exceeding its SLO by ~3.1x at density x4.
"""

from repro.cp.device_mgmt import DeviceManager, DeviceMgmtParams
from repro.cp.orchestration import Orchestrator
from repro.experiments.common import scaled_count
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import ratio
from repro.scenario import build
from repro.sim.units import MILLISECONDS, SECONDS
from repro.workloads.background import start_cp_background

DENSITIES = (1.0, 2.0, 3.0, 4.0)


def run_density_point(arm, density, storm_size, seed,
                      max_ns=120 * SECONDS, **knobs):
    """One storm at one density; returns (startup stats, CP-exec stats)."""
    deployment = build(arm, seed=seed, **knobs)
    # Standing CP load (monitoring, log shipping) scales with the number of
    # instances and devices on the node — i.e. with density (Section 3.1).
    start_cp_background(
        deployment,
        n_monitors=int(4 * density),
        rolling_tasks=int(2 * density),
    )
    manager = DeviceManager(deployment.board, deployment.cp_affinity,
                            params=DeviceMgmtParams())
    orchestrator = Orchestrator(manager, density=density,
                                base_storm_size=storm_size)
    deployment.warmup()
    requests = orchestrator.launch_storm()
    env = deployment.env
    env.run(until=env.any_of(
        [env.all_of([request.done for request in requests]),
         env.timeout(max_ns)]
    ))
    startups = orchestrator.startup_times_ns()
    cp_execs = orchestrator.cp_execution_times_ns()
    if not startups:
        raise RuntimeError(f"no VM startups completed at density {density}")
    return (
        sum(startups) / len(startups),
        sum(cp_execs) / len(cp_execs),
        manager.params.startup_slo_ns,
    )


@register("fig2", "VM startup and CP execution vs instance density (baseline)",
          "Figure 2")
def run(scale=1.0, seed=0):
    storm_size = scaled_count(16, scale, floor=8)
    rows = []
    base_cp = None
    for density in DENSITIES:
        startup_ns, cp_ns, slo_ns = run_density_point(
            "baseline", density, storm_size, seed
        )
        if base_cp is None:
            base_cp = cp_ns
        rows.append({
            "density": density,
            "avg_cp_exec_ms": cp_ns / MILLISECONDS,
            "cp_exec_vs_x1": ratio(cp_ns, base_cp),
            "avg_startup_ms": startup_ns / MILLISECONDS,
            "startup_vs_slo": ratio(startup_ns, slo_ns),
        })
    return ExperimentResult(
        exp_id="fig2",
        title="Baseline CP degradation with instance density",
        paper_ref="Figure 2",
        rows=rows,
        derived={
            "cp_exec_degradation_at_x4": rows[-1]["cp_exec_vs_x1"],
            "startup_vs_slo_at_x4": rows[-1]["startup_vs_slo"],
        },
        paper={
            "cp_exec_degradation_at_x4": 8.0,
            "startup_vs_slo_at_x4": 3.1,
        },
        notes=(
            "Storm sizes scale with density; the static 4-CPU CP partition "
            "saturates, producing the superlinear degradation the paper "
            "motivates with."
        ),
    )
