"""Section 8 extension: inverse adaptation for data-plane throughput.

In low-density scenarios Tai Chi's dynamic partitioning reallocates 50 %
of the CP partition's physical CPUs to DP services (here 4 -> 2 CP CPUs,
8 -> 10 DP CPUs).  The paper reports +39 % peak IOPS and +43 % CPS while
CP performance stays at baseline by harvesting idle DP cycles.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.metrics.stats import ratio
from repro.scenario import arms_under_test, build
from repro.sim.units import MILLISECONDS
from repro.workloads import run_fio, run_sockperf_tcp, run_synth_cp

#: Reference arm first; the measured arm gets the Section 8 dp_boost=2
#: repartition (``run --arm`` overrides; the boost needs a Tai Chi arm).
DEFAULT_ARMS = ("baseline", "taichi")


def _baseline(arm, seed, dp_kind="net"):
    deployment = build(arm, seed=seed, dp_kind=dp_kind)
    deployment.warmup()
    return deployment


def _boosted(arm, seed, dp_kind="net"):
    """The measured arm after live cp->dp repartitioning (50% of CP)."""
    return build(arm, seed=seed, dp_kind=dp_kind, dp_boost=2)


@register("ext_dp_boost", "Reallocating CP CPUs to DP (Section 8)",
          "Section 8, 'Enhanced data-plane performance'")
def run(scale=1.0, seed=0):
    arms = arms_under_test(DEFAULT_ARMS)
    ref, boosted = arms[0], arms[-1]
    duration = scaled_duration(50 * MILLISECONDS, scale)

    base_iops = run_fio(_baseline(ref, seed, "storage"), duration)["iops"]
    boost_iops = run_fio(_boosted(boosted, seed, "storage"), duration)["iops"]

    base_cps = run_sockperf_tcp(_baseline(ref, seed), duration)["cps"]
    boost_cps = run_sockperf_tcp(_boosted(boosted, seed), duration)["cps"]

    # CP sanity: with only 2 dedicated CP CPUs plus harvested DP cycles,
    # CP execution should stay near the 4-CPU static baseline.
    cp_base = run_synth_cp(build(ref, seed=seed), 8, rounds=1)
    cp_boost = run_synth_cp(_boosted(boosted, seed), 8, rounds=1)

    rows = [
        {"metric": "fio peak IOPS", "baseline_8dp": base_iops,
         "boosted_10dp": boost_iops, "gain_pct": (ratio(boost_iops, base_iops) - 1) * 100},
        {"metric": "sockperf CPS", "baseline_8dp": base_cps,
         "boosted_10dp": boost_cps, "gain_pct": (ratio(boost_cps, base_cps) - 1) * 100},
        {"metric": "synth_cp avg ms (8 tasks)", "baseline_8dp": cp_base["avg_exec_ms"],
         "boosted_10dp": cp_boost["avg_exec_ms"],
         "gain_pct": (1 - ratio(cp_boost["avg_exec_ms"], cp_base["avg_exec_ms"])) * 100},
    ]
    return ExperimentResult(
        exp_id="ext_dp_boost",
        title="Dynamic repartitioning boosts DP throughput without hurting CP",
        paper_ref="Section 8",
        rows=rows,
        derived={
            "iops_gain_pct": rows[0]["gain_pct"],
            "cps_gain_pct": rows[1]["gain_pct"],
        },
        paper={
            "iops_gain_pct": 39.0,
            "cps_gain_pct": 43.0,
            "note": (
                "Paper gains exceed the +25% CPU increase because their DP "
                "was partially port/queue-bound at 8 CPUs; our model is "
                "CPU-bound so gains track the CPU ratio."
            ),
        },
    )
