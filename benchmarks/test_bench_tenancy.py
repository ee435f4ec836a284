"""Tenancy overhead gate: accounting must cost < 5% of soak throughput.

A single tenant owning the whole board exercises every tenancy hook —
the tagged services and vCPUs, the weighted-fair pick, the grant ledger
on every donation — while changing nothing about who runs where, so the
two arms simulate comparable worlds.  Both arms pin the same storm-free
workload: the tenant arm draws from its own RNG streams
(``tenant-<id>-*`` vs ``fleet-*``), and a VM storm landing in one arm's
window but not the other's would swamp the accounting cost being gated.
The benchmark interleaves the plain soak with the one-tenant soak
(thermal drift and background noise hit both arms equally), takes
best-of-N per arm, and gates the ratio.  Each arm's rate uses its *own*
deterministic engine event count: the residual stream differences still
shift exact counts by a hair, and cross-charging one arm's events to
the other would skew the rate.
"""

from benchmarks.timing import interleaved_best, soak_events
from repro.scenario import Scenario

_ROUNDS = 5
_MAX_OVERHEAD = 0.05

#: The fleet-node mix minus VM storms (an effectively-infinite period):
#: startup machinery is driven by arrival luck, not by tenancy, and a
#: storm in one arm only would dominate the measured ratio.
_WORKLOAD = {"dp_utilization": 0.30, "n_monitors": 3, "rolling_tasks": 2,
             "vm_period_ms": 1e6}


def _soak(tenants):
    return soak_events(Scenario(arm="taichi", workload=dict(_WORKLOAD),
                                tenants=tenants), "bench-tenancy")


def test_bench_tenancy_overhead(benchmark):
    sole = [{"tenant_id": "sole"}]

    results, (best_off, best_on) = benchmark.pedantic(
        interleaved_best, args=([lambda: _soak(None), lambda: _soak(sole)],
                                _ROUNDS), rounds=1, iterations=1)
    (summary_off, events_off), (summary_on, events_on) = results

    # The sole tenant inherits the whole board: a comparable world (the
    # tenant RNG streams shift exact counts by a hair), and every donated
    # nanosecond lands in its ledger.
    assert (abs(summary_on["dp_sample_count"]
                - summary_off["dp_sample_count"])
            <= 0.1 * summary_off["dp_sample_count"])
    assert (summary_on["tenants"]["sole"]["granted_ns"]
            == summary_on["tenancy"]["total_granted_ns"])
    assert "tenants" not in summary_off

    off_rate = events_off / best_off
    on_rate = events_on / best_on
    overhead = 1.0 - on_rate / off_rate
    benchmark.extra_info["events_per_second_off"] = round(off_rate)
    benchmark.extra_info["events_per_second_on"] = round(on_rate)
    benchmark.extra_info["overhead_pct"] = round(100.0 * overhead, 2)
    print(f"\ntenancy overhead: off {off_rate / 1e3:.0f}k ev/s, "
          f"on {on_rate / 1e3:.0f}k ev/s ({100 * overhead:+.1f}%)")
    assert overhead <= _MAX_OVERHEAD, (
        f"tenant accounting costs {100 * overhead:.1f}% of soak "
        f"throughput (gate: {100 * _MAX_OVERHEAD:.0f}%)")
