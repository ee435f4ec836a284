"""Telemetry overhead gate: sampling must cost < 5% of soak throughput.

The telemetry bus samples on a sim-time interval, so its cost scales
with intervals, not events — a 10 ms cadence over a 60 ms soak is a
handful of ticks plus per-probe sketch inserts.  This benchmark runs the
same soak with telemetry off and on, *interleaved* (so thermal drift and
background noise hit both arms equally), takes best-of-N per arm, and
gates the ratio.  Events/sec is derived from the engine's deterministic
event count, which telemetry must not change (gauges only read state).
"""

from benchmarks.timing import interleaved_best, soak_events
from repro.obs.telemetry import TelemetryConfig
from repro.scenario import Scenario

_ROUNDS = 5
_MAX_OVERHEAD = 0.05


def _soak(telemetry):
    return soak_events(Scenario(arm="taichi"), "bench-telemetry",
                       telemetry=telemetry)


def test_bench_telemetry_overhead(benchmark):
    config = TelemetryConfig(interval_ms=10.0)

    results, (best_off, best_on) = benchmark.pedantic(
        interleaved_best, args=([lambda: _soak(None), lambda: _soak(config)],
                                _ROUNDS), rounds=1, iterations=1)
    (summary_off, events_off), (summary_on, events_on) = results

    # Telemetry is observational: the simulated world is unchanged.  The
    # engine count differs only by the bus's own interval-timer events.
    intervals = summary_on["telemetry"]["intervals"]
    assert intervals > 0
    assert events_off <= events_on <= events_off + intervals + 1
    assert summary_on["dp_sample_count"] == summary_off["dp_sample_count"]

    # Rate the same workload (off-arm event count) against each wall time.
    off_rate = events_off / best_off
    on_rate = events_off / best_on
    overhead = 1.0 - on_rate / off_rate
    benchmark.extra_info["events_processed"] = events_off
    benchmark.extra_info["events_per_second_off"] = round(off_rate)
    benchmark.extra_info["events_per_second_on"] = round(on_rate)
    benchmark.extra_info["overhead_pct"] = round(100.0 * overhead, 2)
    benchmark.extra_info["intervals"] = intervals
    print(f"\ntelemetry overhead: off {off_rate / 1e3:.0f}k ev/s, "
          f"on {on_rate / 1e3:.0f}k ev/s ({100 * overhead:+.1f}%)")
    assert overhead <= _MAX_OVERHEAD, (
        f"telemetry sampling costs {100 * overhead:.1f}% of soak "
        f"throughput (gate: {100 * _MAX_OVERHEAD:.0f}%)")
