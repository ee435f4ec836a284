"""Span-tracking overhead gate: disabled must be free, enabled bounded.

The span tracker's disabled path is a single attribute check at each
instrumentation site plus one unconditional set-add per DP service, so a
spans-off soak must stay within 5% of the pre-span baseline.  Enabled,
the tracker hooks every trace event and runs the attribution sweep per
completed request — real work, but it must stay within a small constant
factor so spans are usable on production-length soaks.  Both arms run
interleaved (thermal drift hits them equally) with best-of-N timing, and
the enabled arm must leave the simulated world untouched: identical
event counts, identical probe samples.
"""

from benchmarks.timing import interleaved_best, soak_events
from repro.scenario import Scenario
from repro.sim.units import MILLISECONDS

_ROUNDS = 5
_MAX_ON_FACTOR = 4.0


def _soak(spans):
    return soak_events(Scenario(arm="taichi"), "bench-spans", spans=spans)


def test_bench_span_overhead(benchmark):
    results, (best_off, best_on) = benchmark.pedantic(
        interleaved_best, args=([lambda: _soak(False), lambda: _soak(True)],
                                _ROUNDS), rounds=1, iterations=1)
    (summary_off, events_off), (summary_on, events_on) = results

    # Spans only read state and record events: the simulated world is
    # byte-identical, so the engine processes the exact same events.
    assert events_on == events_off
    assert summary_on["dp_sample_count"] == summary_off["dp_sample_count"]
    assert summary_on["spans"]["completed"] > 0

    off_rate = events_off / best_off
    on_rate = events_off / best_on
    factor = best_on / best_off
    benchmark.extra_info["events_processed"] = events_off
    benchmark.extra_info["events_per_second_off"] = round(off_rate)
    benchmark.extra_info["events_per_second_on"] = round(on_rate)
    benchmark.extra_info["enabled_factor"] = round(factor, 2)
    print(f"\nspan overhead: off {off_rate / 1e3:.0f}k ev/s, "
          f"on {on_rate / 1e3:.0f}k ev/s ({factor:.2f}x when enabled)")
    assert factor <= _MAX_ON_FACTOR, (
        f"span tracking costs {factor:.2f}x soak wall time "
        f"(gate: {_MAX_ON_FACTOR:.1f}x)")


def test_bench_span_disabled_does_no_work():
    """The within-5%-when-disabled gate, asserted structurally.

    Two identical spans-off arms differ only by machine jitter (observed
    up to ~6% on shared runners), so a wall-clock delta gate flakes
    without measuring the code.  Instead prove the disabled path does
    zero per-event work: no tracer hook is registered, and after a real
    DP run under load the tracker holds no spans, no attribution
    intervals, and no exemplars — the only footprint is the
    unconditional per-service thread registration.
    """
    from repro.workloads.background import start_dp_background

    scenario = Scenario(arm="taichi")
    deployment = scenario.build(seed=0)
    env = deployment.env
    assert env.spans.enabled is False
    assert env.spans.observe not in env.tracer.hooks

    start_dp_background(deployment, utilization=0.4,
                        duration_ns=20 * MILLISECONDS)
    env.run(until=25 * MILLISECONDS)

    assert env.now > 0
    assert env.spans.enabled is False
    assert env.spans.observe not in env.tracer.hooks
    assert env.spans.roots_completed == 0
    assert env.spans.open_spans() == 0
    assert env.spans.reservoirs == {}
    assert env.spans.exemplars() == {}
    assert env.spans._cpu_iv == {}
    assert env.spans._tree == {}
    assert env.spans._request_seq == 0
    # DP services register their poller thread unconditionally so spans
    # may be enabled mid-run; that set is the disabled path's only state.
    assert env.spans._dp_threads
