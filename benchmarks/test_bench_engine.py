"""Benchmark the DES engine itself: throughput and the fast-forward gate.

Two claims back the engine fast path, and this module gates both:

* **throughput** — raw events/sec on the fleet-node workload (the shared
  production-soak driver on a single Tai Chi board).  The scenario is
  fixed so the event count is deterministic; wall time is the only thing
  that varies, which makes the emitted events/sec a clean regression
  signal for engine-level changes.
* **fast-forward speedup** — on an idle-heavy soak (the static arm polls
  every ``poll_ns`` even when no packet is queued) the analytic idle
  fast-forward must deliver >= 3x wall speedup over the stepped
  event-per-poll mode *while producing a byte-identical summary* and a
  clean invariant verdict.  Arms are interleaved best-of-N so thermal
  drift and background noise hit both equally.
"""

import json

import pytest

from benchmarks.timing import interleaved_best, soak_engines
from repro.obs import observe
from repro.scenario import Scenario, run_soak
from repro.sim import EngineConfig
from repro.sim.units import MILLISECONDS

_ROUNDS = 3
_MIN_SPEEDUP = 3.0
_DURATION_NS = 15 * MILLISECONDS
_DRAIN_NS = 5 * MILLISECONDS


def _soak(arm, fast_forward, check_invariants=False):
    """One soak under the given engine mode; (summary, violations)."""
    scenario = Scenario(
        arm=arm,
        knobs={"engine": EngineConfig(fast_forward=fast_forward)})
    with observe(check_invariants=check_invariants) as session:
        summary = run_soak(scenario, seed=0, duration_ns=_DURATION_NS,
                           drain_ns=_DRAIN_NS, label="bench-engine")
        violations = session.violations() if check_invariants else []
    return summary, violations


def test_bench_engine_events_per_second(benchmark):
    scenario = Scenario(arm="taichi")

    summary, engines = benchmark.pedantic(
        soak_engines, args=(scenario, "bench-engine"), rounds=3,
        iterations=1)

    assert engines, "the simulator did not register an engine profile"
    events = sum(engine["events_processed"] for engine in engines)
    skipped = sum(engine["events_skipped"] for engine in engines)
    assert events > 0
    assert summary["dp_sample_count"] > 0

    # The event count is a pure function of the scenario; wall time is
    # the benchmark's measurement.  Report both, plus the effective rate
    # crediting the poll events the fast path proved it could skip.
    events_per_s = events / benchmark.stats["mean"]
    benchmark.extra_info["scenario"] = scenario.to_dict()
    benchmark.extra_info["events_processed"] = events
    benchmark.extra_info["events_skipped"] = skipped
    benchmark.extra_info["events_per_second"] = round(events_per_s)
    benchmark.extra_info["effective_events_per_second"] = round(
        (events + skipped) / benchmark.stats["mean"])
    benchmark.extra_info["engine_reported_events_per_wall_s"] = [
        round(engine["events_per_wall_s"]) for engine in engines
    ]
    print(f"\nDES throughput: {events} events ({skipped} skipped), "
          f"{events_per_s / 1e3:.0f}k events/s")


def test_bench_engine_fast_forward_gate(benchmark):
    """Fast-forward >= 3x on an idle-heavy soak, byte-identical results."""

    results, (best_fast, best_stepped) = benchmark.pedantic(
        interleaved_best,
        args=([lambda: _soak("static", True, check_invariants=True),
               lambda: _soak("static", False, check_invariants=True)],
              _ROUNDS), rounds=1, iterations=1)
    ((fast_summary, fast_violations),
     (stepped_summary, stepped_violations)) = results

    # Correctness first: both modes must be invariant-clean and agree on
    # every summary byte outside the engine self-profile block.
    assert not fast_violations, fast_violations
    assert not stepped_violations, stepped_violations
    fast_engine = fast_summary.pop("engine")
    stepped_engine = stepped_summary.pop("engine")
    assert json.dumps(fast_summary, sort_keys=True, default=str) == \
        json.dumps(stepped_summary, sort_keys=True, default=str), \
        "fast-forward changed the simulation outcome"

    # The fast path's accounting must cover the stepped arm's work: every
    # poll it skipped analytically, the stepped arm actually simulated
    # (the small slack is window-boundary rounding and chain bookkeeping).
    assert fast_engine["events_skipped"] > 0
    assert fast_engine["fast_forward_windows"] > 0
    simulated = (fast_engine["events_processed"]
                 + fast_engine["events_skipped"])
    assert simulated == pytest.approx(stepped_engine["events_processed"],
                                      rel=0.10)

    speedup = best_stepped / best_fast
    fast_rate = simulated / best_fast
    stepped_rate = stepped_engine["events_processed"] / best_stepped
    benchmark.extra_info["fast_engine"] = fast_engine
    benchmark.extra_info["stepped_engine"] = stepped_engine
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["effective_events_per_second_fast"] = round(
        fast_rate)
    benchmark.extra_info["events_per_second_stepped"] = round(stepped_rate)
    print(f"\nfast-forward: {fast_rate / 1e6:.2f}M effective ev/s vs "
          f"{stepped_rate / 1e3:.0f}k ev/s stepped ({speedup:.1f}x, "
          f"skipped ratio {fast_engine['skipped_ratio']:.1%})")
    assert speedup >= _MIN_SPEEDUP, (
        f"idle fast-forward speedup {speedup:.2f}x is under the "
        f"{_MIN_SPEEDUP:.0f}x gate")
