"""Record the DES engine fast-path baseline (BENCH_engine.json).

The engine fast path makes two measurable claims, and this script pins
both down on the current machine:

* **idle fast-forward** — replacing per-poll wakeups with one analytic
  timeout must multiply wall throughput on idle-heavy soaks while the
  summary stays byte-identical.  Measured per arm (``taichi``, whose
  batched scheduler already amortizes polls, and ``static``, the
  poll-every-tick worst case) as interleaved best-of-N fast vs stepped.
* **scheduler queue** — the calendar queue must match the binary heap's
  pop order exactly (enforced by tests); here we record its relative
  wall cost so regressions in either implementation are visible.

Usage::

    PYTHONPATH=src python -m benchmarks.record_engine_baseline \
        [--out BENCH_engine.json] [--rounds N]

The committed baseline is informational (machines differ); the enforced
gate lives in ``benchmarks/test_bench_engine.py`` and CI.
"""

import argparse
import json
import platform

from benchmarks.timing import interleaved_best
from repro.scenario import Scenario, run_soak
from repro.sim import EngineConfig
from repro.sim.units import MILLISECONDS

_DURATION_NS = 15 * MILLISECONDS
_DRAIN_NS = 5 * MILLISECONDS


def _soak(arm, engine):
    scenario = Scenario(arm=arm, knobs={"engine": engine})
    return run_soak(scenario, seed=0, duration_ns=_DURATION_NS,
                    drain_ns=_DRAIN_NS, label="bench-engine")


def measure_fast_forward(arm, rounds):
    """Interleaved fast-vs-stepped best-of-N for one arm."""
    (fast_summary, stepped_summary), (best_fast, best_stepped) = \
        interleaved_best(
            [lambda: _soak(arm, EngineConfig(fast_forward=True)),
             lambda: _soak(arm, EngineConfig(fast_forward=False))], rounds)
    fast_engine = fast_summary.pop("engine")
    stepped_engine = stepped_summary.pop("engine")
    identical = (json.dumps(fast_summary, sort_keys=True, default=str)
                 == json.dumps(stepped_summary, sort_keys=True, default=str))
    simulated = (fast_engine["events_processed"]
                 + fast_engine["events_skipped"])
    return {
        "arm": arm,
        "rounds": rounds,
        "summary_identical": identical,
        "events_processed_fast": fast_engine["events_processed"],
        "events_skipped_fast": fast_engine["events_skipped"],
        "fast_forward_windows": fast_engine["fast_forward_windows"],
        "skipped_ratio": fast_engine["skipped_ratio"],
        "events_processed_stepped": stepped_engine["events_processed"],
        "events_per_second_stepped": round(
            stepped_engine["events_processed"] / best_stepped),
        "effective_events_per_second_fast": round(simulated / best_fast),
        "speedup": round(best_stepped / best_fast, 2),
    }


def measure_scheduler(rounds):
    """Heap vs calendar queue wall cost on the taichi fast-path soak."""
    summaries, (best_heap, best_calendar) = interleaved_best(
        [lambda: _soak("taichi", EngineConfig(scheduler="heap")),
         lambda: _soak("taichi", EngineConfig(scheduler="calendar"))],
        rounds)
    events = dict(zip(("heap", "calendar"),
                      (summary["engine"]["events_processed"]
                       for summary in summaries)))
    assert events["heap"] == events["calendar"], (
        "scheduler queues disagreed on the event count: "
        f"{events['heap']} heap vs {events['calendar']} calendar")
    heap_rate = events["heap"] / best_heap
    calendar_rate = events["calendar"] / best_calendar
    return {
        "rounds": rounds,
        "events_processed": events["heap"],
        "events_per_second_heap": round(heap_rate),
        "events_per_second_calendar": round(calendar_rate),
        "calendar_vs_heap": round(calendar_rate / heap_rate, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    arms = []
    for arm in ("taichi", "static"):
        print(f"measuring fast-forward on the {arm} arm "
              f"(interleaved best-of-{args.rounds})...")
        result = measure_fast_forward(arm, args.rounds)
        arms.append(result)
        print(f"  {result['effective_events_per_second_fast'] / 1e6:.2f}M "
              f"effective ev/s fast vs "
              f"{result['events_per_second_stepped'] / 1e3:.0f}k ev/s "
              f"stepped ({result['speedup']}x, skipped ratio "
              f"{result['skipped_ratio']:.1%}, identical="
              f"{result['summary_identical']})")

    print("measuring scheduler queues (heap vs calendar)...")
    schedulers = measure_scheduler(args.rounds)
    print(f"  heap {schedulers['events_per_second_heap'] / 1e3:.0f}k ev/s, "
          f"calendar {schedulers['events_per_second_calendar'] / 1e3:.0f}k "
          f"ev/s ({schedulers['calendar_vs_heap']}x)")

    baseline = {
        "benchmark": "engine",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fast_forward": arms,
        "schedulers": schedulers,
        "gate": {"min_speedup": 3.0,
                 "enforced_by": "benchmarks/test_bench_engine.py"},
    }
    with open(args.out, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
