"""Timing helpers shared by the overhead gates and the baseline recorders.

* :func:`interleaved_best` — run several arms round-robin and keep each
  arm's best wall time, so thermal drift and background noise hit every
  arm equally.
* :func:`soak_engines` / :func:`soak_events` — the fixed seed-0 soak the
  gates measure, under a fresh ``observe`` session, with the engine's
  deterministic event count read from the ``sim.engine`` sources.
"""

import time

from repro.obs import observe
from repro.scenario import run_soak
from repro.sim.units import MILLISECONDS


def interleaved_best(arms, rounds):
    """Time ``rounds`` interleaved calls of each zero-argument arm.

    Returns ``(results, best)``: each arm's return value from the last
    round and its minimum wall seconds over all rounds.
    """
    times = [[] for _ in arms]
    results = [None] * len(arms)
    for _ in range(rounds):
        for index, arm in enumerate(arms):
            started = time.perf_counter()
            results[index] = arm()
            times[index].append(time.perf_counter() - started)
    return results, [min(arm_times) for arm_times in times]


def soak_engines(scenario, label, duration_ns=60 * MILLISECONDS,
                 drain_ns=20 * MILLISECONDS, **kwargs):
    """Soak ``scenario`` at seed 0; ``(summary, sim.engine profiles)``.

    ``kwargs`` go to :func:`~repro.scenario.run_soak`.  There is one
    engine profile per environment the soak built.
    """
    with observe() as session:
        summary = run_soak(scenario, seed=0, duration_ns=duration_ns,
                           drain_ns=drain_ns, label=label, **kwargs)
    snapshot = session.metrics.snapshot()
    return summary, [data for name, data in snapshot["sources"].items()
                     if name.split("#")[0] == "sim.engine"]


def soak_events(scenario, label, **kwargs):
    """:func:`soak_engines` with the processed events summed."""
    summary, engines = soak_engines(scenario, label, **kwargs)
    return summary, sum(engine["events_processed"] for engine in engines)
