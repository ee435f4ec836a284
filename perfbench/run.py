"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload saturated_board --seed 0 \\
        --seconds 35 --trace 0

``--trace 0`` simulates the workload's fixed window once for each of
its simulation seeds (derived from ``--seed``), then re-runs seeds while
``--seconds`` allows, checks the outputs (a re-run must reproduce its
seed's summary digest) and prints the end-to-end metrics; simulated
results pool the distinct seeds.  ``--trace 1``
runs one untraced and one traced repeat of the first simulation seed and
prints the per-layer metrics, including the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.

Each repeat runs in a fresh process, one at a time, as a user's soak or
fleet command does: a repeat then starts from the same process state
whatever ran before it, and its set-up time includes interpreter start
and imports.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import layers

#: End-to-end metrics and their units (names as in ``BENCHMARK.json``).
END_TO_END = {
    "wall_per_sim_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_dp_p99_us": "us",
    "sim_dp_slo_pct": "%",
}

#: ``setup_s`` is the median of this many process starts (repeats first,
#: then set-up-only probes to make up the number).
SETUP_SAMPLES = 5

#: ``--tiny`` shrinks every window by this factor (the self-test mode).
TINY_SCALE = 0.1

#: Repeat processes still running this long after the benchmark started
#: are killed and counted as failed operations.
DEADLINE_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every window tenfold (self-test)")
    parser.add_argument("--role", choices=("repeat", "traced", "setup"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def program_src(root):
    """The checkout's ``src`` directory; exits when there is none."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no src/repro under {root}; run from the root of "
            f"a repository checkout")
    return src


# -- One repeat, in its own process ---------------------------------------


def run_role(args, src):
    """Run one repeat (or one set-up probe) and print its JSON record."""
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scale = TINY_SCALE if args.tiny else 1.0
    if args.role == "setup":
        clock = workloads.FirstEvent(stop=True).install()
        try:
            workload.run(args.seed, clock, scale)
        except workloads.FirstEvent.Reached:
            print(json.dumps({"first_event": clock.at,
                              "setup_speed": clock.setup_speed}))
            return 0
        raise SystemExit("perfbench: the workload never started simulating")

    clock = workloads.FirstEvent().install()
    tracer = None
    if args.role == "traced":
        # Fleet workers would inherit every wrapper and keep its counts to
        # themselves, so the fleet is traced at its own layer only.
        fleet = isinstance(workload, workloads.FleetWorkload)
        tracer = layers.LayerClock(
            only_layers=("fleet",) if fleet else None).install()
    repeat = workload.run(args.seed, clock, scale)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    spans = tracer.metrics() if tracer is not None else {}
    if "sim.run.self_ms" in spans:
        # The reference loop runs inside the engine span.
        reference_ms = clock.sums["reference_s"] * 1e3
        spans["sim.run.self_ms"] -= reference_ms
        spans["sim.self_ms"] -= reference_ms
    record = vars(repeat)
    record.update(
        first_event=clock.at,
        setup_speed=clock.setup_speed,
        # Fleet workers each peak at about the largest one's size.
        rss_kb=own + (workloads.JOBS * workers if workers else 0),
        spans=spans,
    )
    print(json.dumps(record))
    return 0


# -- The parent process ------------------------------------------------------


def spawn(args, role, seed, deadline):
    """Run one role in a fresh process; returns ``(record, error)``."""
    command = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", args.workload, "--seed", str(seed)]
    if args.tiny:
        command.append("--tiny")
    started = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(
            timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:
        return None, f"{role} process still running at the deadline"
    finally:
        if child.poll() is None:   # timed out, or this process is stopping
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if child.returncode != 0:
        lines = stderr.strip().splitlines() or [f"exit {child.returncode}"]
        return None, f"{role} process failed: {lines[-1]}"
    record = json.loads(stdout.splitlines()[-1])
    # At the reference host's speed, as ``wall_per_sim_s`` is.
    record["setup_s"] = (record["first_event"] - started) * record["setup_speed"]
    return record, None


class Runs:
    """Repeats by simulation seed, with the output checks applied."""

    def __init__(self, per_repeat):
        self.per_repeat = per_repeat   # operations one repeat attempts
        self.deadline = time.monotonic() + DEADLINE_S
        self.by_seed = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def run(self, args, role, seed):
        record, error = spawn(args, role, seed, self.deadline)
        if record is None:
            self.errors.append(error)
            self.attempted += self.per_repeat
            self.failed += self.per_repeat
            return None
        self.attempted += record["attempted"]
        first = self.by_seed.setdefault(seed, [record])[0]
        if record is not first:
            self.by_seed[seed].append(record)
        if record["digest"] != first["digest"]:
            # Repeats of one simulation seed must simulate the same thing.
            self.errors.append(f"seed {seed}: summary digest "
                               f"{record['digest'][:12]} differs from "
                               f"{first['digest'][:12]}")
            self.failed += record["attempted"]
        else:
            self.errors.extend(record["problems"])
            self.failed += min(len(record["problems"]), record["attempted"])
        return record


def untraced(args, workload, workloads):
    """Each simulation seed once, then re-runs while ``--seconds`` allows;
    simulated results pool the distinct seeds."""
    seeds = workloads.sub_seeds(args.seed, workload.seeds)
    runs = Runs(workload.operations)
    started = time.monotonic()
    for seed in seeds:
        runs.run(args, "repeat", seed)
    if set(runs.by_seed) != set(seeds):
        return runs, [], None
    repeat_s = (time.monotonic() - started) / len(seeds)
    index = 0
    while time.monotonic() - started + repeat_s <= args.seconds:
        runs.run(args, "repeat", seeds[index % len(seeds)])
        index += 1

    records = [record for group in runs.by_seed.values() for record in group]
    setups = [record["setup_s"] for record in records]
    while not args.tiny and len(setups) < SETUP_SAMPLES:
        probe, error = spawn(args, "setup", seeds[0], runs.deadline)
        if probe is None:
            raise SystemExit(f"perfbench: {error}")
        setups.append(probe["setup_s"])
    firsts = [runs.by_seed[seed][0] for seed in seeds]
    walls = [statistics.mean(r["wall_s"] * r["speed"]
                             for r in runs.by_seed[seed]) for seed in seeds]
    pooled, lines = workloads.pool_results([r["results"] for r in firsts])
    digest = hashlib.sha256(
        "".join(r["digest"] for r in firsts).encode()).hexdigest()
    print(f"{args.workload} seed {args.seed}: {len(seeds)} simulation seeds "
          f"x {firsts[0]['sim_s']:.3f} simulated s, {len(records)} repeats; "
          f"summary digest {digest[:16]}")
    print("  host s / simulated s per repeat: " + ", ".join(
        f"{r['wall_s']:.3f}/{r['sim_s']:.3f}" for r in records))
    print("  host slowdown against the reference host per repeat: " + ", ".join(
        f"{1 / r['speed']:.3f}" for r in records))
    print("  setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
    values = {
        # Host time at the reference host's speed (see
        # ``workloads.reference_s``), totalled over the run.
        "wall_per_sim_s": sum(walls) / sum(r["sim_s"] for r in firsts),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in records) / 1024,
        **pooled,
    }
    notes = lines + [note for r in firsts for note in r["notes"]]
    return runs, notes, {name: (values[name], unit)
                         for name, unit in END_TO_END.items()}


def traced(args, workload, workloads):
    """An untraced and a traced repeat of the first simulation seed."""
    seed = workloads.sub_seeds(args.seed, 1)[0]
    runs = Runs(workload.operations)
    plain = runs.run(args, "repeat", seed)
    timed = runs.run(args, "traced", seed)
    if plain is None or timed is None:
        return runs, [], None
    values = layers.layer_metrics(timed["spans"], timed["counts"],
                                  plain["wall_s"] * plain["speed"],
                                  timed["wall_s"] * timed["speed"])
    print(f"{args.workload} seed {args.seed}: traced repeat "
          f"{timed['wall_s']:.3f} s vs untraced {plain['wall_s']:.3f} s "
          f"at host slowdowns {1 / timed['speed']:.3f} and "
          f"{1 / plain['speed']:.3f} against the reference host "
          f"({values['bench.trace_overhead_pct'][0]:+.1f}% tracing overhead)"
          f"; summary digests {plain['digest'][:12]} "
          f"{timed['digest'][:12]}")
    _, lines = workloads.pool_results([timed["results"]])
    return runs, lines + timed["notes"], values


def main(argv=None):
    args = parse_args(argv)
    src = program_src(os.getcwd())
    if args.role:
        return run_role(args, src)
    # Stopping this process must stop the repeat it is waiting on too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, src)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    runs, notes, values = (traced if args.trace else untraced)(
        args, workload, workloads)
    for line in notes:
        print(f"  {line}")
    for line in runs.errors:
        print(f"  FAILED: {line}")
    print(f"  failed operations: {runs.failed} of {runs.attempted} "
          f"({100 * runs.failed / max(runs.attempted, 1):.1f}%)")
    if values is None:
        print(json.dumps({"correct": False,
                          "attempted": max(runs.attempted, 1),
                          "failed": max(runs.failed, 1), "metrics": {}}))
        return 1
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runs.errors,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
