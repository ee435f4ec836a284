"""One-off cross-check of the outside-in layer split against cProfile.

Run from the repository root::

    python3 perfbench/profile_split.py --workload saturated_board --seed 0

Simulates the workload's first simulation seed twice: here under
cProfile, grouping self time by ``repro.<package>`` (plus interpreter
builtins and other modules), and in a fresh process under the
benchmark's layer wrappers.  Prints both splits as one markdown table.
cProfile charges work inside the engine loop to the package that owns
each callback; the wrappers can only reach it through ``sim.run``.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

import run


def profile_split(workload, seed):
    """Self-time share (percent) per ``repro`` package under cProfile."""
    import workloads

    clock = workloads.FirstEvent().install()
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(seed, clock)
    profiler.disable()
    shares = {}
    marker = f"{os.sep}repro{os.sep}"
    for (filename, _line, name), entry in pstats.Stats(
            profiler).stats.items():
        if name == workloads.reference_s.__name__:
            continue   # the benchmark's own speed probe
        if marker in filename:
            group = filename.split(marker, 1)[1].split(os.sep)[0]
            group = group if not group.endswith(".py") else "repro"
        elif filename == "~":
            group = "builtins"
        else:
            group = "other"
        shares[group] = shares.get(group, 0.0) + entry[2]
    total = sum(shares.values())
    return {group: 100 * value / total for group, value in shares.items()}


def wrapper_split(args, seed):
    """Self-time share (percent) per layer under the benchmark wrappers."""
    record, error = run.spawn(args, "traced", seed,
                              time.monotonic() + run.DEADLINE_S)
    if record is None:
        raise SystemExit(f"perfbench: {error}")
    wall_ms = record["wall_s"] * 1e3
    shares = {}
    for name, value in record["spans"].items():
        if name.endswith(".self_ms") and name.count(".") > 1:
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value
    shares = {layer: 100 * value / wall_ms for layer, value in shares.items()}
    shares["unattributed"] = 100 - sum(shares.values())
    return shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="saturated_board")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.tiny = False
    sys.path.insert(0, run.program_src(os.getcwd()))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.sub_seeds(args.seed, 1)[0]
    profiled = profile_split(workload, seed)
    wrapped = wrapper_split(args, seed)
    print(f"| layer | cProfile self % | wrapper self % |")
    print("|---|---|---|")
    for layer in sorted(set(profiled) | set(wrapped),
                        key=lambda name: -profiled.get(name, 0.0)):
        print(f"| {layer} | {profiled.get(layer, 0.0):.1f} | "
              f"{wrapped.get(layer, 0.0):.1f} |")


if __name__ == "__main__":
    main()
