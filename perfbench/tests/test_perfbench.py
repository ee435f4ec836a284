"""Self-test of the benchmark: every workload in its tiny mode.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each run must print every metric ``BENCHMARK.json`` declares, with the
declared unit, both in its readable lines and in the final JSON line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(workload, trace,
                                                    section):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK[section]}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.strip().startswith(f"{name} = ")
                   and line.endswith(f" {unit}") for line in lines[:-1]), name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
