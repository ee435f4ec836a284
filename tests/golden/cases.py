"""The golden corpus: short deterministic runs whose outputs are pinned.

Each case returns the bytes its digest covers: the canonical summary
(``engine`` blocks and host file paths stripped) and, for the JSONL
case, the telemetry series file too.  ``tests/golden/digests.json``
holds the sha256 of each; ``python -m tests.golden.regenerate``
rewrites it.  A digest change is a behaviour change and must be
justified in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

from repro.fleet.report import canonical_report
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetSpec
from repro.obs.telemetry import TelemetryConfig
from repro.scenario import Scenario, WorkloadMix, run_soak
from repro.sim.units import MILLISECONDS

#: Frequent small VM storms, so every soak has startups to account.
_MIX = WorkloadMix(vm_period_ms=20.0, vm_batch_min=1, vm_batch_max=3)

_DURATION_NS = 60 * MILLISECONDS
_DRAIN_NS = 30 * MILLISECONDS

_TENANTS = [
    {"tenant_id": "victim", "weight": 2.0, "dp_slo_us": 300.0,
     "workload": {"dp_utilization": 0.3, "vm_period_ms": 25.0,
                  "vm_batch_min": 1, "vm_batch_max": 2}},
    {"tenant_id": "noisy", "traffic": "spiky",
     "workload": {"dp_utilization": 0.5, "vm_period_ms": 15.0,
                  "vm_batch_min": 1, "vm_batch_max": 3}},
]

_ALERTS = [
    {"name": "p99_high", "signal": "dp_rx_wait_us_p99", "threshold": 50.0,
     "min_count": 4},
    {"name": "startup_low", "signal": "startup_slo_attainment_pct",
     "threshold": 100.0, "op": "lt", "hold": 1},
]


def _strip(value):
    """Drop every ``engine`` block and telemetry file ``path``."""
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items()
                if key != "engine"
                and not (key == "path" and isinstance(item, str))}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def canonical(summary):
    """Canonical JSON bytes of a summary or fleet report."""
    return json.dumps(_strip(summary), sort_keys=True).encode()


def _soak(scenario, seed=7, **kwargs):
    return canonical(run_soak(scenario, seed=seed, duration_ns=_DURATION_NS,
                              drain_ns=_DRAIN_NS, label="golden", **kwargs))


def _observed_soak(scenario, **kwargs):
    """Soak with telemetry JSONL and spans; digest summary and series."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.jsonl")
        summary = _soak(scenario, spans=True,
                        telemetry=TelemetryConfig(interval_ms=5.0,
                                                  jsonl_path=path),
                        **kwargs)
        with open(path, "rb") as handle:
            return summary + b"\n" + handle.read()


def _arm(arm, traffic):
    return lambda: _soak(Scenario(arm=arm, traffic=traffic, workload=_MIX))


def _tenants(isolation):
    return lambda: _observed_soak(Scenario(
        arm="taichi", workload=_MIX, tenants=_TENANTS,
        tenant_isolation=isolation))


def _rack_fleet():
    spec = FleetSpec.preset("rack")
    return canonical(canonical_report(
        FleetRunner(spec, jobs=1, scale=0.15).run()))


CASES = {
    "taichi-steady": _arm("taichi", "steady"),
    "taichi-spiky": _arm("taichi", "spiky"),
    "static-steady": _arm("static", "steady"),
    "static-spiky": _arm("static", "spiky"),
    "taichi-alerts-jsonl-spans": lambda: _observed_soak(
        Scenario(arm="taichi", traffic="bursty", workload=_MIX,
                 alerts=_ALERTS)),
    "taichi-dp-boost-2": lambda: _soak(
        Scenario(arm="taichi", workload=_MIX, dp_boost=2)),
    "tenants-isolated": _tenants(True),
    "tenants-shared": _tenants(False),
    "storm-degradation": lambda: _soak(
        Scenario(arm="taichi", workload=_MIX, faults="storm",
                 degradation=True),
        fault_scale=(_DURATION_NS + _DRAIN_NS) / (1_000 * MILLISECONDS)),
    "rack-fleet": _rack_fleet,
}


def digest(name):
    return hashlib.sha256(CASES[name]()).hexdigest()
