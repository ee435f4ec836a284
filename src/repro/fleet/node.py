"""One fleet node end to end: build, load, run, summarize.

:func:`run_node` is the process-pool worker — a module-level function
taking one plain-dict payload and returning one plain-dict summary, so
it pickles across :class:`~concurrent.futures.ProcessPoolExecutor`
boundaries.  The simulation itself is the shared production-soak driver
(:func:`repro.scenario.soak.run_soak`) parameterized by the node's
embedded :class:`~repro.scenario.spec.Scenario`; this module only adds
the seed derivation, observability capture, and invariant verdicts.

Determinism contract: the summary is a pure function of (payload), with
the node's seed derived from the fleet root via
:func:`~repro.sim.rng.derive_seed` — no wall-clock, no process-global
state, no dependence on which worker ran it.  ``FleetRunner`` leans on
this to produce byte-identical reports at any ``--jobs`` level.
"""

import os

from repro.fleet.durability import failure_envelope, maybe_inject_chaos
from repro.fleet.spec import NodeSpec
from repro.obs import observe, write_jsonl
from repro.scenario.soak import run_soak
from repro.sim.rng import derive_seed


def node_seed(root_seed, node_id):
    """The derived seed a node simulates under (shared with tests)."""
    return derive_seed(root_seed, "fleet-node", node_id)


def run_node(payload):
    """Simulate one node; returns its picklable summary dict.

    Payload keys: ``node`` (NodeSpec dict), ``root_seed``,
    ``duration_ns``, ``drain_ns``, ``dp_slo_us``, ``fault_scale``,
    ``capture_path`` (JSONL target or None), ``check_invariants``,
    ``raw_samples`` (ship raw sample arrays; when false — the fleet
    default — the summary carries only the mergeable sketches and the
    derived stats), ``telemetry_dir`` (per-node snapshot-series JSONL
    target dir or None), ``telemetry_interval_ms`` and ``spans``
    (causal request tracing: the summary gains per-channel tail
    exemplars the aggregator pools into the fleet worst-request table).

    Containment contract: this worker *never raises*.  Any exception —
    including an injected ``chaos`` fault for this ``attempt`` — comes
    back as a :func:`~repro.fleet.durability.failure_envelope` built
    here in the worker, so the traceback tail reflects the real raise
    site and the envelope is byte-identical at any ``--jobs`` level.
    (A chaos entry of kind ``"crash"`` in a pooled run is the one
    exception: it hard-exits the process to exercise the pool-rebuild
    path.)
    """
    node_id = (payload.get("node") or {}).get("node_id", "?")
    attempt = int(payload.get("attempt", 1))
    try:
        maybe_inject_chaos(payload.get("chaos"), node_id, attempt,
                           parallel=bool(payload.get("parallel")))
        return _run_node(payload)
    except Exception as exc:
        return failure_envelope(node_id, attempt, exc)


def _run_node(payload):
    node = NodeSpec.from_dict(payload["node"])
    capture_path = payload.get("capture_path")
    check_invariants = bool(payload.get("check_invariants", False))
    telemetry = _telemetry_config(payload, node.node_id)
    with observe(trace=capture_path is not None,
                 check_invariants=check_invariants) as session:
        summary = run_soak(
            node.scenario,
            seed=node_seed(payload["root_seed"], node.node_id),
            duration_ns=int(payload["duration_ns"]),
            drain_ns=int(payload["drain_ns"]),
            dp_slo_us=float(payload["dp_slo_us"]),
            fault_scale=float(payload.get("fault_scale", 1.0)),
            label=node.node_id,
            telemetry=telemetry,
            spans=bool(payload.get("spans", False)),
        )
        if capture_path is not None:
            write_jsonl(capture_path, session.streams)
            summary["capture_path"] = capture_path
        violations = session.violations() if check_invariants else []
        summary["metrics"] = _deterministic_metrics(session.metrics)
    summary["invariants"] = {
        "checked": check_invariants,
        "violations": len(violations),
        "ok": not violations,
    }
    if not payload.get("raw_samples", True):
        # The sketches carry the distributions; the arrays are the O(n)
        # payload the streaming pipeline exists to avoid shipping.
        del summary["dp_samples_us"]
        del summary["startup_samples_ms"]
    return summary


def _telemetry_config(payload, node_id):
    """Build the node's TelemetryConfig from its payload (or None)."""
    telemetry_dir = payload.get("telemetry_dir")
    if not telemetry_dir:
        return None
    from repro.obs.telemetry import TelemetryConfig

    return TelemetryConfig(
        interval_ms=float(payload.get("telemetry_interval_ms", 10.0)),
        jsonl_path=os.path.join(telemetry_dir,
                                f"{node_id}.telemetry.jsonl"),
        node_id=node_id,
    )


def _deterministic_metrics(registry):
    """Counters plus engine event totals — no wall-clock anywhere.

    ``sim.engine`` sources carry ``wall_time_s``; shipping that into node
    summaries would make reports differ run to run, so only the
    deterministic pieces survive.
    """
    snap = registry.snapshot()
    engine_events = 0
    engine_skipped = 0
    for name, profile in snap["sources"].items():
        if name.split("#")[0] == "sim.engine":
            engine_events += profile["events_processed"]
            engine_skipped += profile.get("events_skipped", 0)
    return {"counters": snap["counters"], "engine_events": engine_events,
            "engine_events_skipped": engine_skipped}
