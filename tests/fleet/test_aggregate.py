"""Aggregation math: fleet blocks must equal stats over the pooled samples."""

from repro.fleet import aggregate_fleet, aggregate_nodes, worst_nodes
from repro.metrics.stats import attainment_pct, summarize


def _node(node_id, deployment, dp_samples, startups, dp_slo=100.0,
          startup_slo=250.0, overdue=0, violations=0):
    dp_within = sum(1 for v in dp_samples if v <= dp_slo)
    startup_within = sum(1 for v in startups if v <= startup_slo)
    total = len(startups) + overdue
    return {
        "node_id": node_id,
        "deployment": deployment,
        "traffic": "bursty",
        "dp_samples_us": list(dp_samples),
        "dp_latency_us": summarize(dp_samples, qs=(50, 90, 99, 99.9)),
        "dp_within_slo": dp_within,
        "startup_samples_ms": sorted(startups),
        "startup_ms": summarize(startups, qs=(50, 90, 99)),
        "startup_within_slo": startup_within,
        "startup_slo_total": total,
        "startup_slo_attainment_pct": attainment_pct(startup_within, total),
        "vms_started": len(startups),
        "vms_requested": len(startups) + overdue,
        "faults": {"injected": 0, "cleared": 0},
        "invariants": {"checked": True, "violations": violations,
                       "ok": violations == 0},
    }


def test_attainment_pct_vacuous_is_100():
    assert attainment_pct(0, 0) == 100.0
    assert attainment_pct(3, 4) == 75.0


def test_aggregate_equals_pooled_raw_samples():
    a = _node("a", "taichi", [10.0, 20.0, 300.0], [100.0, 200.0])
    b = _node("b", "static", [50.0, 400.0], [300.0], overdue=2)
    block = aggregate_nodes([a, b])
    pooled_dp = [10.0, 20.0, 300.0, 50.0, 400.0]
    assert block["dp_latency_us"] == summarize(pooled_dp, qs=(50, 90, 99, 99.9))
    # 3 of 5 pooled samples within the 100us SLO.
    assert block["dp_slo_attainment_pct"] == 100.0 * 3 / 5
    # startups: within = 2 (a) + 0 (b); total = 2 + (1 + 2 overdue) = 5.
    assert block["startup_slo_attainment_pct"] == 100.0 * 2 / 5
    assert block["startup_ms"] == summarize([100.0, 200.0, 300.0],
                                            qs=(50, 90, 99))
    assert block["vms_started"] == 3
    assert block["vms_requested"] == 5
    assert block["invariants_ok"]


def test_aggregate_is_not_mean_of_percentiles():
    # One sharp node + one awful node: the fleet p99 must track the awful
    # node's tail, not the average of the two p99s.
    sharp = _node("sharp", "taichi", [10.0] * 99 + [20.0], [])
    awful = _node("awful", "static", [10.0] * 50 + [5000.0] * 50, [])
    block = aggregate_nodes([sharp, awful])
    mean_of_p99s = (sharp["dp_latency_us"]["p99"]
                    + awful["dp_latency_us"]["p99"]) / 2
    assert block["dp_latency_us"]["p99"] > mean_of_p99s


def test_worst_nodes_and_classes():
    a = _node("a", "taichi", [10.0], [100.0])
    b = _node("b", "static", [900.0], [400.0])
    c = _node("c", "static", [20.0], [])  # no startups: not a candidate
    report = aggregate_fleet([a, b, c])
    assert report["worst_nodes"]["dp_p99"]["node_id"] == "b"
    assert report["worst_nodes"]["startup_attainment"]["node_id"] == "b"
    assert set(report["classes"]) == {"static", "taichi"}
    assert report["classes"]["static"]["nodes"] == 2
    assert report["fleet"]["nodes"] == 3


def test_worst_nodes_empty_inputs():
    empty = _node("e", "taichi", [], [])
    assert worst_nodes([empty]) == {}


def test_violations_roll_up():
    good = _node("g", "taichi", [1.0], [])
    bad = _node("x", "taichi", [1.0], [], violations=3)
    block = aggregate_nodes([good, bad])
    assert block["invariant_violations"] == 3
    assert not block["invariants_ok"]


# -- sketch aggregation path ---------------------------------------------------


def _sketched(node, alpha=0.01):
    """Attach the sketches a real sketch-shipping node carries."""
    from repro.metrics.sketch import QuantileSketch

    node = dict(node)
    node["dp_sketch"] = QuantileSketch(alpha).extend(
        node["dp_samples_us"]).to_dict()
    node["dp_slo_total"] = len(node["dp_samples_us"])
    node["startup_sketch"] = QuantileSketch(alpha).extend(
        sorted(node["startup_samples_ms"])).to_dict()
    del node["dp_samples_us"]
    del node["startup_samples_ms"]
    return node


def test_sketch_path_matches_raw_within_alpha():
    import numpy as np

    rng = np.random.default_rng(9)
    raw_nodes = [
        _node("a", "taichi", list(rng.exponential(80.0, 400)),
              list(rng.normal(200.0, 20.0, 50).clip(min=1.0))),
        _node("b", "static", list(rng.exponential(400.0, 300)),
              list(rng.normal(350.0, 40.0, 30).clip(min=1.0))),
    ]
    raw_block = aggregate_nodes(raw_nodes)
    sketch_block = aggregate_nodes([_sketched(n) for n in raw_nodes])

    assert "dp_sketch" in sketch_block and "startup_sketch" in sketch_block
    assert sketch_block["dp_latency_us"]["count"] == \
        raw_block["dp_latency_us"]["count"]
    # Attainment pools exact counts on both paths.
    assert sketch_block["dp_slo_attainment_pct"] == \
        raw_block["dp_slo_attainment_pct"]
    assert sketch_block["startup_slo_attainment_pct"] == \
        raw_block["startup_slo_attainment_pct"]
    # Percentiles agree within the sketch's relative-error bound (a
    # little slack for the raw path's linear interpolation).
    for key, qs in (("dp_latency_us", ("p50", "p99")),
                    ("startup_ms", ("p50", "p99"))):
        for q in qs:
            exact = raw_block[key][q]
            assert abs(sketch_block[key][q] - exact) <= 0.03 * exact


def test_sketch_merge_order_is_spec_order():
    import json

    from repro.metrics.sketch import QuantileSketch, merge_sketch_dicts

    nodes = [_sketched(_node(f"n{i}", "taichi",
                             [10.0 * (i + 1), 250.0 / (i + 1)], []))
             for i in range(3)]
    block = aggregate_nodes(nodes)
    expected = merge_sketch_dicts([n["dp_sketch"] for n in nodes])
    assert json.dumps(block["dp_sketch"], sort_keys=True) == \
        json.dumps(expected.to_dict(), sort_keys=True)


def test_mixed_nodes_fall_back_to_raw_path():
    # One hand-built summary without sketches forces the exact raw pool.
    with_sketch = _sketched(_node("a", "taichi", [10.0, 20.0], [100.0]))
    without = _node("b", "static", [50.0], [300.0])
    block = aggregate_nodes([with_sketch, without])
    assert "dp_sketch" not in block
    # The raw pool only sees node b's samples (node a shipped none), so
    # the count reflects the samples actually present.
    assert block["dp_latency_us"]["count"] == 1


def test_zero_sample_class_reports_count_zero():
    idle = _sketched(_node("idle", "taichi", [], []))
    block = aggregate_nodes([idle])
    assert block["dp_latency_us"] == {"count": 0}
    assert block["startup_ms"] == {"count": 0}
    assert block["dp_slo_attainment_pct"] == 100.0   # vacuous
    assert block["startup_slo_attainment_pct"] == 100.0


def test_failures_produce_degraded_block():
    a = _node("a", "taichi", [10.0, 20.0], [100.0])
    failure = {"node_id": "b", "kind": "exception", "attempts": 2,
               "error": "ValueError('x')", "traceback": []}
    out = aggregate_fleet([a], failures=[failure], expected_nodes=2)
    assert out["degraded"] is True
    assert out["coverage"] == {"expected": 2, "completed": 1,
                               "fraction": 0.5}
    assert out["failed_nodes"] == [failure]
    # SLOs are scored over the survivors only.
    assert out["fleet"]["nodes"] == 1


def test_failed_nodes_sorted_by_node_id():
    a = _node("a", "taichi", [10.0], [100.0])
    failures = [
        {"node_id": "z", "kind": "crash", "attempts": 1, "error": "e",
         "traceback": []},
        {"node_id": "b", "kind": "exception", "attempts": 3, "error": "e",
         "traceback": []},
    ]
    out = aggregate_fleet([a], failures=failures, expected_nodes=3)
    assert [f["node_id"] for f in out["failed_nodes"]] == ["b", "z"]
    assert out["coverage"]["fraction"] == 1 / 3


def test_no_failures_no_degraded_keys():
    a = _node("a", "taichi", [10.0], [100.0])
    out = aggregate_fleet([a], failures=[], expected_nodes=1)
    assert "degraded" not in out
    assert "coverage" not in out
    assert "failed_nodes" not in out
