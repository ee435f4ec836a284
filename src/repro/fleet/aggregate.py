"""Merge per-node summaries into fleet-wide results.

The merge never averages per-node percentiles: averaging a p99 across
nodes is not the fleet p99 (the tail of the worst node dominates).  Two
exact-in-their-own-terms paths exist:

* **sketch path** (default) — every node ships mergeable
  :class:`~repro.metrics.sketch.QuantileSketch` snapshots of its dp
  rx-wait and VM-startup distributions; the aggregator merges them *in
  spec order* (the float ``sum`` makes merge order observable) and
  queries the merged sketch.  O(buckets) per node instead of O(samples),
  which is what lets a pod-scale fleet aggregate without shipping raw
  arrays; quantiles are within the sketch's relative-error bound
  ``alpha`` of the pooled-raw order statistics.
* **raw path** (``raw_samples`` fleets, and hand-built summaries) — the
  historical pooled-raw-sample re-summarize, kept bit-for-bit so
  existing callers see unchanged numbers.

SLO attainment always pools exact within/total counts (nodes ship them
as scalars), so attainment is exact on both paths.  Three views come out
of one pass: ``fleet`` (whole rack/pod), ``classes`` (per deployment
class — the Wave-style comparison), and ``worst_nodes`` (who to page;
ties break on node_id so reports stay deterministic).
"""

from repro.metrics.sketch import is_sketch_dict, merge_sketch_dicts
from repro.metrics.stats import attainment_pct, summarize

_DP_QS = (50, 90, 99, 99.9)
_STARTUP_QS = (50, 90, 99)


def _sketch_block(nodes, key, qs):
    """Merged-sketch summary block (or None if any node lacks the sketch)."""
    dicts = [node.get(key) for node in nodes]
    if not all(is_sketch_dict(data) for data in dicts):
        return None
    merged = merge_sketch_dicts(dicts)
    block = merged.summary(qs=qs)
    return block, merged.to_dict()


def _pooled(blocks):
    """Distributions, exact SLO attainment and VM counts over ``blocks``.

    ``blocks`` are node summaries or one tenant's blocks from several
    nodes: both carry the same keys.  Returns the pooled keys and, apart,
    the merged sketches (empty on the raw path).
    """
    dp_merged = _sketch_block(blocks, "dp_sketch", _DP_QS)
    if dp_merged is not None:
        dp_block, dp_sketch = dp_merged
        dp_total = sum(block.get("dp_slo_total",
                                 len(block.get("dp_samples_us") or []))
                       for block in blocks)
    else:
        dp_pool = [value for block in blocks
                   for value in block.get("dp_samples_us") or []]
        dp_block, dp_sketch = summarize(dp_pool, qs=_DP_QS), None
        dp_total = len(dp_pool)
    dp_within = sum(block["dp_within_slo"] for block in blocks)

    startup_merged = _sketch_block(blocks, "startup_sketch", _STARTUP_QS)
    if startup_merged is not None:
        startup_block, startup_sketch = startup_merged
    else:
        startup_pool = [value for block in blocks
                        for value in block.get("startup_samples_ms") or []]
        startup_block, startup_sketch = (
            summarize(startup_pool, qs=_STARTUP_QS), None)
    startup_within = sum(block["startup_within_slo"] for block in blocks)
    startup_total = sum(block["startup_slo_total"] for block in blocks)

    pooled = {
        "dp_latency_us": dp_block,
        "dp_slo_attainment_pct": attainment_pct(dp_within, dp_total),
        "startup_ms": startup_block,
        "startup_slo_attainment_pct": attainment_pct(startup_within,
                                                     startup_total),
        "vms_started": sum(block["vms_started"] for block in blocks),
        "vms_requested": sum(block["vms_requested"] for block in blocks),
    }
    sketches = {}
    if dp_sketch is not None:
        sketches["dp_sketch"] = dp_sketch
    if startup_sketch is not None:
        sketches["startup_sketch"] = startup_sketch
    return pooled, sketches


def aggregate_nodes(nodes):
    """One aggregate block over a list of node summaries."""
    pooled, sketches = _pooled(nodes)
    return {
        "nodes": len(nodes),
        "node_ids": [node["node_id"] for node in nodes],
        **pooled,
        "faults_injected": sum(node["faults"]["injected"] for node in nodes),
        "invariant_violations":
            sum(node["invariants"]["violations"] for node in nodes),
        "invariants_ok": all(node["invariants"]["ok"] for node in nodes),
        **sketches,
    }


def aggregate_tenants(nodes):
    """Merge per-tenant blocks across nodes: one block per tenant id.

    A tenant's blocks pool exactly as node summaries do: sketches merge
    in node order, attainment pools exact within/total counts.  Nodes
    without tenant blocks contribute nothing — a mixed fleet aggregates
    the tenants of the multi-tenant nodes only.
    """
    by_tenant = {}
    for node in nodes:
        for tid, block in (node.get("tenants") or {}).items():
            by_tenant.setdefault(tid, []).append(block)
    out = {}
    for tid in sorted(by_tenant):
        blocks = by_tenant[tid]
        pooled, sketches = _pooled(blocks)
        out[tid] = {
            "nodes": len(blocks),
            "weight": blocks[0]["weight"],
            **pooled,
            "granted_ns": sum(block["granted_ns"] for block in blocks),
            **sketches,
        }
    return out


def worst_nodes(nodes):
    """The pageable offenders: worst DP p99, worst startup attainment."""
    with_dp = [node for node in nodes
               if node["dp_latency_us"].get("count", 0)]
    with_startups = [node for node in nodes if node["vms_started"]]
    worst = {}
    if with_dp:
        node = max(with_dp, key=lambda n: (n["dp_latency_us"]["p99"],
                                           n["node_id"]))
        worst["dp_p99"] = {"node_id": node["node_id"],
                           "value_us": node["dp_latency_us"]["p99"]}
    if with_startups:
        node = min(with_startups,
                   key=lambda n: (n["startup_slo_attainment_pct"],
                                  n["node_id"]))
        worst["startup_attainment"] = {
            "node_id": node["node_id"],
            "value_pct": node["startup_slo_attainment_pct"],
        }
    return worst


#: Fleet-wide worst-request table depth (per channel).
_WORST_REQUESTS_K = 8


def worst_requests(nodes, k=_WORST_REQUESTS_K):
    """Pool per-node tail exemplars into the fleet worst-request table.

    Only nodes that ran with spans on ship an ``exemplars`` block; the
    pool keeps the compact fields (who, where, how long, what dominated)
    and drops the per-request span trees — the node summary still has
    those.  Sort is ``(-duration_ns, node_id, request)`` so the table is
    deterministic at any ``--jobs`` level.
    """
    pooled = {}
    for node in nodes:
        for channel, records in (node.get("exemplars") or {}).items():
            bucket = pooled.setdefault(channel, [])
            for record in records:
                bucket.append({
                    "node_id": node["node_id"],
                    "request": record["request"],
                    "duration_ns": record["duration_ns"],
                    "dominant": record["dominant"],
                    "dominant_pct": record["dominant_pct"],
                    "segments": dict(record["segments"]),
                })
    out = {}
    for channel in sorted(pooled):
        bucket = sorted(
            pooled[channel],
            key=lambda r: (-r["duration_ns"], r["node_id"], r["request"]))
        out[channel] = bucket[:k]
    return out


def aggregate_fleet(nodes, failures=None, expected_nodes=None):
    """The full fleet report block: fleet + per-class + worst nodes.

    ``failures`` (a list of normalized failure envelopes — node id,
    kind, attempts, error, traceback tail) makes the aggregate accept a
    *partial* fleet: every statistic and SLO-attainment figure is
    computed over the surviving nodes only, and the block gains a
    ``failed_nodes`` table (sorted by node id), ``degraded: true`` and
    a ``coverage`` fraction against ``expected_nodes`` (defaults to
    survivors + failures).  A failure-free fleet emits none of these
    keys, keeping healthy reports byte-identical to pre-durability
    ones.
    """
    classes = {}
    for node in nodes:
        classes.setdefault(node["deployment"], []).append(node)
    out = {
        "fleet": aggregate_nodes(nodes),
        "classes": {name: aggregate_nodes(members)
                    for name, members in sorted(classes.items())},
        "worst_nodes": worst_nodes(nodes),
    }
    requests = worst_requests(nodes)
    if requests:
        # Only present on spans-on fleets, keeping spans-off reports
        # byte-identical to pre-span ones.
        out["worst_requests"] = requests
    tenants = aggregate_tenants(nodes)
    if tenants:
        # Only present when some node ran multi-tenant, keeping
        # single-tenant fleet reports byte-identical to pre-tenancy ones.
        out["tenants"] = tenants
    failures = list(failures or ())
    if failures:
        expected = (int(expected_nodes) if expected_nodes is not None
                    else len(nodes) + len(failures))
        out["degraded"] = True
        out["coverage"] = {
            "expected": expected,
            "completed": len(nodes),
            "fraction": len(nodes) / expected if expected else 0.0,
        }
        out["failed_nodes"] = sorted(
            (dict(failure) for failure in failures),
            key=lambda failure: failure["node_id"])
    return out
