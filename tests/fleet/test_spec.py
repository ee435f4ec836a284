"""Tests for FleetSpec / NodeSpec / presets."""

import pytest

from repro.faults import FaultPlan
from repro.fleet import (
    FleetSpec,
    NodeSpec,
    PRESETS,
    WorkloadMix,
    load_fleet_spec,
    uniform_spec,
)


def test_nodespec_defaults():
    node = NodeSpec(node_id="n0")
    assert node.scenario.arm == "taichi"
    assert node.scenario.traffic == "bursty"
    assert isinstance(node.scenario.workload, WorkloadMix)
    assert node.fault_plan() is None


def test_nodespec_rejects_unknown_deployment():
    with pytest.raises(ValueError, match="unknown deployment class"):
        NodeSpec(node_id="n0", deployment="bogus")


def test_nodespec_rejects_unknown_traffic():
    with pytest.raises(ValueError, match="unknown traffic profile"):
        NodeSpec(node_id="n0", traffic="tsunami")


def test_nodespec_rejects_unknown_fault_preset():
    with pytest.raises(ValueError, match="unknown fault preset"):
        NodeSpec(node_id="n0", faults="bogus_storm")


def test_nodespec_boost_and_degradation_need_taichi():
    with pytest.raises(ValueError, match="dp_boost requires"):
        NodeSpec(node_id="n0", deployment="static", dp_boost=2)
    with pytest.raises(ValueError, match="degradation requires"):
        NodeSpec(node_id="n0", deployment="static", degradation=True)
    # Fine on any Tai Chi-family class.
    NodeSpec(node_id="n0", deployment="taichi-vdp", dp_boost=1,
             degradation=True)


def test_flat_node_dict_still_loads():
    # The historical flat form loads into the embedded scenario; its
    # fields are read through node.scenario, not mirrored on the node.
    node = NodeSpec.from_dict({"node_id": "n0", "deployment": "static",
                               "traffic": "spiky", "faults": "probe_outage",
                               "workload": WorkloadMix(dp_utilization=0.5)})
    assert node.scenario.arm == "static"
    assert node.scenario.traffic == "spiky"
    assert node.scenario.faults == "probe_outage"
    assert node.scenario.workload.dp_utilization == 0.5
    assert not hasattr(node, "deployment")
    assert NodeSpec.from_dict(node.to_dict()).to_dict() == node.to_dict()


def test_nodespec_fault_preset_resolves():
    node = NodeSpec(node_id="n0", faults="probe_outage")
    plan = node.fault_plan()
    assert isinstance(plan, FaultPlan)
    assert plan.faults


def test_workload_mix_validation():
    with pytest.raises(ValueError, match="dp_utilization"):
        WorkloadMix(dp_utilization=1.5)
    with pytest.raises(ValueError, match="vm_batch_min"):
        WorkloadMix(vm_batch_min=9, vm_batch_max=4)


def test_fleet_rejects_duplicate_node_ids():
    with pytest.raises(ValueError, match="duplicate node_id"):
        FleetSpec(name="f", nodes=[NodeSpec(node_id="a"),
                                   NodeSpec(node_id="a")])


def test_fleet_rejects_empty():
    with pytest.raises(ValueError, match="at least one node"):
        FleetSpec(name="f", nodes=[])


def test_fleet_json_roundtrip(tmp_path):
    spec = FleetSpec.preset("rack")
    path = tmp_path / "rack.json"
    spec.to_json(path)
    loaded = FleetSpec.from_json(path)
    assert loaded.to_dict() == spec.to_dict()
    # Faults survive the trip as resolvable plans.
    faulted = [node for node in loaded.nodes if node.scenario.faults is not None]
    assert faulted and isinstance(faulted[0].fault_plan(), FaultPlan)


def test_fleet_dict_roundtrip_with_inline_fault_plan():
    plan = FaultPlan.preset("probe_outage")
    spec = FleetSpec(name="f", nodes=[
        NodeSpec(node_id="a", faults=plan.to_dict(), degradation=True),
    ])
    again = FleetSpec.from_dict(spec.to_dict())
    assert again.nodes[0].fault_plan().to_dict() == plan.to_dict()


def test_presets_shapes():
    rack = FleetSpec.preset("rack")
    assert len(rack) == 8
    classes = {node.scenario.arm for node in rack.nodes}
    assert classes == {"taichi", "static"}
    pod = FleetSpec.preset("pod")
    assert len(pod) == 64
    assert sum(node.scenario.arm == "static" for node in pod.nodes) == 16


def test_preset_unknown():
    with pytest.raises(ValueError, match="unknown fleet preset"):
        FleetSpec.preset("galaxy")


def test_subset_and_with_seed():
    rack = FleetSpec.preset("rack")
    small = rack.subset(3)
    assert [node.node_id for node in small.nodes] == \
        [node.node_id for node in rack.nodes[:3]]
    assert rack.with_seed(9).seed == 9
    assert rack.seed == 0  # original untouched
    with pytest.raises(ValueError, match="--nodes must be"):
        rack.subset(99)


def test_uniform_spec_same_node_ids_across_arms():
    a = uniform_spec("arm-a", "taichi", 4, dp_boost=2)
    b = uniform_spec("arm-b", "static", 4)
    assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]


def test_load_fleet_spec_dispatch(tmp_path):
    assert load_fleet_spec("rack").name == "rack"
    path = tmp_path / "custom.json"
    uniform_spec("custom", "taichi", 2).to_json(path)
    assert load_fleet_spec(str(path)).name == "custom"
    with pytest.raises(ValueError, match="preset"):
        load_fleet_spec("not-a-preset")
    assert set(PRESETS) == {"rack", "pod"}


def test_telemetry_fields_round_trip():
    spec = uniform_spec("t", "taichi", 2)
    assert spec.raw_samples is False          # sketches ship by default
    assert spec.telemetry_interval_ms == 10.0
    assert "raw_samples" not in spec.to_dict()
    assert "telemetry_interval_ms" not in spec.to_dict()

    tuned = FleetSpec(name="t", nodes=[NodeSpec(node_id="a")],
                      raw_samples=True, telemetry_interval_ms=2.5)
    data = tuned.to_dict()
    assert data["raw_samples"] is True
    assert data["telemetry_interval_ms"] == 2.5
    again = FleetSpec.from_dict(data)
    assert again.raw_samples is True
    assert again.telemetry_interval_ms == 2.5
    with pytest.raises(ValueError, match="telemetry_interval_ms"):
        FleetSpec(name="t", nodes=[NodeSpec(node_id="a")],
                  telemetry_interval_ms=0)


def test_spans_flag_round_trips_sparsely():
    from repro.fleet.spec import FleetSpec, NodeSpec

    spec = FleetSpec(name="s", nodes=[NodeSpec("n0")])
    assert "spans" not in spec.to_dict()          # default stays sparse
    spec.spans = True
    data = spec.to_dict()
    assert data["spans"] is True
    restored = FleetSpec.from_dict(data)
    assert restored.spans is True
