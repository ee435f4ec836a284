"""The arm registry: every arm builds, knobs validate, errors help."""

import pytest

from repro.baselines import DEPLOYMENTS, build_deployment
from repro.core import TaiChiConfig
from repro.scenario import ARMS, arm_names, build, build_arm, get_arm, is_arm


def test_every_registered_arm_builds_with_defaults():
    for name, arm in ARMS.items():
        deployment = build_arm(name)
        assert isinstance(deployment, arm.cls), name
        assert deployment.services, name


def test_registry_covers_all_deployment_classes():
    assert {arm.cls for arm in ARMS.values()} == set(DEPLOYMENTS.values())


def test_baseline_alias_resolves_to_static():
    assert get_arm("baseline") is get_arm("static")
    assert is_arm("baseline")
    deployment = build("baseline")
    assert isinstance(deployment, DEPLOYMENTS["static"])


def test_arm_names_include_aliases():
    names = arm_names()
    assert "baseline" in names
    assert "static" in names
    assert arm_names(include_aliases=False) == sorted(ARMS)


def test_unknown_arm_lists_choices():
    with pytest.raises(ValueError, match="unknown arm 'warp'") as exc:
        build_arm("warp")
    assert "taichi" in str(exc.value)


def test_unknown_knob_reports_arm_and_accepted_set():
    with pytest.raises(ValueError, match="arm 'static' does not accept") as exc:
        build_arm("static", taichi_config=TaiChiConfig())
    message = str(exc.value)
    assert "taichi_config" in message
    assert "accepted knobs" in message
    assert "dp_kind" in message


def test_build_deployment_goes_through_the_registry():
    deployment = build_deployment("taichi")
    assert isinstance(deployment, DEPLOYMENTS["taichi"])
    with pytest.raises(ValueError, match="does not accept knob"):
        build_deployment("naive", guest_tax=0.5)


def test_dp_boost_repartitions_after_warmup():
    plain = build("taichi")
    boosted = build("taichi", dp_boost=2)
    assert len(boosted.services) == len(plain.services) + 2
    # The extra services run on CPUs harvested from the CP partition.
    moved = ({service.cpu_id for service in boosted.services}
             - {service.cpu_id for service in plain.services})
    assert moved <= set(plain.board.cp_cpu_ids)


def test_dp_boost_rejected_on_non_taichi_arms():
    with pytest.raises(ValueError, match="does not accept knob"):
        build("baseline", dp_boost=2)


def test_degradation_knob_installs_the_layer():
    deployment = build("taichi", degradation=True)
    assert deployment.taichi.degradation is not None
    assert build("taichi").taichi.degradation is None


def test_dict_knobs_are_coerced_to_dataclasses():
    deployment = build("taichi", taichi_config={"adaptive_threshold": False})
    assert deployment.taichi.config.adaptive_threshold is False
    deployment = build(
        "baseline",
        board_config={"accelerator": {"preprocess_ns": 2_700,
                                      "transfer_ns": 500}})
    assert deployment.board.config.accelerator.preprocess_ns == 2_700


@pytest.mark.parametrize("knobs, message", [
    ({"engine": {"bogus": 1}}, "knob 'engine' has no field 'bogus'"),
    ({"taichi_config": {"slice_ns": 1}},
     "knob 'taichi_config' has no field 'slice_ns'"),
    ({"taichi_config": {"costs": {"vmentry_ns": 1}}},
     "knob 'taichi_config.costs' has no field 'vmentry_ns'"),
    ({"board_config": {"accelerator": {"stall": 1}}},
     "knob 'board_config.accelerator' has no field 'stall'"),
    ({"board_config": {"kernel": {"hz": 1}}},
     "knob 'board_config.kernel' has no field 'hz'"),
    ({"board_config": {"n_cpus": 1}},
     "knob 'board_config' has no field 'n_cpus'"),
    ({"dp_params": {"poll": 1}}, "knob 'dp_params' has no field 'poll'"),
])
def test_dataclass_knobs_reject_unknown_fields_by_name(knobs, message):
    from repro.scenario import Scenario

    scenario = Scenario.from_dict({"arm": "taichi", "knobs": knobs})
    with pytest.raises(ValueError, match=message):
        scenario.build()
