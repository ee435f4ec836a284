"""The one soak driver: summary shape, determinism, startup accounting."""

from types import SimpleNamespace

from repro.scenario import Scenario, arm_override, arms_under_test, run_soak
from repro.scenario.session import current_arms, parse_arm_list
from repro.scenario.soak import startup_block, startup_counts
from repro.sim.units import MILLISECONDS

import pytest


def _small_soak(**kwargs):
    scenario = Scenario(**kwargs)
    return run_soak(scenario, seed=11, duration_ns=30 * MILLISECONDS,
                    drain_ns=15 * MILLISECONDS, label="soak-test")


def test_summary_shape():
    summary = _small_soak(arm="taichi")
    assert summary["node_id"] == "soak-test"
    assert summary["deployment"] == "taichi"
    assert summary["dp_sample_count"] > 0
    assert set(summary["dp_latency_us"]) >= {"count", "p50", "p99", "p99.9"}
    assert 0.0 <= summary["dp_slo_attainment_pct"] <= 100.0
    assert 0.0 <= summary["startup_slo_attainment_pct"] <= 100.0
    assert summary["faults"] == {"injected": 0, "cleared": 0}


def _vm(issued_ns, startup_ns=None):
    return SimpleNamespace(request=SimpleNamespace(t_issued=issued_ns),
                           startup_time_ns=lambda: startup_ns)


def test_startup_counts_censor_young_pending_and_count_overdue():
    slo_ns = 100
    vms = [_vm(0, 80), _vm(0, 120), _vm(0, 100),   # within, late, within
           _vm(10),                                 # pending, overdue
           _vm(150)]                                # pending, still young
    assert startup_counts(vms, now_ns=200, slo_ns=slo_ns) == (2, 4, 1)
    block, samples_ms = startup_block(vms, now_ns=200, slo_ns=slo_ns)
    assert samples_ms == sorted(samples_ms) and len(samples_ms) == 3
    assert block["startup_slo_total"] == 4
    assert block["startup_overdue_pending"] == 1
    assert block["startup_slo_attainment_pct"] == 50.0
    assert startup_counts([], now_ns=0, slo_ns=slo_ns) == (0, 0, 0)


def test_soak_is_deterministic():
    assert _small_soak(arm="taichi") == _small_soak(arm="taichi")


def test_faulted_soak_reports_injections():
    # The probe_outage preset fires at 50 ms; compress it into the 30 ms
    # soak window the same way the fleet runner scales plans with --scale.
    scenario = Scenario(arm="taichi", faults="probe_outage",
                        degradation=True)
    summary = run_soak(scenario, seed=11, duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS, fault_scale=0.4,
                       label="soak-test")
    assert summary["faults"]["injected"] > 0


def test_every_traffic_profile_runs():
    for traffic in ("steady", "bursty", "spiky"):
        summary = _small_soak(arm="baseline", traffic=traffic)
        assert summary["traffic"] == traffic


# -- The --arm override plumbing ----------------------------------------------------

def test_arms_under_test_defaults_without_override():
    assert current_arms() is None
    assert arms_under_test(("baseline", "taichi")) == ("baseline", "taichi")


def test_arm_override_scopes_and_restores():
    with arm_override(["taichi-vdp"]):
        assert arms_under_test(("baseline", "taichi")) == ("taichi-vdp",)
        with arm_override(None):  # None clears the override for its scope
            assert current_arms() is None
        assert current_arms() == ("taichi-vdp",)
    assert current_arms() is None


def test_arm_override_validates_names():
    with pytest.raises(ValueError, match="unknown arm"):
        with arm_override(["baseline", "nope"]):
            pass


def test_parse_arm_list():
    assert parse_arm_list("baseline, taichi") == ("baseline", "taichi")
    with pytest.raises(ValueError, match="unknown arm"):
        parse_arm_list("baseline,bogus")
    with pytest.raises(ValueError, match="at least one"):
        parse_arm_list(" , ")


def test_spans_off_summary_has_no_span_keys():
    summary = run_soak(Scenario(arm="taichi"), seed=0,
                       duration_ns=40 * MILLISECONDS,
                       drain_ns=20 * MILLISECONDS)
    assert "exemplars" not in summary
    assert "spans" not in summary


def test_spans_on_summary_carries_bounded_exemplars():
    summary = run_soak(Scenario(arm="taichi"), seed=0,
                       duration_ns=80 * MILLISECONDS,
                       drain_ns=40 * MILLISECONDS, spans=True,
                       exemplar_k=2)
    assert summary["spans"]["completed"] > 0
    exemplars = summary["exemplars"]
    assert "dp" in exemplars
    for channel, records in exemplars.items():
        assert 1 <= len(records) <= 2          # bounded at K
        for record in records:
            assert sum(hi - lo for _n, lo, hi in record["parts"]) == \
                record["duration_ns"]
            assert record["dominant"] in record["segments"]


def test_alert_raised_references_live_exemplars():
    from repro.obs import observe

    scenario = Scenario(arm="taichi", alerts=[
        {"name": "dp_touchy", "signal": "dp_rx_wait_us_p99",
         "threshold": 0.000001, "hold": 1},
    ])
    with observe(trace=True) as session:
        summary = run_soak(scenario, seed=0,
                           duration_ns=80 * MILLISECONDS,
                           drain_ns=40 * MILLISECONDS, label="alert-spans",
                           spans=True)
    assert summary["telemetry"]["alerts"]["raised"] >= 1
    raised = [event for _label, tracer in session.streams
              for event in tracer if event.kind == "alert.raised"]
    assert raised
    exemplar_ids = raised[0].detail["exemplars"]
    assert exemplar_ids
    assert all(request.startswith("pkt-") for request in exemplar_ids)
