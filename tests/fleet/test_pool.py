"""pool_imap / pool_outcomes: ordering, error wrapping, containment."""

import time

import pytest

from repro.fleet import Outcome, PoolTaskError, pool_imap, pool_outcomes
from repro.fleet.durability import RetryPolicy, is_failure_envelope


# Workers must be module-level for the process-pool pickle contract.

def _square(payload):
    return payload * payload


def _sleep_inverse(payload):
    # Later payloads finish first: completion order is the reverse of
    # input order, so in-order delivery is actually exercised.
    index, count = payload
    time.sleep(0.05 * (count - index))
    return index


def _boom_on_two(payload):
    if payload == 2:
        raise ValueError("payload two is cursed")
    return payload


def _envelope_below(payload):
    # Containment-style worker: returns a failure envelope on its first
    # attempts instead of raising (the fleet node contract).
    value, threshold = payload["value"], payload["threshold"]
    if payload["attempt"] < threshold:
        return {"__fleet_failure__": True, "node_id": str(value),
                "attempt": payload["attempt"], "kind": "exception",
                "error": "not yet", "traceback": []}
    return f"ok-{value}"


def _prepare(payload, attempt, parallel):
    return {**payload, "attempt": attempt, "parallel": parallel}


def test_serial_and_parallel_agree():
    payloads = list(range(6))
    expected = [_square(p) for p in payloads]
    assert list(pool_imap(_square, payloads, jobs=1)) == expected
    assert list(pool_imap(_square, payloads, jobs=3)) == expected


def test_more_jobs_than_payloads():
    # The pool must clamp workers to the payload count, not reject.
    assert list(pool_imap(_square, [1, 2, 3], jobs=16)) == [1, 4, 9]


def test_empty_payload_list():
    assert list(pool_imap(_square, [], jobs=4)) == []
    assert list(pool_imap(_square, [], jobs=1)) == []


def test_input_order_despite_reverse_completion():
    count = 4
    payloads = [(index, count) for index in range(count)]
    assert list(pool_imap(_sleep_inverse, payloads, jobs=count)) \
        == list(range(count))


@pytest.mark.parametrize("jobs", [1, 3])
def test_worker_error_wrapped_with_index_and_label(jobs):
    with pytest.raises(PoolTaskError) as excinfo:
        list(pool_imap(_boom_on_two, [0, 1, 2, 3], jobs=jobs,
                       label=lambda payload: f"node-{payload}"))
    err = excinfo.value
    assert err.index == 2
    assert err.label == "node-2"
    assert isinstance(err.cause, ValueError)
    assert "node-2" in str(err) and "payload 2" in str(err)


def test_worker_error_without_label_names_index():
    with pytest.raises(PoolTaskError, match="payload 1"):
        list(pool_imap(_boom_on_two, [0, 2], jobs=1))


# -- pool_outcomes -------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_contain_failures(jobs):
    outcomes = pool_outcomes(_boom_on_two, [0, 1, 2, 3], jobs=jobs,
                             label=lambda payload: f"n{payload}")
    assert [outcome.ok for outcome in outcomes] == [True, True, False, True]
    failed = outcomes[2]
    assert isinstance(failed, Outcome)
    assert failed.label == "n2"
    assert failed.failure["kind"] == "exception"
    assert "cursed" in failed.failure["error"]
    assert failed.attempts == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_retry_recovers_transients(jobs):
    # threshold=2: the first attempt returns an envelope, the second
    # succeeds — attempt numbers are delivered by prepare(), so the
    # worker is stateless and the behavior is jobs-independent.
    payloads = [{"value": value, "threshold": 2 if value == 1 else 1}
                for value in range(3)]
    outcomes = pool_outcomes(_envelope_below, payloads, jobs=jobs,
                             retry=RetryPolicy(max_attempts=3),
                             prepare=_prepare, classify=is_failure_envelope)
    assert [outcome.value for outcome in outcomes] == [
        "ok-0", "ok-1", "ok-2"]
    assert [outcome.attempts for outcome in outcomes] == [1, 2, 1]


def test_outcomes_exhausted_retries_keep_last_envelope():
    payloads = [{"value": 7, "threshold": 99}]
    outcomes = pool_outcomes(_envelope_below, payloads, jobs=1,
                             retry=RetryPolicy(max_attempts=2),
                             prepare=_prepare, classify=is_failure_envelope)
    outcome = outcomes[0]
    assert not outcome.ok
    assert outcome.attempts == 2
    assert outcome.failure["attempt"] == 2  # the envelope of the last try


def test_outcomes_on_outcome_fires_once_per_payload():
    seen = []
    pool_outcomes(_square, [1, 2, 3], jobs=1,
                  on_outcome=lambda outcome: seen.append(outcome.index))
    assert sorted(seen) == [0, 1, 2]


def test_outcomes_empty_payloads():
    assert pool_outcomes(_square, [], jobs=4) == []


# -- scheduling edges ----------------------------------------------------------

_RAN = []


def _record_then_boom_on_two(payload):
    # Serial runs execute in this process, so the module list shows
    # exactly which payloads ran.
    _RAN.append(payload)
    return _boom_on_two(payload)


def _sleep_for(payload):
    time.sleep(payload)
    return payload


def test_serial_imap_stops_at_first_failure():
    _RAN.clear()
    results = []
    with pytest.raises(PoolTaskError) as excinfo:
        for value in pool_imap(_record_then_boom_on_two, [0, 1, 2, 3, 4],
                               jobs=1):
            results.append(value)
    assert excinfo.value.index == 2
    assert results == [0, 1]
    assert _RAN == [0, 1, 2]


def test_closing_serial_imap_runs_nothing_more():
    _RAN.clear()
    stream = pool_imap(_record_then_boom_on_two, [0, 1, 3, 4], jobs=1)
    assert next(stream) == 0
    stream.close()
    assert _RAN == [0]


def test_pooled_timeout_sheds_stuck_payload():
    outcomes = pool_outcomes(_sleep_for, [0.0, 3.0, 0.0], jobs=2,
                             retry=RetryPolicy(timeout_s=0.5))
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[1].failure["kind"] == "timeout"
    assert outcomes[1].attempts == 1
    assert [outcomes[0].value, outcomes[2].value] == [0.0, 0.0]


def test_serial_run_ignores_timeout():
    outcomes = pool_outcomes(_sleep_for, [0.0, 3.0, 0.0], jobs=1,
                             retry=RetryPolicy(timeout_s=0.5))
    assert all(outcome.ok for outcome in outcomes)
    assert [outcome.value for outcome in outcomes] == [0.0, 3.0, 0.0]
    assert [outcome.attempts for outcome in outcomes] == [1, 1, 1]
