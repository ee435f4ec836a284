"""Process-pool fan-out shared by the fleet runner and ``validate --jobs``.

Two layers with different failure contracts:

* :func:`pool_imap` — the historical streaming API:
  results come back in *input* order regardless of completion order,
  ``jobs <= 1`` (or a single item) never touches ``multiprocessing``,
  and a worker exception aborts the stream — but wrapped in a
  :class:`PoolTaskError` naming the payload index (and label) that
  failed, instead of the bare traceback ``pool.map`` used to surface.
* :func:`pool_outcomes` — the durable API the fleet runner uses: every
  payload runs to a structured :class:`Outcome` (success value or a
  typed failure), failures are *contained* per payload instead of
  shared, a :class:`~repro.fleet.durability.RetryPolicy` re-runs failed
  attempts with backoff, a broken process pool is rebuilt and charged
  as a ``crash`` attempt against the nodes that were in flight, and a
  per-attempt wall-clock timeout sheds stuck workers.

Workers must be module-level functions taking one picklable payload and
returning one picklable result (the ``ProcessPoolExecutor`` contract).
"""

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.fleet.durability import RetryPolicy, failure_envelope

#: Floor for the event-loop wait slice when deadlines/backoffs are armed.
_MIN_WAIT_S = 0.01
#: Ceiling so a far-off deadline still lets completed futures drain.
_MAX_WAIT_S = 0.5


class PoolTaskError(RuntimeError):
    """A worker raised: carries which payload failed and the cause.

    Even on the final failed attempt the caller learns *which* unit of
    work died — ``index`` into the payload list and, when the caller
    supplied a ``label`` function, the originating node/experiment id.
    """

    def __init__(self, index, label, cause):
        self.index = index
        self.label = label
        self.cause = cause
        what = f"payload {index}"
        if label is not None:
            what += f" ({label!r})"
        super().__init__(f"pool worker failed on {what}: {cause!r}")


def pool_imap(fn, payloads, jobs=1, label=None):
    """Yield ``fn(payload)`` for each payload, in input order.

    With ``jobs > 1`` payloads are fanned out across a process pool via
    explicit future submission; consumption drives delivery, so callers
    can print progress as each in-order result lands.  A worker
    exception surfaces as :class:`PoolTaskError` naming the payload
    (remaining futures are cancelled); ``label`` maps a payload to a
    human-readable name for that error.
    """
    payloads = list(payloads)

    def _label(index):
        return label(payloads[index]) if label is not None else None

    if jobs <= 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            try:
                yield fn(payload)
            except Exception as exc:
                raise PoolTaskError(index, _label(index), exc) from exc
        return
    with ProcessPoolExecutor(max_workers=min(int(jobs),
                                             len(payloads))) as pool:
        futures = [pool.submit(fn, payload) for payload in payloads]
        for index, future in enumerate(futures):
            try:
                yield future.result()
            except Exception as exc:
                for pending in futures[index + 1:]:
                    pending.cancel()
                raise PoolTaskError(index, _label(index), exc) from exc


# -- The durable outcome API ---------------------------------------------------


@dataclass
class Outcome:
    """One payload's terminal result: a value or a typed failure."""

    index: int
    label: object = None
    value: object = None
    failure: dict = None
    attempts: int = 1

    @property
    def ok(self):
        return self.failure is None


@dataclass
class _Task:
    index: int
    payload: object
    label: object = None
    attempt: int = 1
    eligible_at: float = 0.0
    deadline: float = field(default=None)


def _raised_failure(exc, kind="exception"):
    """Parent-side failure record for an exception a worker *raised*.

    The backstop path: well-behaved fleet workers catch their own
    exceptions and return an envelope (so the traceback is captured at
    the raise site); this covers workers that raise anyway — e.g.
    payloads that fail to unpickle.
    """
    envelope = failure_envelope("?", 0, exc, kind=kind)
    return {"kind": kind, "error": envelope["error"],
            "traceback": envelope["traceback"]}


def pool_outcomes(fn, payloads, jobs=1, label=None, retry=None,
                  prepare=None, classify=None, on_outcome=None):
    """Run every payload to an :class:`Outcome`; failures never spread.

    * ``label(payload)`` names the unit of work (node id) on its outcome.
    * ``retry`` is a :class:`~repro.fleet.durability.RetryPolicy`;
      failed attempts re-run (same payload, so deterministic workers
      make a successful retry byte-identical to a first-try success)
      after the policy's backoff, up to ``max_attempts``.
    * ``prepare(payload, attempt, parallel)`` builds the per-attempt
      payload actually shipped to the worker (the fleet runner injects
      the attempt number and pool flag here).
    * ``classify(value)`` flags a *returned* value as a failure — the
      worker-side containment contract: workers return failure
      envelopes rather than raising, keeping envelopes byte-identical
      across ``--jobs`` levels.  A classified value becomes the
      outcome's ``failure``.
    * ``on_outcome(outcome)`` fires once per payload as its outcome
      finalizes (completion order) — the runner's checkpoint journal.

    Crash containment (``jobs > 1``): a ``BrokenProcessPool`` charges a
    ``crash`` attempt to every in-flight payload (the parent cannot
    know which worker died), rebuilds the pool, and requeues whatever
    still has attempts left.  A payload whose per-attempt wall-clock
    timeout (``retry.timeout_s``) expires is charged a ``timeout``
    attempt and the pool is rebuilt to shed the stuck worker; serial
    runs cannot preempt and ignore timeouts.

    Returns outcomes in input order.
    """
    payloads = list(payloads)
    retry = RetryPolicy.from_value(retry)
    if jobs <= 1 or len(payloads) <= 1:
        return _serial_outcomes(fn, payloads, label=label, retry=retry,
                                prepare=prepare, classify=classify,
                                on_outcome=on_outcome)
    return _parallel_outcomes(fn, payloads, jobs=jobs, label=label,
                              retry=retry, prepare=prepare,
                              classify=classify, on_outcome=on_outcome)


def _attempt_failure(value, exc, classify):
    """The failure record for one finished attempt, or None on success."""
    if exc is not None:
        return _raised_failure(exc)
    if classify is not None and classify(value):
        return dict(value)
    return None


def _serial_outcomes(fn, payloads, label, retry, prepare, classify,
                     on_outcome):
    outcomes = []
    for index, payload in enumerate(payloads):
        name = label(payload) if label is not None else None
        attempt = 1
        while True:
            delay = retry.delay_s(attempt)
            if delay:
                time.sleep(delay)
            prepared = (prepare(payload, attempt, False)
                        if prepare is not None else payload)
            value, exc = None, None
            try:
                value = fn(prepared)
            except Exception as caught:
                exc = caught
            failure = _attempt_failure(value, exc, classify)
            if failure is None:
                outcome = Outcome(index=index, label=name, value=value,
                                  attempts=attempt)
                break
            if attempt >= retry.max_attempts:
                outcome = Outcome(index=index, label=name, failure=failure,
                                  attempts=attempt)
                break
            attempt += 1
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
    return outcomes


def _parallel_outcomes(fn, payloads, jobs, label, retry, prepare, classify,
                       on_outcome):
    workers = min(int(jobs), len(payloads))
    outcomes = [None] * len(payloads)
    pending = deque(
        _Task(index=index, payload=payload,
              label=label(payload) if label is not None else None)
        for index, payload in enumerate(payloads))
    waiting = []          # backoff-delayed retries
    in_flight = {}        # future -> task
    rebuilds = 0
    timed_out_any = False
    pool = ProcessPoolExecutor(max_workers=workers)

    def _finalize(task, value=None, failure=None):
        outcome = Outcome(index=task.index, label=task.label, value=value,
                          failure=failure, attempts=task.attempt)
        outcomes[task.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def _resolve(task, value, failure, now):
        """Finalize an attempt's result, or requeue it for a retry."""
        if failure is None:
            _finalize(task, value=value)
            return
        if task.attempt >= retry.max_attempts:
            _finalize(task, failure=failure)
            return
        task.attempt += 1
        task.eligible_at = now + retry.delay_s(task.attempt)
        waiting.append(task)

    def _submit(task, now):
        prepared = (prepare(task.payload, task.attempt, True)
                    if prepare is not None else task.payload)
        timeout = retry.timeout_for(task.attempt)
        task.deadline = (now + timeout) if timeout is not None else None
        in_flight[pool.submit(fn, prepared)] = task

    try:
        while pending or waiting or in_flight:
            now = time.monotonic()
            ready = [task for task in waiting if task.eligible_at <= now]
            for task in ready:
                waiting.remove(task)
                pending.append(task)
            while pending and len(in_flight) < workers:
                _submit(pending.popleft(), now)
            if not in_flight:
                # Everything left is backoff-delayed: sleep to the next
                # eligibility instant.
                time.sleep(max(min(task.eligible_at for task in waiting)
                               - time.monotonic(), _MIN_WAIT_S))
                continue
            bounds = [task.deadline - now for task in in_flight.values()
                      if task.deadline is not None]
            bounds.extend(task.eligible_at - now for task in waiting)
            wait_s = (max(min(min(bounds), _MAX_WAIT_S), _MIN_WAIT_S)
                      if bounds else None)
            done, _ = wait(list(in_flight), timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            broken = False
            now = time.monotonic()
            for future in done:
                task = in_flight.pop(future)
                value, exc = None, None
                try:
                    value = future.result()
                except BrokenProcessPool as caught:
                    # The pool died while this task was in flight; the
                    # parent cannot tell culprit from bystander, so the
                    # crash attempt is charged to each.
                    broken = True
                    _resolve(task, None,
                             {"kind": "crash",
                              "error": f"worker process crashed "
                                       f"(attempt {task.attempt}): "
                                       f"{caught!r}",
                              "traceback": []}, now)
                    continue
                except Exception as caught:
                    exc = caught
                _resolve(task, value, _attempt_failure(value, exc, classify),
                         now)
            expired = [future for future, task in in_flight.items()
                       if task.deadline is not None and now > task.deadline]
            for future in expired:
                task = in_flight.pop(future)
                timed_out_any = True
                broken = True   # rebuild below to shed the stuck worker
                _resolve(task, None,
                         {"kind": "timeout",
                          "error": f"attempt {task.attempt} exceeded "
                                   f"{retry.timeout_for(task.attempt):g}s "
                                   f"wall-clock timeout",
                          "traceback": []}, now)
            if broken:
                # Innocent in-flight tasks are requeued without a charged
                # attempt; their old futures (if any still complete in the
                # abandoned pool) are simply ignored.
                for task in in_flight.values():
                    pending.appendleft(task)
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
                rebuilds += 1
    finally:
        # A stuck worker would make a waiting shutdown hang forever.
        pool.shutdown(wait=not timed_out_any, cancel_futures=True)
    return outcomes
