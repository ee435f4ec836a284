"""Process-pool fan-out shared by the fleet runner and ``validate --jobs``.

One scheduling loop runs every payload to a final :class:`Outcome` and
yields each as it completes.  Serial runs (``jobs <= 1`` or a single
payload) go through the same loop with an in-process executor whose
``submit`` runs the call on the spot, so they never touch
``multiprocessing``.  Two public views sit on the loop:

* :func:`pool_imap` — the streaming API: results come back in *input*
  order regardless of completion order, and a worker exception aborts
  the stream wrapped in a :class:`PoolTaskError` naming the payload
  index (and label) that failed.
* :func:`pool_outcomes` — the durable API the fleet runner uses: every
  payload runs to a structured :class:`Outcome` (success value or a
  typed failure), failures are *contained* per payload instead of
  shared, a :class:`~repro.fleet.durability.RetryPolicy` re-runs failed
  attempts with backoff, a broken process pool is rebuilt and charged
  as a ``crash`` attempt against the nodes that were in flight, and a
  per-attempt wall-clock timeout sheds stuck workers.

A failed attempt waits out its backoff off the queue, then re-enters
at its head: serially with no backoff it runs right after the failed
attempt; with backoff the remaining payloads run while it waits.

Workers must be module-level functions taking one picklable payload and
returning one picklable result (the ``ProcessPoolExecutor`` contract).
"""

import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass

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


def pool_imap(fn, payloads, jobs=1, label=None):
    """Yield ``fn(payload)`` for each payload, in input order.

    Consumption drives delivery, so callers can print progress as each
    in-order result lands.  A worker exception surfaces as
    :class:`PoolTaskError` naming the payload, with the worker's
    exception as ``cause``; ``label`` maps a payload to a human-readable
    name for that error.  Closing the generator (or the error) cancels
    work that has not started.
    """
    payloads = list(payloads)
    landed = {}
    cursor = 0
    with closing(_schedule(fn, payloads, jobs, label)) as finished:
        for outcome, exc in finished:
            landed[outcome.index] = outcome, exc
            while cursor in landed:
                outcome, exc = landed.pop(cursor)
                if not outcome.ok:
                    raise PoolTaskError(cursor, outcome.label, exc) from exc
                yield outcome.value
                cursor += 1


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
    outcomes = [None] * len(payloads)
    with closing(_schedule(fn, payloads, jobs, label, retry, prepare,
                           classify)) as finished:
        for outcome, _ in finished:
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)
    return outcomes


# -- The scheduling loop ------------------------------------------------------


@dataclass
class _Task:
    index: int
    payload: object
    label: object = None
    attempt: int = 1
    eligible_at: float = 0.0
    deadline: float = None


class _InlineExecutor:
    """The serial executor: ``submit`` runs the call in this process."""

    def submit(self, fn, payload):
        future = Future()
        try:
            future.set_result(fn(payload))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _attempt_failure(task, value, exc, classify):
    """The failure record for one finished attempt, or None on success.

    A raised exception is the backstop path: well-behaved fleet workers
    catch their own exceptions and return an envelope (so the traceback
    is captured at the raise site); this covers workers that raise
    anyway — e.g. payloads that fail to unpickle.
    """
    if isinstance(exc, BrokenProcessPool):
        # The pool died while this task was in flight; the parent cannot
        # tell culprit from bystander, so the crash is charged to each.
        return {"kind": "crash",
                "error": f"worker process crashed (attempt {task.attempt}): "
                         f"{exc!r}",
                "traceback": []}
    if exc is not None:
        envelope = failure_envelope("?", 0, exc)
        return {"kind": "exception", "error": envelope["error"],
                "traceback": envelope["traceback"]}
    if classify is not None and classify(value):
        return dict(value)
    return None


def _schedule(fn, payloads, jobs, label, retry=None, prepare=None,
              classify=None):
    """Yield ``(outcome, exc)`` for each payload as its outcome finalizes.

    ``exc`` is the exception the final attempt raised, if any.  At most
    ``jobs`` attempts are in flight; serial runs keep one, run it inside
    ``submit`` and arm no timeout.
    """
    retry = RetryPolicy.from_value(retry)
    parallel = jobs > 1 and len(payloads) > 1
    workers = min(int(jobs), len(payloads)) if parallel else 1

    def new_pool():
        if parallel:
            return ProcessPoolExecutor(max_workers=workers)
        return _InlineExecutor()

    pending = deque(
        _Task(index=index, payload=payload,
              label=label(payload) if label is not None else None)
        for index, payload in enumerate(payloads))
    waiting = []          # failed attempts sitting out their backoff
    in_flight = {}        # future -> task
    timed_out_any = False
    pool = new_pool()
    try:
        while pending or waiting or in_flight:
            now = time.monotonic()
            ready = [task for task in waiting if task.eligible_at <= now]
            waiting = [task for task in waiting if task.eligible_at > now]
            pending.extendleft(reversed(ready))
            while pending and len(in_flight) < workers:
                task = pending.popleft()
                prepared = (prepare(task.payload, task.attempt, parallel)
                            if prepare is not None else task.payload)
                timeout = retry.timeout_for(task.attempt) if parallel else None
                task.deadline = None if timeout is None else now + timeout
                in_flight[pool.submit(fn, prepared)] = task
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
            now = time.monotonic()
            finished = []
            for future in done:
                task = in_flight.pop(future)
                value, exc = None, None
                try:
                    value = future.result()
                except Exception as caught:
                    exc = caught
                finished.append((task, value, exc,
                                 _attempt_failure(task, value, exc, classify)))
            broken = any(isinstance(exc, BrokenProcessPool)
                         for _, _, exc, _ in finished)
            for future, task in list(in_flight.items()):
                if task.deadline is not None and now > task.deadline:
                    del in_flight[future]
                    timed_out_any = broken = True  # rebuild to shed it
                    finished.append((task, None, None, {
                        "kind": "timeout",
                        "error": f"attempt {task.attempt} exceeded "
                                 f"{retry.timeout_for(task.attempt):g}s "
                                 f"wall-clock timeout",
                        "traceback": []}))
            if broken:
                # Innocent in-flight tasks are requeued without a charged
                # attempt; their old futures (if any still complete in the
                # abandoned pool) are simply ignored.
                pending.extendleft(reversed(list(in_flight.values())))
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = new_pool()
            for task, value, exc, failure in finished:
                if failure is None:
                    yield Outcome(index=task.index, label=task.label,
                                  value=value, attempts=task.attempt), None
                elif task.attempt >= retry.max_attempts:
                    yield Outcome(index=task.index, label=task.label,
                                  failure=failure, attempts=task.attempt), exc
                else:
                    task.attempt += 1
                    task.eligible_at = now + retry.delay_s(task.attempt)
                    waiting.append(task)
    finally:
        # A stuck worker would make a waiting shutdown hang forever.
        pool.shutdown(wait=not timed_out_any, cancel_futures=True)
