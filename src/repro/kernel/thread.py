"""Kernel threads: schedulable entities with affinity and run statistics."""

import enum
from itertools import count

_thread_ids = count(1)


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


class KThread:
    """A thread whose behaviour is a generator of instructions.

    Attributes:
        name: human-readable identifier.
        body: generator yielding :mod:`~repro.kernel.instructions` objects.
        affinity: set of CPU ids the thread may run on (``None`` = any).
        sched_class: realtime (DP services) or fair (everything else).
        nice_weight: CFS weight; higher weight accrues vruntime more slowly.
        pinned_cpu: resolved home CPU, if single-CPU affinity.
    """

    __slots__ = ("tid", "name", "body", "affinity", "sched_class",
                 "nice_weight", "state", "cpu", "last_cpu", "vruntime",
                 "total_runtime_ns", "wait_since_ns", "exit_value",
                 "current_instruction", "remaining_ns", "pending_result",
                 "started", "locks_held", "done")

    def __init__(self, name, body, affinity=None, sched_class=None, nice_weight=1.0):
        from repro.kernel.runqueue import SchedClass

        self.tid = next(_thread_ids)
        self.name = name
        self.body = body
        self.affinity = set(affinity) if affinity is not None else None
        self.sched_class = sched_class if sched_class is not None else SchedClass.FAIR
        self.nice_weight = float(nice_weight)

        self.state = ThreadState.NEW
        self.cpu = None                  # CPU currently running this thread
        self.last_cpu = None             # last CPU it ran on (for wake placement)
        self.vruntime = 0.0
        self.total_runtime_ns = 0
        self.wait_since_ns = None        # when it became READY (for latency stats)
        self.exit_value = None

        # In-flight instruction bookkeeping: when a thread is preempted in
        # the middle of a timed instruction, the remaining nanoseconds are
        # stored here and consumed before the body is advanced again.
        self.current_instruction = None
        self.remaining_ns = 0
        self.pending_result = None        # result to send into body next time
        self.started = False

        # Lock accounting (spinlocks held), used by Tai Chi's lock-safe
        # CP-to-DP preemption rule.
        self.locks_held = []

        # Completion event (set by the kernel when spawned).
        self.done = None

    @property
    def holds_locks(self):
        return bool(self.locks_held)

    def can_run_on(self, cpu_id):
        return self.affinity is None or cpu_id in self.affinity

    def __repr__(self):
        return (
            f"<KThread {self.name!r} tid={self.tid} state={self.state.value} "
            f"class={self.sched_class.name}>"
        )
