"""On-demand instruction-level auditing (Section 8).

Hybrid virtualization makes vCPU contexts available for more than
co-scheduling: migrating a target application onto an *audit vCPU* (plain
CPU-affinity change, no application cooperation) puts every instruction it
issues under the hypervisor's eye.  When auditing ends, the application is
transparently migrated back to physical CPUs — no persistent overhead.

The model records one :class:`AuditRecord` per issued instruction with its
timestamp, kind, and duration; privileged instructions (kernel sections,
syscalls, lock operations) are flagged, matching the paper's
"monitor, log, and intercept privileged instructions" use case.
"""

from dataclasses import dataclass, field

from repro.kernel.instructions import (
    KernelSection,
    LockAcquire,
    LockRelease,
    Syscall,
)

PRIVILEGED_KINDS = (KernelSection, Syscall, LockAcquire, LockRelease)


@dataclass(frozen=True)
class AuditRecord:
    """One instruction observed inside the audit domain."""

    ts_ns: int
    thread_name: str
    kind: str
    duration_ns: int
    privileged: bool


@dataclass
class AuditSession:
    """A live or finished audit of one thread."""

    thread: object
    original_affinity: object
    vcpu_id: object
    started_ns: int
    ended_ns: int = None
    records: list = field(default_factory=list)
    intercepted: list = field(default_factory=list)

    @property
    def active(self):
        return self.ended_ns is None

    def privileged_records(self):
        return [record for record in self.records if record.privileged]

    def summary(self):
        return {
            "instructions": len(self.records),
            "privileged": len(self.privileged_records()),
            "intercepted": len(self.intercepted),
            "duration_ns": (self.ended_ns or 0) - self.started_ns,
        }


class InstructionAuditor:
    """Runs audit sessions on a Tai Chi deployment's vCPUs."""

    def __init__(self, taichi, interceptor=None):
        """``interceptor(thread, instruction) -> bool`` may veto privileged
        instructions; vetoed ones are recorded but still executed (the
        model audits, it does not fault-inject)."""
        self.taichi = taichi
        self.kernel = taichi.board.kernel
        self.env = taichi.env
        self.interceptor = interceptor
        self._sessions = {}
        self._seen = {}

    def begin(self, thread, vcpu_index=0):
        """Migrate ``thread`` into the audit domain; returns the session."""
        if thread.tid in self._sessions:
            raise ValueError(f"{thread.name!r} is already being audited")
        vcpu = self.taichi.vcpus[vcpu_index]
        session = AuditSession(
            thread=thread,
            original_affinity=(set(thread.affinity)
                               if thread.affinity is not None else None),
            vcpu_id=vcpu.cpu_id,
            started_ns=self.env.now,
        )
        self._sessions[thread.tid] = session
        self._seen[thread.tid] = None
        if vcpu.instruction_hook is None:
            vcpu.instruction_hook = self._observe
        self.kernel.set_affinity(thread, {vcpu.cpu_id})
        return session

    def end(self, thread):
        """Leave the audit domain: restore affinity, close the session."""
        session = self._sessions.pop(thread.tid, None)
        if session is None:
            raise KeyError(f"{thread.name!r} is not being audited")
        self._seen.pop(thread.tid, None)
        session.ended_ns = self.env.now
        restored = session.original_affinity
        self.kernel.set_affinity(
            thread,
            restored if restored is not None else set(self.kernel.cpus),
        )
        return session

    def _observe(self, thread, instruction):
        session = self._sessions.get(thread.tid)
        if session is None:
            return
        # A preempted instruction is re-issued on resume; record it once.
        if self._seen.get(thread.tid) is instruction:
            return
        self._seen[thread.tid] = instruction
        privileged = isinstance(instruction, PRIVILEGED_KINDS)
        record = AuditRecord(
            ts_ns=self.env.now,
            thread_name=thread.name,
            kind=type(instruction).__name__,
            duration_ns=int(getattr(instruction, "ns", 0)),
            privileged=privileged,
        )
        session.records.append(record)
        if privileged and self.interceptor is not None:
            if self.interceptor(thread, instruction):
                session.intercepted.append(record)
