"""The trace-kind catalog: every kind emitted through ``Tracer.record``.

Each :class:`Kind` names its emitting layer and the detail fields every
event of that kind carries.  Begin kinds of a pair also name their end
kind, the fields the pair is keyed on, the fields the end must repeat,
and whether a begin still open at stream end is a violation.  Exporters,
span attribution and the invariant checkers derive their kind tables
from here; ``tests/obs/test_kinds.py`` checks that emitters, consumers
and the ``docs/observability.md`` event table agree with it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Kind:
    """One trace kind.

    ``key`` names detail fields, or ``"cpu"`` for the event's CPU.  A
    begin whose ``until_ns`` detail lies past the end of the stream is
    not yet overdue, even where ``open_is_violation`` is set.
    """

    name: str
    layer: str
    fields: tuple = ()
    end: str = None
    key: tuple = ()
    match: tuple = ()
    open_is_violation: bool = False


KINDS = {kind.name: kind for kind in (
    Kind("sched_in", "kernel", ("thread", "rq"),
         end="sched_out", key=("cpu",), match=("thread",)),
    Kind("sched_out", "kernel", ("thread", "outcome", "ran_ns")),
    Kind("enqueue", "kernel", ("thread",)),
    Kind("rq_depth", "kernel", ("depth",)),
    Kind("softirq_raise", "kernel", ("vector",)),
    Kind("softirq_run", "kernel", ("vector",)),
    Kind("ipi_send", "kernel", ("dst", "vector", "routed")),
    Kind("ipi_deliver", "kernel", ("vector",)),
    Kind("ipi.dropped", "kernel", ("vector", "reason")),
    Kind("cpu_online", "kernel"),
    Kind("cpu_offline", "kernel"),
    Kind("thread_exit", "kernel", ("thread",)),
    Kind("vmenter", "virt", ("vcpu", "slice_ns"),
         end="vmexit", key=("cpu",), match=("vcpu",)),
    Kind("vmexit", "virt", ("vcpu", "reason", "enter_cost_ns",
                            "exit_cost_ns", "premature")),
    Kind("ipi_route", "core", ("dst", "vector", "decision", "source_exit")),
    Kind("slice_adapt", "core", ("old_ns", "new_ns", "reason")),
    Kind("threshold_adapt", "core", ("service", "old", "new", "reason")),
    Kind("lock_safe_migrate", "core", ("vcpu", "reason")),
    Kind("fault.handled", "core", ("mechanism",)),
    Kind("hwprobe_irq", "hw", ("latency_ns", "spurious")),
    Kind("dp_idle_yield", "dp", ("service", "threshold")),
    Kind("fault.injected", "faults", ("fault", "fault_kind", "until_ns"),
         end="fault.cleared", key=("fault",), open_is_violation=True),
    Kind("fault.cleared", "faults", ("fault", "fault_kind")),
    Kind("fault.ipi_drop", "faults", ("dst", "vector")),
    Kind("fault.ipi_delay", "faults", ("dst", "vector", "extra_ns")),
    Kind("fault.probe_suppress", "faults"),
    Kind("fault.probe_spurious", "faults"),
    Kind("alert.raised", "telemetry", ("alert", "signal", "value",
                                       "threshold", "severity", "node"),
         end="alert.cleared", key=("node", "alert")),
    Kind("alert.cleared", "telemetry", ("alert", "signal", "value",
                                        "threshold", "severity", "node",
                                        "duration_ns", "peak")),
    Kind("span.begin", "spans", ("span", "request", "name"),
         end="span.end", key=("span",)),
    Kind("span.end", "spans", ("span", "request", "name")),
    Kind("tenant.pick", "tenancy", ("tenant", "usage_ns", "backlogged")),
    Kind("tenant.grant", "tenancy", ("tenant", "ns", "tenant_total_ns",
                                     "total_ns")),
)}

#: Begin kind -> end kind of the per-CPU slice pairs.
SLICES = {kind.name: kind.end for kind in KINDS.values()
          if kind.end and kind.key == ("cpu",)}

#: An IPI traced with one of these kinds is never delivered.
IPI_DROP_KINDS = ("fault.ipi_drop", "ipi.dropped")
