"""The central tracer: a gated, ring-buffered structured event sink.

Every :class:`~repro.sim.environment.Environment` owns exactly one
:class:`Tracer` (``env.tracer``); all subsystems — kernel executors,
IPI controller, softirq subsystem, the vCPU scheduler, the workload
probes, DP services — emit their events through it.  The tracer starts
*disabled*: instrumentation sites guard emission with a single attribute
check (``if tracer.enabled:``), so an untraced run pays one branch per
potential event and allocates nothing.

Every kind emitted through :meth:`Tracer.record` is declared, with its
layer and required detail fields, in :mod:`repro.obs.kinds`;
``docs/observability.md`` describes each one.
"""

from repro.metrics.timeline import Timeline


class Tracer(Timeline):
    """A :class:`~repro.metrics.timeline.Timeline` with an enable gate.

    Defaults to ring-buffer retention (keep the newest ``cap`` events) so
    long runs behave like a flight recorder rather than capturing only the
    boot transient.
    """

    def __init__(self, cap=1_000_000, ring=True, enabled=False):
        super().__init__(cap=cap, ring=ring)
        self.enabled = enabled
        # ``hook(event)`` callables invoked for every recorded event —
        # including ones the capacity policy drops — so inline consumers
        # (streaming invariant checkers) see the unabridged stream.
        self.hooks = []

    def enable(self):
        self.enabled = True
        return self

    def disable(self):
        self.enabled = False
        return self

    def add_hook(self, hook):
        """Subscribe ``hook(event)`` to every recorded event; enables the
        tracer (a hooked tracer that stays gated would observe nothing)."""
        self.hooks.append(hook)
        self.enabled = True
        return hook

    def remove_hook(self, hook):
        if hook in self.hooks:
            self.hooks.remove(hook)

    def record(self, ts_ns, cpu_id, kind, **detail):
        if not self.enabled:
            return
        event = super().record(ts_ns, cpu_id, kind, **detail)
        for hook in self.hooks:
            hook(event)

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} events={len(self.events)} dropped={self.dropped}>"
