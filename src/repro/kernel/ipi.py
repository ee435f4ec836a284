"""Inter-processor interrupts with an interceptable send path.

``IPIController.send`` mirrors the kernel's ``x2apic_send_IPI``: Tai Chi's
unified IPI orchestrator installs a *send hook* that sees every IPI and may
take over routing (e.g. injecting into a running vCPU, or waking a sleeping
one) — exactly the interception point described in Section 5.
"""

import enum


class IPIVector(enum.Enum):
    RESCHED = "resched"
    CALL_FUNCTION = "call_function"
    TIMER = "timer"
    INIT = "init"            # CPU hotplug: reset target CPU
    STARTUP = "startup"      # CPU hotplug: begin boot (SIPI)
    TAICHI_PREEMPT = "taichi_preempt"  # hardware workload probe IRQ


class IPIController:
    """Routes IPIs between CPUs with a small delivery latency."""

    def __init__(self, kernel, latency_ns=500):
        self.kernel = kernel
        self.latency_ns = int(latency_ns)
        self._send_hook = None
        self._fault_hook = None
        self._drop_listeners = []
        self._handlers = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.hooked_count = 0
        self.dropped_offline = 0
        self.dropped_fault = 0
        self.delayed_fault = 0
        self._m_dropped = kernel.env.metrics.counter("kernel.ipi.dropped")

    def set_send_hook(self, hook):
        """Install ``hook(src_cpu, dst_cpu, vector, payload) -> bool``.

        Returning True means the hook handled (or rerouted) the IPI and the
        default physical delivery is skipped.  This is the analogue of
        intercepting ``x2apic_send_IPI``.
        """
        self._send_hook = hook

    def clear_send_hook(self):
        self._send_hook = None

    def set_fault_hook(self, hook):
        """Install ``hook(dst_cpu, vector, payload)`` on the delivery path.

        The hook models a lossy interconnect: return ``None`` for normal
        delivery, ``("drop",)`` to lose the IPI, or ``("delay", extra_ns)``
        to stretch its latency.  Unlike the send hook this sees *every*
        delivery — routed, posted, boot and device-IRQ paths included.
        """
        self._fault_hook = hook

    def add_drop_listener(self, listener):
        """``listener(dst_cpu, vector, payload, latency_ns)`` on fault drops.

        Offline-destination drops are *not* reported: those IPIs reached
        a CPU that is legitimately down, and retrying them would invoke
        handlers on a CPU the kernel believes has no executor.
        """
        self._drop_listeners.append(listener)

    def register_handler(self, vector, handler):
        """Register ``handler(cpu, payload)`` invoked on delivery."""
        self._handlers[vector] = handler

    def send(self, src_cpu, dst_cpu, vector, payload=None):
        """Send an IPI; honors the installed hook, else delivers physically."""
        self.sent_count += 1
        routed = False
        if self._send_hook is not None:
            routed = bool(self._send_hook(src_cpu, dst_cpu, vector, payload))
            if routed:
                self.hooked_count += 1
        tracer = self.kernel.tracer
        if tracer.enabled:
            src_id = getattr(src_cpu, "cpu_id", "-")
            tracer.record(self.kernel.env.now, src_id, "ipi_send",
                          dst=dst_cpu.cpu_id, vector=vector.value,
                          routed=routed)
        if not routed:
            self.deliver(dst_cpu, vector, payload, latency_ns=self.latency_ns)

    def deliver(self, dst_cpu, vector, payload=None, latency_ns=None,
                notify_drop=True):
        """Deliver to ``dst_cpu`` after ``latency_ns`` (bypasses the hook).

        Also used for device IRQs (the hardware workload probe's preempt
        interrupt arrives through this path).  Returns False when a fault
        hook dropped the IPI at the source, True when it is in flight —
        though it may still be discarded at fire time if the destination
        went offline in the meantime.  ``notify_drop=False`` keeps a
        fault drop out of the drop listeners (used by retry loops to
        avoid respawning themselves).
        """
        delay = self.latency_ns if latency_ns is None else int(latency_ns)
        env = self.kernel.env
        tracer = self.kernel.tracer

        if self._fault_hook is not None:
            verdict = self._fault_hook(dst_cpu, vector, payload)
            if verdict is not None:
                action = verdict[0]
                if action == "drop":
                    self.dropped_fault += 1
                    self._m_dropped.inc()
                    if tracer.enabled:
                        tracer.record(env.now, dst_cpu.cpu_id,
                                      "fault.ipi_drop", dst=dst_cpu.cpu_id,
                                      vector=vector.value)
                    if notify_drop:
                        for listener in self._drop_listeners:
                            listener(dst_cpu, vector, payload, delay)
                    return False
                if action == "delay":
                    extra = int(verdict[1])
                    self.delayed_fault += 1
                    if tracer.enabled:
                        tracer.record(env.now, dst_cpu.cpu_id,
                                      "fault.ipi_delay", dst=dst_cpu.cpu_id,
                                      vector=vector.value, extra_ns=extra)
                    delay += extra

        def _fire(_event):
            tracer = self.kernel.tracer
            if (not dst_cpu.online
                    and vector not in (IPIVector.INIT, IPIVector.STARTUP)):
                # An offline CPU has no executor: invoking handlers here
                # would run code on a CPU the kernel believes is down.
                self.dropped_offline += 1
                self._m_dropped.inc()
                if tracer.enabled:
                    tracer.record(env.now, dst_cpu.cpu_id, "ipi.dropped",
                                  vector=vector.value, reason="offline")
                return
            self.delivered_count += 1
            if tracer.enabled:
                tracer.record(env.now, dst_cpu.cpu_id, "ipi_deliver",
                              vector=vector.value)
            self._invoke(dst_cpu, vector, payload)

        env.timeout(delay).callbacks.append(_fire)
        return True

    def _invoke(self, dst_cpu, vector, payload):
        handler = self._handlers.get(vector)
        if handler is not None:
            handler(dst_cpu, payload)
            return
        # Default behaviours for standard vectors.
        if vector is IPIVector.RESCHED:
            dst_cpu.kick()
        elif vector in (IPIVector.INIT, IPIVector.STARTUP):
            dst_cpu.receive_boot_ipi(vector)
        elif vector is IPIVector.CALL_FUNCTION:
            if callable(payload):
                payload(dst_cpu)
            dst_cpu.kick()
