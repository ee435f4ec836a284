"""Device-management CP tasks: the VM-creation workflow (Figure 1c).

A :class:`VMCreateRequest` walks the red-arrow path of the paper: the
cluster manager issues the request, a CP task parses it and initializes
each emulated device (vNIC + virtio-blk) under driver spinlocks, and QEMU
is then notified to instantiate the VM.  The measured *VM startup time* is
request-issue to instantiation-complete; the *CP task execution time* is
the device-initialization span.  Both are the Figure 2 / Figure 17
metrics.
"""

from dataclasses import dataclass

from repro.kernel import Compute, KernelSection, LockAcquire, LockRelease, Syscall
from repro.sim.units import MICROSECONDS, MILLISECONDS


@dataclass
class DeviceMgmtParams:
    """Per-VM provisioning costs.

    Defaults model the Table 4 VM shape: one dual-queue virtio-net device
    and four virtio-blk devices, each needing user-space preparation plus a
    spinlock-protected driver initialization (a non-preemptible routine).
    """

    devices_per_vm: int = 5
    parse_ns: int = 1 * MILLISECONDS
    device_user_ns: int = 1_500 * MICROSECONDS
    device_lock_ns: int = 400 * MICROSECONDS       # register window, under a
                                                   # shared driver lock
    device_section_ns: int = 1_200 * MICROSECONDS  # per-VM non-preemptible
                                                   # kernel work (no shared lock)
    device_syscall_ns: int = 500 * MICROSECONDS
    qemu_instantiate_ns: int = 30 * MILLISECONDS   # host-side, off-SmartNIC
    startup_slo_ns: int = 250 * MILLISECONDS
    driver_lock_shards: int = 4                    # driver lock granularity


class VMCreateRequest:
    """One VM-creation request with its lifecycle timestamps.

    The VM id comes from ``board.vm_ids``, the board's own sequence.
    """

    def __init__(self, board, n_devices, issued_ns=None):
        env = board.env
        self.vm_id = next(board.vm_ids)
        self.env = env
        self.n_devices = n_devices
        self.t_issued = env.now if issued_ns is None else issued_ns
        self.t_cp_started = None
        self.t_devices_ready = None
        self.t_vm_started = None
        self.done = env.event()
        # Owning tenant id on multi-tenant boards (None elsewhere).
        self.tenant = None
        # Causal tracing: the vm-startup root span opens at issue time.
        self.span_id = None
        if env.spans.enabled:
            env.spans.vm_begin(self)

    @property
    def startup_time_ns(self):
        if self.t_vm_started is None:
            return None
        return self.t_vm_started - self.t_issued

    @property
    def cp_execution_ns(self):
        """Device-management CP execution span (queueing included)."""
        if self.t_devices_ready is None:
            return None
        return self.t_devices_ready - self.t_issued

    def __repr__(self):
        return f"<VMCreateRequest vm={self.vm_id} devices={self.n_devices}>"


class DeviceManager:
    """Runs device-initialization CP tasks for VM-creation requests."""

    def __init__(self, board, affinity, params=None, rng=None):
        self.board = board
        self.env = board.env
        self.affinity = set(affinity)
        self.params = params or DeviceMgmtParams()
        self.rng = rng or board.rng.stream("device-mgmt")
        # Driver locks shared across all requests (sharded per device class
        # and instance group, as real drivers do) — the contention point
        # that degrades CP execution superlinearly with instance density.
        self.driver_locks = [
            board.kernel.spinlock(name=f"drv-{shard}")
            for shard in range(self.params.driver_lock_shards)
        ]
        self.completed = []

    def submit(self, request, on_device_initialized=None):
        """Spawn the CP task that provisions ``request``'s devices.

        ``on_device_initialized(request, device_index)`` is invoked as each
        device finishes initialization — the host/eNIC layer uses it to
        materialize the actual data path (see :mod:`repro.hw.host`).
        """
        spans = self.env.spans
        if spans.enabled and request.span_id is not None:
            # Watch the provisioning thread *before* it is spawned so the
            # span tracker sees its very first sched_in.
            spans.vm_watch(request, f"devmgmt-vm{request.vm_id}")
        self.board.kernel.spawn(
            f"devmgmt-vm{request.vm_id}",
            self._provision_body(request, on_device_initialized),
            affinity=self.affinity,
        )
        return request

    def create_vm(self, n_devices=None):
        """Convenience: build and submit a request; returns it."""
        n_devices = n_devices or self.params.devices_per_vm
        return self.submit(VMCreateRequest(self.board, n_devices))

    def _provision_body(self, request, on_device_initialized=None):
        env = self.env
        params = self.params
        request.t_cp_started = env.now
        if env.spans.enabled and request.span_id is not None:
            env.spans.vm_cp_started(request)
        yield Compute(params.parse_ns)
        for device_index in range(request.n_devices):
            yield Compute(self._jitter(params.device_user_ns))
            # Short register-programming window under the shared driver
            # lock; the shard depends on the device instance, so concurrent
            # VM creations touch the shards in staggered order.
            shard = (request.vm_id + device_index) % len(self.driver_locks)
            lock = self.driver_locks[shard]
            yield LockAcquire(lock)
            yield KernelSection(self._jitter(params.device_lock_ns),
                                reason="device-init-lock")
            yield LockRelease(lock)
            # Longer per-VM initialization: non-preemptible but not shared.
            yield KernelSection(self._jitter(params.device_section_ns),
                                reason="device-init")
            yield Syscall(self._jitter(params.device_syscall_ns), name="dev-cfg")
            if on_device_initialized is not None:
                on_device_initialized(request, device_index)
        request.t_devices_ready = env.now
        if env.spans.enabled and request.span_id is not None:
            env.spans.vm_devices_ready(request)

        # Notify QEMU: instantiation happens host-side and consumes no
        # SmartNIC CPU; model it as a fixed latency before the VM is up.
        def _started(_event):
            request.t_vm_started = env.now
            if env.spans.enabled and request.span_id is not None:
                env.spans.vm_started(request)
            self.completed.append(request)
            if not request.done.triggered:
                request.done.succeed(request)

        env.timeout(params.qemu_instantiate_ns).callbacks.append(_started)

    def _jitter(self, base_ns, spread=0.2):
        low = base_ns * (1.0 - spread)
        high = base_ns * (1.0 + spread)
        return int(self.rng.uniform(low, high))
