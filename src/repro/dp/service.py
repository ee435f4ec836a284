"""Poll-mode data-plane service (the loop of Figure 9)."""

from collections import deque
from dataclasses import dataclass

from repro.hw.packet import IORequest, PacketKind
from repro.kernel import Compute, KernelSection, WaitEvent
from repro.kernel.runqueue import SchedClass


@dataclass
class DPServiceParams:
    """Costs of the software half of the data plane."""

    poll_ns: int = 200                 # one empty rx_burst iteration
    burst: int = 32                    # max packets per rx_burst
    work_scale: float = 1.0            # per-packet cost multiplier (baselines
                                       # use it for emulation/RPC overheads)
    pollution_tax: float = 1.12        # cache/TLB refill slowdown after a vCPU ran
    pollution_window_ns: int = 20_000  # how much processing the tax applies to
    storage_device_ns: int = 20_000    # simulated NVMe round trip
    storage_completion_service_ns: int = 1_000


class DPService:
    """One DP service instance: a realtime poller pinned to one CPU."""

    def __init__(self, board, name, cpu_id, queue_ids, params=None, kind="net"):
        self.board = board
        self.env = board.env
        self.name = name
        self.cpu_id = cpu_id
        self.queue_ids = list(queue_ids)
        self.params = params or DPServiceParams()
        self.kind = kind
        self.tenant_id = None  # set by TenancyManager on multi-tenant boards

        self.rx_stores = [board.accelerator.queue_store(q) for q in self.queue_ids]
        self._device_rng = board.rng.stream(f"device-{name}")

        # Idle notification target (Tai Chi's software workload probe); the
        # static baseline leaves this unset, mirroring the <10-line
        # notify_idle_DP_CPU_cycles integration of Section 5.
        self.idle_notifier = None
        # Section 9 probe fusion: consult accelerator pipeline metadata
        # before yielding (set via TaiChiConfig.probe_fusion).
        self.probe_fusion = False

        # Metrics.
        self.packets_processed = 0
        self.processing_ns = 0
        self.idle_notifications = 0
        self.empty_poll_streaks = 0
        self.is_idle_blocked = False
        self._resume_event = None
        self._m_idle_yields = self.env.metrics.counter("dp.idle_yields")
        self.env.metrics.add_source(f"dp.{name}", self.metrics_snapshot)

        # Cache/TLB pollution bookkeeping.
        self._pollution_budget_ns = 0
        self._shutdown = False
        self._control_event = None

        # Fault injection + SLO-guard instrumentation.
        self._pending_stall_ns = 0
        self.stalls_injected = 0
        self._recent_waits = deque(maxlen=256)  # rx-ready -> dp-start, ns

        # In-flight when_nonempty watchers, withdrawn after every idle wait
        # so abandoned watchers don't pile up on the rx stores over a soak.
        self._arrival_watchers = []

        # Causal tracing: let the span tracker attribute rx-queue waits to
        # queued-behind service time on this poller thread.
        self.env.spans.register_dp_thread(name)

        self.thread = board.kernel.spawn(
            name, self._loop(), affinity={cpu_id},
            sched_class=SchedClass.REALTIME,
        )

    # -- Integration points -------------------------------------------------------

    def attach_idle_notifier(self, notifier):
        """Wire the software workload probe (Tai Chi deployment step)."""
        self.idle_notifier = notifier

    def note_vcpu_ran(self):
        """A vCPU slice just ran on this CPU; model cache/TLB pollution."""
        self._pollution_budget_ns = self.params.pollution_window_ns

    def resume_polling(self):
        """Return control to the poll loop after a donated slice ends.

        This is the "yield returns" moment of Figure 9: the service polls
        again, and only after the empty-poll threshold is re-crossed does
        it donate the CPU again — which is what keeps in-flight packets
        from being stranded behind back-to-back vCPU slices.
        """
        if self._resume_event is not None and not self._resume_event.triggered:
            self._resume_event.succeed()

    def shutdown(self):
        """Stop the poll loop at its next iteration (repartitioning)."""
        self._shutdown = True
        self.resume_polling()
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()

    def inject_stall(self, stall_ns):
        """Fault injection: hang the poll loop in a non-preemptible routine.

        The stall is consumed at the loop's next iteration (a kick wakes
        an idle-blocked loop immediately), modeling a DP service wedged
        inside kernel code with interrupts of no help.
        """
        self._pending_stall_ns += int(stall_ns)
        self.stalls_injected += 1
        self.resume_polling()
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()

    def recent_queue_wait_ns(self):
        """Recent per-packet rx-queue waits (SLO-guard breach signal)."""
        return list(self._recent_waits)

    def reset_queue_wait_window(self):
        """Drop accumulated wait samples (after a guard intervention)."""
        self._recent_waits.clear()

    def adopt_queue(self, queue_id):
        """Take over polling an existing accelerator queue."""
        self.queue_ids.append(queue_id)
        store = self.board.accelerator.queue_store(queue_id)
        self.rx_stores.append(store)
        self.board.accelerator.retarget_queue(queue_id, self.cpu_id)
        # Restart any in-flight idle wait so its arrival set includes the
        # adopted queue.
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()
        self.resume_polling()

    def utilization(self, window_ns):
        """Effective utilization: packet-processing time over the window."""
        if window_ns <= 0:
            return 0.0
        return min(self.processing_ns / window_ns, 1.0)

    def metrics_snapshot(self):
        """Per-service poll-loop occupancy stats (lazy registry source)."""
        snapshot = {
            "cpu_id": self.cpu_id,
            "packets_processed": self.packets_processed,
            "processing_ns": self.processing_ns,
            "idle_notifications": self.idle_notifications,
            "empty_poll_streaks": self.empty_poll_streaks,
        }
        if self.tenant_id is not None:
            snapshot["tenant_id"] = self.tenant_id
        return snapshot

    # -- The poll loop ---------------------------------------------------------------

    def _loop(self):
        params = self.params
        while not self._shutdown:
            if self._pending_stall_ns:
                stall_ns, self._pending_stall_ns = self._pending_stall_ns, 0
                self.is_idle_blocked = False
                yield KernelSection(stall_ns)
                continue
            batch = self._collect_batch()
            if batch:
                self.is_idle_blocked = False
                spans = self.env.spans
                for request in batch:
                    request.t_dp_start = self.env.now
                    if request.t_rx_ready is not None:
                        self._recent_waits.append(
                            self.env.now - request.t_rx_ready)
                    if spans.enabled and request.span_id is not None:
                        spans.end_dp(request, self.cpu_id)
                    cost = self._packet_cost(request)
                    yield Compute(cost)
                    self.processing_ns += cost
                    self.packets_processed += 1
                    self._finish_packet(request)
                continue

            arrival = self._arrival_event()
            control = self.env.event()
            self._control_event = control
            fast = self.env.config.fast_forward
            if self.idle_notifier is None:
                # Plain deployment: nothing to yield to; the real service
                # busy-polls until traffic shows up.  Fast path: jump the
                # clock straight to the next arrival/control event and
                # account the empty rx_bursts that would have happened.
                # Stepped path: one discrete event per empty poll.
                idle_since = self.env.now
                if fast:
                    yield WaitEvent(self.env.any_of([arrival, control]))
                    self.env.note_fast_forward(
                        (self.env.now - idle_since) // params.poll_ns)
                else:
                    wait = self.env.any_of([arrival, control])
                    self._arm_stepped_polls(wait, None, params.poll_ns)
                    yield WaitEvent(wait)
                self._cancel_arrival_watchers()
                self._control_event = None
                continue

            # Count empty polls up to the (adaptive) threshold, then notify.
            threshold = self.idle_notifier.threshold_for(self)
            n_polls = max(int(threshold), 1)
            budget_ns = n_polls * params.poll_ns
            idle_since = self.env.now
            if fast:
                # The whole empty-poll budget collapses into one timeout;
                # timing and the arrival/control race are identical to the
                # stepped chain (the last stepped tick lands exactly at
                # ``budget_ns``).
                timer = self.env.timeout(budget_ns)
                yield WaitEvent(self.env.any_of([arrival, timer, control]))
            else:
                timer = self.env.event()
                wait = self.env.any_of([arrival, timer, control])
                self._arm_stepped_polls(wait, n_polls, params.poll_ns,
                                        done=timer)
                yield WaitEvent(wait)
            self._cancel_arrival_watchers()
            if arrival.triggered or control.triggered or self._shutdown:
                if fast:
                    self.env.note_fast_forward(
                        (self.env.now - idle_since) // params.poll_ns)
                self._control_event = None
                continue  # traffic/control beat the threshold; count resets
            if fast:
                self.env.note_fast_forward(n_polls)
            self.empty_poll_streaks += 1
            if self.probe_fusion and self._pipeline_traffic_imminent():
                # Packets are already inside the accelerator pipeline:
                # yielding now would be an immediate false positive.
                self._control_event = None
                continue
            self.idle_notifications += 1
            self._m_idle_yields.inc()
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.record(self.env.now, self.cpu_id, "dp_idle_yield",
                              service=self.name, threshold=threshold)
            self.is_idle_blocked = True
            self.idle_notifier.notify_idle(self)
            resume = self.env.event()
            self._resume_event = resume
            # No poll accounting here: the CPU is donated, the loop is not
            # running, so an idle-blocked wait skips nothing.
            yield WaitEvent(self.env.any_of(
                [self._arrival_event(), resume, control]))
            self._cancel_arrival_watchers()
            self._resume_event = None
            self._control_event = None
            self.is_idle_blocked = False

    def _pipeline_traffic_imminent(self):
        accelerator = self.board.accelerator
        return any(accelerator.queue_inflight(queue_id) > 0
                   for queue_id in self.queue_ids)

    def _collect_batch(self):
        batch = []
        for store in self.rx_stores:
            batch.extend(store.get_batch(self.params.burst))
        return batch

    def _arrival_event(self):
        events = [store.when_nonempty() for store in self.rx_stores]
        self._arrival_watchers = list(zip(self.rx_stores, events))
        if not events:
            return self.env.event()  # queue-less service: only control wakes it
        if len(events) == 1:
            return events[0]
        return self.env.any_of(events)

    def _cancel_arrival_watchers(self):
        """Withdraw watchers the finished wait no longer needs."""
        for store, event in self._arrival_watchers:
            if not event.triggered:
                store.cancel_nonempty(event)
        self._arrival_watchers = []

    def _arm_stepped_polls(self, wait, n_polls, poll_ns, done=None):
        """Reference ("stepped") idle engine: one event per empty rx_burst.

        Arms a self-re-arming chain of ``poll_ns`` timeouts at the pure
        event layer (no thread dispatch, so scheduler behaviour is
        untouched); after ``n_polls`` ticks it succeeds ``done`` — landing
        on exactly the instant the fast path's single analytic timeout
        fires.  With ``n_polls=None`` the chain re-arms until ``wait``
        triggers.  Only engine self-profiling distinguishes the two modes.
        """
        env = self.env

        def _arm(remaining):
            def _tick(_event, remaining=remaining):
                if wait.triggered:
                    return
                if remaining is not None and remaining <= 1:
                    done.succeed()
                    return
                _arm(None if remaining is None else remaining - 1)

            env.timeout(poll_ns).callbacks.append(_tick)

        _arm(n_polls)

    def _packet_cost(self, request):
        cost = int(request.service_ns * self.params.work_scale)
        if self._pollution_budget_ns > 0:
            self._pollution_budget_ns -= cost
            cost = int(cost * self.params.pollution_tax)
        return max(cost, 1)

    # -- Completion paths --------------------------------------------------------------

    def _finish_packet(self, request):
        env = self.env
        if request.kind is PacketKind.NET_TX:
            self.board.nic_port.transfer(
                request.size_bytes,
                on_delivered=lambda: request.complete(env.now),
            )
        elif request.kind is PacketKind.NET_RX:
            self.board.pcie.transfer(
                request.size_bytes,
                on_delivered=lambda: request.complete(env.now),
            )
        elif request.kind is PacketKind.STORAGE_SUBMIT:
            self._start_device_io(request)
        elif request.kind is PacketKind.STORAGE_COMPLETE:
            original = request.payload
            self.board.pcie.transfer(
                64,
                on_delivered=lambda: original.complete(env.now),
            )
        else:
            raise ValueError(f"unhandled packet kind {request.kind!r}")

    def _start_device_io(self, request):
        """Submit to the storage device; completion re-enters the rx queue."""
        env = self.env
        device_ns = int(self._device_rng.exponential(self.params.storage_device_ns))
        store = self.rx_stores[0]
        completion = IORequest(
            PacketKind.STORAGE_COMPLETE,
            size_bytes=64,
            queue_id=request.queue_id,
            service_ns=self.params.storage_completion_service_ns,
            payload=request,
        )

        def _complete(_event):
            completion.t_submit = env.now
            completion.t_rx_ready = env.now
            store.put(completion)

        env.timeout(max(device_ns, 1_000)).callbacks.append(_complete)

    def __repr__(self):
        return f"<DPService {self.name!r} cpu={self.cpu_id} kind={self.kind}>"


def deploy_dp_services(board, kind, cpu_ids=None, params=None,
                       queues_per_cpu=1, name_prefix=None):
    """Deploy one DP service per data-plane CPU, each with its own queues.

    Returns the list of services; rx queues are registered with the
    accelerator as ``(kind, cpu_index, queue_index)`` ids.
    """
    cpu_ids = list(cpu_ids if cpu_ids is not None else board.dp_cpu_ids)
    prefix = name_prefix or f"dp-{kind}"
    services = []
    for index, cpu_id in enumerate(cpu_ids):
        queue_ids = []
        for qidx in range(queues_per_cpu):
            queue_id = (kind, index, qidx)
            board.make_rx_queue(queue_id, cpu_id)
            queue_ids.append(queue_id)
        services.append(
            DPService(board, f"{prefix}{index}", cpu_id, queue_ids,
                      params=params, kind=kind)
        )
    return services
