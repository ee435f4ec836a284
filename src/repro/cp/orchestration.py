"""CSP orchestration: the cluster-manager-side request source.

Instance density (Section 2.1) scales both how many VMs a startup storm
creates and how many devices the control plane must manage.  Density 1.0
is the "normal" deployment (dedicated CPU resources); density 4.0 is the
high-density over-provisioned deployment where the paper observes the
8x CP degradation and 3.1x SLO breach of Figure 2.
"""

from repro.cp.device_mgmt import VMCreateRequest


class Orchestrator:
    """Issues VM-creation requests against a :class:`DeviceManager`."""

    def __init__(self, device_manager, density=1.0, base_storm_size=8):
        self.device_manager = device_manager
        self.env = device_manager.env
        self.density = float(density)
        self.base_storm_size = int(base_storm_size)
        self.requests = []

    @property
    def storm_size(self):
        """VMs per startup storm: proportional to instance density."""
        return max(int(round(self.base_storm_size * self.density)), 1)

    def launch_storm(self, size=None):
        """Issue a burst of VM-creation requests; returns the requests."""
        size = size if size is not None else self.storm_size
        batch = []
        for _ in range(size):
            request = VMCreateRequest(
                self.device_manager.board,
                self.device_manager.params.devices_per_vm
            )
            self.device_manager.submit(request)
            batch.append(request)
        self.requests.extend(batch)
        return batch

    def launch_poisson(self, rate_per_s, duration_ns, rng):
        """Spawn a process issuing requests at ``rate_per_s`` on average."""
        env = self.env

        def _source():
            deadline = env.now + duration_ns
            while env.now < deadline:
                gap = rng.exponential(1e9 / rate_per_s)
                yield env.timeout(max(int(gap), 1))
                request = VMCreateRequest(
                    self.device_manager.board,
                    self.device_manager.params.devices_per_vm
                )
                self.device_manager.submit(request)
                self.requests.append(request)

        return env.process(_source(), name="orchestrator")

    def startup_times_ns(self):
        return [r.startup_time_ns for r in self.requests
                if r.startup_time_ns is not None]

    def cp_execution_times_ns(self):
        return [r.cp_execution_ns for r in self.requests
                if r.cp_execution_ns is not None]
