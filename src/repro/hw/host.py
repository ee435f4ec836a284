"""The host compute node: VMs whose devices live on the SmartNIC.

Ties the control plane to the data plane the way Figure 1c describes: a
VM-creation request drives the device-management CP workflow, and each
device-initialization step *materializes a real eNIC* attached to a DP
service — so the VM's subsequent traffic flows through queues that exist
only because the CP task ran.  VM startup time therefore directly depends
on CP scheduling, which is the paper's central SLO story.
"""

from dataclasses import dataclass, field

from repro.cp.device_mgmt import DeviceManager, VMCreateRequest
from repro.hw.enic import ENic


@dataclass
class VMSpec:
    """Shape of a guest (Table 4's default: 1 vNIC + 4 virtio-blk)."""

    n_vnics: int = 1
    n_vblks: int = 4
    vcpus: int = 2

    @property
    def n_devices(self):
        return self.n_vnics + self.n_vblks


@dataclass
class VirtualMachine:
    """A guest instance and its SmartNIC-side devices."""

    spec: VMSpec
    request: VMCreateRequest
    devices: list = field(default_factory=list)

    @property
    def vm_id(self):
        return self.request.vm_id

    @property
    def running(self):
        return self.request.t_vm_started is not None

    @property
    def vnics(self):
        return [device for device in self.devices if device.kind == "net"]

    @property
    def vblks(self):
        return [device for device in self.devices if device.kind == "blk"]

    def startup_time_ns(self):
        return self.request.startup_time_ns


class HostNode:
    """A host whose VM lifecycle runs through the SmartNIC control plane."""

    def __init__(self, deployment, manager=None, services=None,
                 tenant_id=None):
        self.deployment = deployment
        self.board = deployment.board
        self.env = deployment.env
        self.manager = manager or DeviceManager(
            self.board, deployment.cp_affinity
        )
        # Multi-tenant boards scope a host to its tenant's DP services;
        # default is the whole board (single-tenant behavior).
        self.services = list(services) if services is not None else None
        self.tenant_id = tenant_id
        self.vms = []
        self._rr = 0

    def create_vm(self, spec=None):
        """Issue a VM-creation request; devices materialize as CP work runs.

        Returns the :class:`VirtualMachine`; its ``request.done`` event
        fires when QEMU instantiation completes.
        """
        spec = spec or VMSpec()
        kinds = ["net"] * spec.n_vnics + ["blk"] * spec.n_vblks
        request = VMCreateRequest(self.board, spec.n_devices)
        request.tenant = self.tenant_id
        vm = VirtualMachine(spec=spec, request=request)
        self.vms.append(vm)

        def _materialize(req, device_index):
            kind = kinds[device_index]
            device = ENic(self.board, vm.vm_id, kind=kind,
                          n_queues=2 if kind == "net" else 1)
            device.attach(self._pick_service())
            vm.devices.append(device)

        self.manager.submit(request, on_device_initialized=_materialize)
        return vm

    def destroy_vm(self, vm):
        """Detach the VM's devices (deinitialization)."""
        for device in vm.devices:
            device.detach()
        self.vms.remove(vm)

    def _pick_service(self):
        services = (self.services if self.services
                    else self.deployment.services)
        self._rr = (self._rr + 1) % len(services)
        return services[self._rr]

    def running_vms(self):
        return [vm for vm in self.vms if vm.running]

    def __repr__(self):
        return f"<HostNode vms={len(self.vms)} running={len(self.running_vms())}>"
