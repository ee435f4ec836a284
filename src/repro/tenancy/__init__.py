"""Multi-tenant boards: SmartNIC-as-a-pool with isolation guarantees.

Tenants are first-class scenario objects (:class:`TenantSpec` lists on
``Scenario.tenants``); the :class:`TenancyManager` partitions a built
board's DP services and vCPUs by weight and hooks the Tai Chi scheduler
for weighted-fair, isolation-respecting backing.  The one soak driver,
:func:`repro.scenario.soak.run_soak`, soaks each tenant as its own load
source (:class:`~repro.tenancy.soak.TenantSoak`) and reports per-tenant
SLO blocks; a tenant-less scenario runs the same driver as one implicit
tenant.  :func:`verify_tenant_summary` cross-checks a summary's grant
ledgers and declared SLOs.
"""

from repro.tenancy.manager import TenancyManager, TenantRuntime, \
    weighted_partition
from repro.tenancy.soak import verify_tenant_summary
from repro.tenancy.spec import MIN_SHARE, TenantSpec, normalize_tenants

__all__ = [
    "MIN_SHARE",
    "TenancyManager",
    "TenantRuntime",
    "TenantSpec",
    "normalize_tenants",
    "verify_tenant_summary",
    "weighted_partition",
]
