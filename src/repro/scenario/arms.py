"""The arm registry: every scheduler under test, with its knobs, as data.

An *arm* is one point on the scheduler axis of the evaluation matrix —
a :data:`repro.baselines.DEPLOYMENTS` class plus the set of knobs it
accepts.  Registration is entry-point style: anything (including a
future out-of-tree scheduler) can call :func:`register_arm` and
immediately participate in every experiment, fleet preset and CLI
``--arm`` override, because all construction flows through
:func:`build_arm`.

Knobs split into three groups:

* constructor knobs shared by every deployment (``board_config``,
  ``dp_kind``, ``dp_params``, ``dp_cpu_ids``);
* per-arm constructor knobs declared at registration time
  (``taichi_config``, ``guest_tax``, ``emulation_overhead``, ...);
* post-construction knobs available on Tai Chi-family arms only:
  ``dp_boost`` (move N CP pCPUs to the data plane after warmup —
  Section 8's inverse adaptation) and ``degradation`` (install the
  graceful-degradation layer).

Dict-valued knobs are coerced to their dataclasses (``taichi_config``
-> :class:`~repro.core.TaiChiConfig` etc.) so a knob set round-trips
through :class:`~repro.scenario.spec.Scenario` JSON.
"""

from dataclasses import asdict, dataclass, fields, is_dataclass

from repro.baselines import DEPLOYMENTS
from repro.core import DynamicRepartitioner, TaiChiConfig
from repro.dp import DPServiceParams
from repro.hw import AcceleratorParams, BoardConfig
from repro.kernel import KernelParams
from repro.sim import EngineConfig
from repro.virt.costs import VirtCosts

#: Constructor knobs every deployment accepts (see ``Deployment.__init__``).
COMMON_KNOBS = ("board_config", "dp_kind", "dp_params", "dp_cpu_ids",
                "engine")

#: Post-construction knobs available on arms that carry a live TaiChi.
TAICHI_POST_KNOBS = ("dp_boost", "degradation")


@dataclass(frozen=True)
class Arm:
    """Registry metadata for one scheduler arm."""

    name: str
    cls: type
    doc: str = ""
    extra_knobs: tuple = ()
    taichi_family: bool = False
    aliases: tuple = ()

    @property
    def knobs(self):
        """Every knob :func:`build_arm` accepts for this arm."""
        accepted = COMMON_KNOBS + tuple(self.extra_knobs)
        if self.taichi_family:
            accepted += TAICHI_POST_KNOBS
        return accepted


#: Canonical arm name -> :class:`Arm`.
ARMS = {}

#: Alias -> canonical arm name (``baseline`` -> ``static``).
ALIASES = {}


def register_arm(name, cls, doc="", extra_knobs=(), taichi_family=False,
                 aliases=()):
    """Register (or replace) an arm.  Returns the :class:`Arm`."""
    arm = Arm(name=name, cls=cls, doc=doc, extra_knobs=tuple(extra_knobs),
              taichi_family=taichi_family, aliases=tuple(aliases))
    ARMS[name] = arm
    for alias in arm.aliases:
        ALIASES[alias] = name
    return arm


def arm_names(include_aliases=True):
    """Sorted names accepted by :func:`get_arm`."""
    names = set(ARMS)
    if include_aliases:
        names |= set(ALIASES)
    return sorted(names)


def get_arm(name):
    """Resolve an arm (or alias) to its :class:`Arm`."""
    canonical = ALIASES.get(name, name)
    try:
        return ARMS[canonical]
    except KeyError:
        raise ValueError(
            f"unknown arm {name!r}; choose from {arm_names()}") from None


def is_arm(name):
    return name in ARMS or name in ALIASES


def validate_knobs(name, knobs):
    """Reject unknown knobs with the arm name and its accepted set."""
    arm = get_arm(name)
    unknown = sorted(set(knobs) - set(arm.knobs))
    if unknown:
        raise ValueError(
            f"arm {arm.name!r} does not accept knob(s) {unknown}; "
            f"accepted knobs: {sorted(arm.knobs)}")
    return arm


def build_arm(name, seed=0, **knobs):
    """Construct a deployment for ``name`` with validated ``knobs``.

    This is the single construction path behind ``scenario.build``,
    ``build_deployment`` and the fleet/soak drivers.  Post-construction
    knobs are applied in the order the fleet runner established:
    ``dp_boost`` (warmup, then repartition) before ``degradation``.
    """
    arm = validate_knobs(name, knobs)
    dp_boost = int(knobs.pop("dp_boost", 0) or 0)
    degradation = bool(knobs.pop("degradation", False))
    if dp_boost < 0:
        raise ValueError("dp_boost must be >= 0")
    deployment = arm.cls(seed=seed, **_coerce_knobs(knobs))
    if dp_boost:
        deployment.warmup()
        DynamicRepartitioner(deployment).cp_to_dp(dp_boost)
    if degradation:
        deployment.taichi.enable_degradation()
    return deployment


# -- Knob (de)serialization ---------------------------------------------------------

def _coerce_knobs(knobs):
    """Revive dict-valued knobs (from Scenario JSON) into their dataclasses."""
    revived = dict(knobs)
    for key, (cls, nested) in _KNOB_FACTORIES.items():
        value = revived.get(key)
        if isinstance(value, dict):
            revived[key] = _revive(key, cls, value, nested)
    return revived


def _revive(knob, cls, data, nested=None):
    """``cls(**data)``, reviving ``nested`` dict fields first; an unknown
    field is a ValueError naming the knob and the field."""
    accepted = sorted(f.name for f in fields(cls) if f.init)
    unknown = sorted(set(data) - set(accepted))
    if unknown:
        raise ValueError(
            f"knob {knob!r} has no field {unknown[0]!r}; "
            f"{cls.__name__} accepts {accepted}")
    data = dict(data)
    for key, sub_cls in (nested or {}).items():
        if isinstance(data.get(key), dict):
            data[key] = _revive(f"{knob}.{key}", sub_cls, data[key])
    return cls(**data)


#: Dict-valued knob -> (dataclass, {nested dict field: dataclass}).
_KNOB_FACTORIES = {
    "taichi_config": (TaiChiConfig, {"costs": VirtCosts}),
    "board_config": (BoardConfig, {"accelerator": AcceleratorParams,
                                   "kernel": KernelParams}),
    "dp_params": (DPServiceParams, None),
    "engine": (EngineConfig, None),
}


def knob_to_jsonable(value):
    """The JSON form of one knob value (dataclasses become dicts)."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return [knob_to_jsonable(item) for item in value]
    return value


# -- The built-in arms --------------------------------------------------------------

register_arm(
    "static", DEPLOYMENTS["static"],
    doc="Production baseline: static 8 DP / 4 CP partition, no sharing.",
    aliases=("baseline",))
register_arm(
    "taichi", DEPLOYMENTS["taichi"],
    doc="The full Tai Chi framework.",
    extra_knobs=("taichi_config",), taichi_family=True)
register_arm(
    "taichi-no-hw-probe", DEPLOYMENTS["taichi-no-hw-probe"],
    doc="Ablation: software probe only; DP resumes on slice expiry.",
    extra_knobs=("taichi_config",), taichi_family=True)
register_arm(
    "taichi-vdp", DEPLOYMENTS["taichi-vdp"],
    doc="Type-1 stand-in: DP services execute in vCPU contexts.",
    extra_knobs=("taichi_config", "guest_tax"), taichi_family=True)
register_arm(
    "type2", DEPLOYMENTS["type2"],
    doc="QEMU+KVM stand-in: emulation tax, guest CP tax, RPC surcharge.",
    extra_knobs=("emulation_overhead", "guest_cp_tax", "rpc_extra_ns"))
register_arm(
    "naive", DEPLOYMENTS["naive"],
    doc="CP tasks co-scheduled directly onto DP CPUs by the kernel.")
