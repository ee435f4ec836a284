"""The benchmark's workloads and how one repeat of each runs.

Every workload is closed loop with a single client: one process drives
the DES through the public ``run_soak`` / ``run_fleet`` entry points,
except ``rack_fleet``, whose runner fans its eight nodes out over
``JOBS`` worker processes.  A run simulates a fixed number of sub-seeds
derived from the benchmark seed, each over a fixed simulated window, so
the ``sim_*`` results depend only on the seed, never on host speed.
"""

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.fleet import report as fleet_report
from repro.fleet import runner as fleet_runner
from repro.fleet.spec import FleetSpec
from repro.metrics.sketch import merge_sketch_dicts
from repro.metrics.stats import attainment_pct, summarize
from repro.obs import observe
from repro.obs.telemetry import TelemetryConfig
from repro.scenario import Scenario, WorkloadMix
from repro.scenario import soak as soak_module
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.tenancy.soak import verify_tenant_summary

import layers

MS = 1_000_000

#: Fleet worker processes; equal to ``nproc`` on the reference host.
JOBS = 2

#: Simulated time per slice (see ``FirstEvent``): 5-35 host ms on the
#: reference host, depending on the workload.
SLICE_NS = MS

#: Iterations of the reference loop (``reference_s``), and its time on the
#: reference host when no other tenant slows it (5th percentile of 3000).
REF_LOOPS = 4000
REF_S = 0.28e-3

#: Reference loops timed when the set-up ends; their median gives its speed.
SETUP_REF_LOOPS = 9

#: The ``storm`` fault preset spans about one simulated second; it is
#: compressed by ``duration / _STORM_HORIZON_NS`` to fit the window.
_STORM_HORIZON_NS = 1_000 * MS

#: DP latency SLO every probe is scored against (the soak default).
DP_SLO_US = 300.0


def sub_seeds(seed, count):
    """The simulation seeds one benchmark seed stands for."""
    return [int.from_bytes(hashlib.sha256(f"{seed}/{index}".encode())
                           .digest()[:4], "big")
            for index in range(count)]


class FirstEvent:
    """Host time (``time.monotonic``) at which a repeat's simulation starts,
    and the host's speed while it simulates.

    For a soak the start is the first ``Environment.run`` call; for the
    fleet, the runner handing its payloads to the worker pool.  With
    ``stop`` set, that moment ends the program instead (the set-up probe).

    Every ``Environment.run(until=t)`` call, in this process or in a fleet
    worker forked from it, is cut at each multiple of ``SLICE_NS``
    simulated nanoseconds, and the reference loop is timed at every cut
    (see ``reference_s``).  A cut is one extra stop event in the queue: it
    runs no callback of the program, so the simulated schedule is the
    same; the ``stops`` sum counts the cuts so that event counts can leave
    them out.  Each run call sends its sums (``_SUMS``) down a pipe, so
    that fleet workers report theirs to this process.
    """

    class Reached(Exception):
        pass

    def __init__(self, stop=False):
        self.stop = stop
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        self.reset()

    def reset(self):
        self.at = None            # the set-up ended
        self.window_at = None     # the measured window started
        self.env = None
        self.setup_speed = None
        self.sums = dict.fromkeys(_SUMS, 0)

    def collect(self):
        """Add up what every run call sent since the last ``collect``."""
        data = b""
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        for line in data.decode().splitlines():
            for name, value in zip(_SUMS, line.split()):
                self.sums[name] += float(value)
        return self.sums

    def speed(self):
        """Host seconds at the reference host's speed per host second,
        averaged over the sliced time (1 when nothing was sliced)."""
        sums = self.collect()
        return (sums["scaled_s"] / sums["sliced_s"] if sums["sliced_s"]
                else 1.0)

    def install(self):
        run = Environment.run
        pool_outcomes = fleet_runner.pool_outcomes
        clock = self

        def first_run(env, until=None):
            if clock.at is None:
                clock.mark(env)
            if until is None or isinstance(until, Event):
                return run(env, until)
            end = int(until)
            cut = (env.now // SLICE_NS + 1) * SLICE_NS
            sums = dict.fromkeys(_SUMS, 0)
            while True:
                started = time.perf_counter()
                result = run(env, min(cut, end))
                sliced = time.perf_counter() - started
                reference = reference_s()
                sums["sliced_s"] += sliced
                sums["scaled_s"] += sliced * REF_S / reference
                sums["reference_s"] += reference
                if cut >= end:
                    break
                sums["stops"] += 1
                cut += SLICE_NS
            os.write(clock._write, (" ".join(
                repr(sums[name]) for name in _SUMS) + "\n").encode())
            return result

        def first_dispatch(*args, **kwargs):
            if clock.at is None:
                clock.mark(None)
            return pool_outcomes(*args, **kwargs)

        Environment.run = first_run
        fleet_runner.pool_outcomes = first_dispatch
        return self

    def mark(self, env):
        self.at = time.monotonic()
        self.env = env
        # The set-up just ended; its speed is what the reference loop
        # shows now (the host's swings last seconds).
        self.setup_speed = REF_S / statistics.median(
            reference_s() for _ in range(SETUP_REF_LOOPS))
        self.window_at = time.monotonic()
        if self.stop:
            raise FirstEvent.Reached()


#: What each sliced run call sends: host seconds in its slices, the same
#: at the reference host's speed, host seconds in the reference loop, and
#: stop events added.
_SUMS = ("sliced_s", "scaled_s", "reference_s", "stops")


def reference_s():
    """Host seconds of the reference loop: pure interpreter work with no
    memory traffic, run on the same CPU right after each slice.

    The host's speed swings by up to twofold for seconds at a time (other
    tenants of the machine); the loop slows with it, and ``REF_S`` over
    its time is the slice's speed-up back to the reference host's idle
    speed.
    """
    started = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - started


@dataclass
class Repeat:
    """One measured repeat of a workload at one simulation seed."""

    digest: str
    wall_s: float        # host seconds over the measured window
    speed: float         # host s at the reference host's speed per host s
    sim_s: float         # simulated seconds in it (summed over fleet nodes)
    results: dict        # mergeable simulated results, see ``pool_results``
    attempted: int       # operations: 1 per soak, 1 per node for the fleet
    problems: list       # failed output checks
    notes: list          # reported lines that are not failures
    counts: dict = field(default_factory=dict)   # per-layer counts


def _digest(data):
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _results(block, parts):
    """Distributions of ``block`` plus exact SLO counts summed over ``parts``.

    A soak summary ships its raw samples as well as sketches; fleet node
    summaries ship only the sketches.
    """
    return {
        "dp_samples": block.get("dp_samples_us"),
        "dp_sketch": block["dp_sketch"],
        "dp_within": sum(part["dp_within_slo"] for part in parts),
        "dp_total": sum(part["dp_slo_total"] for part in parts),
        "startup_samples": block.get("startup_samples_ms"),
        "startup_sketch": block["startup_sketch"],
        "startup_within": sum(part["startup_within_slo"] for part in parts),
        "startup_total": sum(part["startup_slo_total"] for part in parts),
    }


def _pooled(results, kind, q):
    """Count and ``p<q>`` of one distribution over several repeats: exact
    when every repeat shipped raw samples, else from the merged sketches."""
    if all(r[f"{kind}_samples"] is not None for r in results):
        return summarize([value for r in results
                          for value in r[f"{kind}_samples"]], qs=(q,))
    return merge_sketch_dicts([r[f"{kind}_sketch"] for r in results]).summary(
        qs=(q,))


def pool_results(results):
    """The ``sim_*`` results over several repeats' ``results``.

    Returns the bounded end-to-end values, and printable lines for every
    simulated result, each with its sample count.
    """
    dp = _pooled(results, "dp", 99)
    startups = _pooled(results, "startup", 90)
    startup_total = sum(r["startup_total"] for r in results)
    values = {
        "sim_dp_p99_us": dp.get("p99", 0.0),
        "sim_dp_slo_pct": attainment_pct(
            sum(r["dp_within"] for r in results),
            sum(r["dp_total"] for r in results)),
    }
    startup_slo = attainment_pct(sum(r["startup_within"] for r in results),
                                 startup_total)
    lines = [
        f"sim_dp_p99_us over {dp['count']} probes "
        f"({dp['count'] // 100} beyond p99)",
        f"sim_vm_startup_p90_ms = {startups.get('p90', 0.0):.6g} ms over "
        f"{startups['count']} startups ({startups['count'] // 10} beyond "
        f"p90; not bounded)",
        f"sim_startup_slo_pct = {startup_slo:.6g} % of {startup_total} "
        f"startups due (not bounded)",
    ]
    return values, lines


@dataclass
class SoakWorkload:
    """One board soaked through ``run_soak``.

    A board with ``tenants`` also rides out the ``storm`` fault preset
    with telemetry, spans and inline invariant checks on; one without
    runs ``mix`` with observability off.
    """

    name: str
    why: str
    duration_ms: float
    drain_ms: float
    seeds: int               # simulation seeds per benchmark seed
    mix: dict = None
    tenants: list = None
    operations = 1           # a repeat is one soak

    def scenario(self):
        if self.tenants:
            return Scenario(arm="taichi", traffic="steady", faults="storm",
                            degradation=True, tenants=self.tenants,
                            tenant_isolation=True)
        return Scenario(arm="taichi", traffic="steady",
                        workload=WorkloadMix(**self.mix))

    def run(self, seed, clock, scale=1.0):
        duration_ns = int(self.duration_ms * MS * scale)
        drain_ns = int(self.drain_ms * MS * scale)
        scenario = self.scenario()
        kwargs = dict(seed=seed, duration_ns=duration_ns, drain_ns=drain_ns,
                      dp_slo_us=DP_SLO_US)
        violations, tracer = 0, None
        clock.reset()
        if self.tenants:
            with observe(check_invariants=True) as session:
                summary = soak_module.run_soak(
                    scenario, fault_scale=duration_ns / _STORM_HORIZON_NS,
                    telemetry=TelemetryConfig(), spans=True, **kwargs)
            ended = time.monotonic()
            violations = len(session.violations())
            tracer = session.streams[0][1]
        else:
            summary = soak_module.run_soak(scenario, **kwargs)
            ended = time.monotonic()

        problems, notes = [], []
        if violations:
            problems.append(f"{violations} invariant violations")
        for line in verify_tenant_summary(summary) if self.tenants else ():
            # The SLO line is a result, reported as a per-layer metric; the
            # ledger and sample-accounting lines are output checks.
            (notes if "declared SLO" in line else problems).append(line)
        engine = {key: value for key, value in summary["engine"].items()
                  if "wall" not in key}
        speed = clock.speed()
        return Repeat(
            digest=_digest({**summary, "engine": engine}),
            wall_s=ended - clock.window_at - clock.sums["reference_s"],
            speed=speed,
            sim_s=(duration_ns + drain_ns) / 1e9,
            results=_results(summary, [summary]),
            attempted=1,
            problems=problems,
            notes=notes,
            counts=layers.soak_counts(clock.env.metrics.snapshot(), summary,
                                      violations, tracer,
                                      int(clock.sums["stops"])),
        )


@dataclass
class FleetWorkload:
    """The ``rack`` preset through ``run_fleet``."""

    name: str
    why: str
    scale: float
    seeds: int               # simulation seeds per benchmark seed
    operations = len(FleetSpec.preset("rack").nodes)   # one per node

    def run(self, seed, clock, scale=1.0):
        spec = FleetSpec.preset("rack").with_seed(seed)
        scale = self.scale * scale
        payloads = fleet_runner.FleetRunner(spec, jobs=JOBS,
                                            scale=scale).payloads()
        sim_s = sum(p["duration_ns"] + p["drain_ns"] for p in payloads) / 1e9
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        clock.reset()
        started = time.monotonic()
        report = fleet_runner.run_fleet(spec, jobs=JOBS, scale=scale,
                                        allow_failures=True)
        ended = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        text = json.dumps(fleet_report.canonical_report(report), indent=2,
                          sort_keys=True) + "\n"

        failed = report["aggregate"].get("failed_nodes", [])
        speed = clock.speed()
        # The workers ran the reference loop about evenly, side by side.
        reference_s = clock.sums["reference_s"]
        node_host_s = (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime - reference_s)
        host_s = ended - started - reference_s / JOBS
        efficiency = layers.ratio(node_host_s, JOBS * host_s)
        retried = report["timing"].get("retried", {})
        counts = layers.fleet_counts(report, int(clock.sums["stops"]))
        counts.update({
            "fleet.nodes_ok": len(report["nodes"]),
            "fleet.nodes_failed": len(failed),
            "fleet.retries": sum(n - 1 for n in retried.values()),
            "fleet.report_bytes": len(text.encode()),
            "fleet.node_host_s": node_host_s,
            "fleet.host_s": host_s,
            "fleet.parallel_efficiency": efficiency,
        })
        return Repeat(
            digest=hashlib.sha256(text.encode()).hexdigest(),
            wall_s=ended - clock.window_at - reference_s / JOBS,
            speed=speed,
            sim_s=sim_s,
            results=_results(report["aggregate"]["fleet"], report["nodes"]),
            attempted=len(spec.nodes),
            problems=[f"node {entry['node_id']} failed: {entry.get('error')}"
                      for entry in failed],
            notes=[f"parallel efficiency {efficiency:.3f} = "
                   f"{node_host_s:.2f} node host-s / ({JOBS} jobs x "
                   f"{host_s:.2f} fleet host-s)"],
            counts=counts,
        )


#: VM-storm batches of one or two VMs: with spans on, each VM in flight
#: makes span attribution costlier, so batches of up to ten would make
#: host time swing with how many storms a seed happens to draw.
_VICTIM = {"tenant_id": "victim", "weight": 4.0, "dp_slo_us": DP_SLO_US,
           "workload": {"vm_batch_min": 1, "vm_batch_max": 2}}
_NOISY = {"tenant_id": "noisy", "weight": 1.0, "traffic": "spiky",
          "workload": {"vm_period_ms": 40.0, "vm_batch_min": 1,
                       "vm_batch_max": 2}}

WORKLOADS = {workload.name: workload for workload in (
    SoakWorkload(
        name="saturated_board",
        why="Tai Chi board at 90% DP load with CP and VM storms: kernel "
            "placement, the hw-to-dp packet chain and device management "
            "dominate",
        duration_ms=220, drain_ms=80, seeds=6,
        mix={"dp_utilization": 0.90, "n_monitors": 8, "rolling_tasks": 6,
             "vm_period_ms": 20.0}),
    SoakWorkload(
        name="tenant_storm",
        why="two-tenant isolated board under the storm fault preset with "
            "telemetry, spans and invariants: the only tenancy, faults and "
            "obs write paths",
        duration_ms=100, drain_ms=50, seeds=7,
        tenants=[_VICTIM, _NOISY]),
    FleetWorkload(
        name="rack_fleet",
        why="the 8-board rack preset at 2 worker processes: the only fleet "
            "pool, pickling, aggregation and static-arm workload",
        scale=0.3, seeds=3),
)}
