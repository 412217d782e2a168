"""The three benchmark sweeps, each a list of cells run one at a time.

Every sweep is a closed batch on the host - one process, one job at a time
through the serial :class:`~repro.experiments.engine.ExecutionEngine` - while
inside the model each trace's arrivals are an open loop at the trace's own
timestamps, so a device queue can back up.

Sizes are given for a nominal run (``NOMINAL_SECONDS`` in ``run.py``);
``scale`` multiplies the request counts (not the number of cells or
devices), so a run's work, and therefore its digest, is a function of
``(workload, seed, seconds)`` alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.devices import device_model
from repro.experiments.engine import ExecutionEngine
from repro.experiments.fleet_sweep import DEFAULT_PLACEMENTS, build_fleet_spec
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.fleet import run_fleet
from repro.fleet.result import FleetResult, reconcile_fleet
from repro.metrics.attribution import reconcile_attribution
from repro.metrics.report import SimulationResult
from repro.scenarios.library import aged_device_state, fleet_scenario, sustained_write_scenario
from repro.sim.config import SimulationConfig

KB = 1024

#: VAS is the paper's baseline and SPK3 its full Sprinkler; the other three
#: schedulers run in ``paper_grid`` only, as the paper's own grid does.
BASELINE, SPRINKLER = "VAS", "SPK3"
PAPER_SCHEDULERS = ("VAS", "PAS", "SPK1", "SPK2", "SPK3")

#: Table 1 traces: three read-heavy and three write-heavy profiles.
PAPER_TRACES = ("cfs0", "hm1", "proj4", "msnfs0", "proj0", "hm0")
PAPER_REQUESTS_PER_TRACE = 850

#: Device images are part of the device under test, not of the traffic: the
#: aging seed is pinned so every seed ages the same devices.
DEVICE_STATE_SEED = 11
AGED_OVERPROVISIONING = (0.07, 0.15, 0.28)
AGED_REQUESTS_PER_CELL = 1600
#: The paper's Figure 17 preconditioning: 90% full, 45% of it rewritten.
LEGACY_PREFILL = (0.9, 0.45)
FULL_SIZE_DEVICE = "mlc-gen2"
FULL_SIZE_OVERPROVISIONING = 0.07

FLEET_SIZES = (2, 3, 4, 5, 6)
FLEET_REQUESTS_PER_TENANT = 330


@dataclass
class CellOutcome:
    """What one cell produced, or how it failed."""

    label: str
    scheduler: str
    #: What the digest covers: the cell's result object, or the failure.
    result: object
    #: Every device-level result of the cell (empty when it raised).
    devices: Tuple[SimulationResult, ...] = ()
    #: Host I/Os offered to the cell and completed by it.
    offered: int = 0
    completed: int = 0
    #: Device commands submitted and left incomplete (a raised cell's whole
    #: workload counts as incomplete).
    submitted: int = 0
    incomplete: int = 0
    error: Optional[str] = None
    fleet: Optional[FleetResult] = None
    #: Counts the host I/Os the cell was given, from its inputs alone, so
    #: :func:`check` does not trust the simulator's own count.
    size: Optional[Callable[[], int]] = None


@dataclass(frozen=True)
class Cell:
    """One unit of work: ``run`` returns an outcome, ``size`` counts its I/Os."""

    label: str
    scheduler: str
    run: Callable[[], CellOutcome]
    size: Callable[[], int]


def run_cells(cells: Sequence[Cell], tracer) -> List[CellOutcome]:
    """Run cells in order; a cell that raises becomes a failed outcome."""
    outcomes: List[CellOutcome] = []
    for cell in cells:
        tracer.cell = cell.label
        try:
            outcome = cell.run()
            outcome.size = cell.size
            outcomes.append(outcome)
        except Exception as exc:  # a crashed cell is reported, the sweep goes on
            size = cell.size()
            outcomes.append(
                CellOutcome(
                    label=cell.label,
                    scheduler=cell.scheduler,
                    result=("raised", type(exc).__name__),
                    offered=size,
                    submitted=size,
                    incomplete=size,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    tracer.cell = None
    return outcomes


def check(outcomes: Sequence[CellOutcome]) -> List[str]:
    """Correctness problems of the cells that ran; empty when all is exact.

    A cell must report the I/O count its inputs hold (if not, its offered
    count is corrected, so lost I/Os count as not completed), complete every
    device command, and reconcile its attribution.  Rebuilds every cell's
    inputs, so call it after the timed part of a run.
    """
    problems = []
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        found = []
        given = outcome.size()
        if given != outcome.offered:
            found.append(f"given {given} I/Os, reported {outcome.offered}")
            outcome.offered = given
        if outcome.incomplete:
            found.append(f"{outcome.incomplete} of {outcome.submitted} device commands incomplete")
        if outcome.fleet is not None:
            found.extend(reconcile_fleet(outcome.fleet))
        else:
            found.extend(
                problem
                for device in outcome.devices
                if device.attribution is not None
                for problem in reconcile_attribution(device)
            )
        problems.extend(f"{outcome.label}: {problem}" for problem in found)
    return problems


# ----------------------------------------------------------------------
# Single-device cells (paper_grid, aged_grid)
# ----------------------------------------------------------------------
def _job_cell(label: str, job: SimJob, engine: ExecutionEngine) -> Cell:
    def run() -> CellOutcome:
        (result,) = engine.run_jobs([job])
        return CellOutcome(
            label=label,
            scheduler=job.scheduler,
            result=result,
            devices=(result,),
            offered=result.num_ios,
            completed=result.completed_ios,
            submitted=result.num_ios,
            incomplete=result.num_ios - result.completed_ios,
        )

    return Cell(label, job.scheduler, run, lambda: len(job.workload.build()))


def paper_grid(seed: int, scale: float, engine: ExecutionEngine) -> List[Cell]:
    """Table 1 traces x the five schedulers on the fresh 64-chip device, GC off."""
    config = SimulationConfig.paper_scale(64, gc_enabled=False)
    requests = max(1, round(PAPER_REQUESTS_PER_TRACE * scale))
    cells = []
    for index, trace in enumerate(PAPER_TRACES):
        workload = WorkloadSpec.datacenter(
            trace, num_requests=requests, seed=seed * 100 + index
        )
        for scheduler in PAPER_SCHEDULERS:
            job = SimJob(workload, scheduler, config=config, key=(trace, scheduler))
            cells.append(_job_cell(f"{trace}/{scheduler}", job, engine))
    return cells


def _overwrite_workload(name: str, requests: int, live_bytes: int, seed: int) -> WorkloadSpec:
    """Sustained 16 KB random overwrites inside a device's live region."""
    scenario = sustained_write_scenario(
        num_requests=requests,
        size_bytes=16 * KB,
        address_space_bytes=live_bytes,
        seed=seed,
    )
    return WorkloadSpec.scenario(dataclasses.replace(scenario, name=name))


def _callback(scheduler: str) -> Optional[bool]:
    """The paper's setup: Sprinkler keeps its readdressing callback, VAS does not."""
    return None if scheduler.startswith("SPK") else False


def aged_grid(seed: int, scale: float, engine: ExecutionEngine) -> List[Cell]:
    """GC-on sustained overwrites on aged, steady, prefilled and full-size devices.

    Every device image (geometry, over-provisioning and aging recipe) is run
    by both schedulers, so a reusable-image cache would age it once.  Each
    image gets its own draw of the overwrite traffic, shared by its two
    schedulers, so the pooled comparison averages over independent inputs.
    """
    requests = max(1, round(AGED_REQUESTS_PER_CELL * scale))
    base = SimulationConfig.paper_scale(64)
    geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
    fill = aged_device_state(seed=DEVICE_STATE_SEED).fill_fraction
    # One window for every scaled-geometry image: the live region at the
    # largest over-provisioning, so every write overwrites live data.
    live_pages = int(geometry.total_pages * (1.0 - max(AGED_OVERPROVISIONING)) * fill)
    scaled_window = live_pages * geometry.page_size_bytes

    # (label, live window in bytes, device fields for one scheduler)
    images: List[Tuple[str, int, Callable[[str], dict]]] = []
    for op in AGED_OVERPROVISIONING:
        for steady in (False, True):
            state = aged_device_state(steady_state=steady, seed=DEVICE_STATE_SEED)
            images.append(
                (
                    f"op{op:g}-{'steady' if steady else 'aged'}",
                    scaled_window,
                    lambda scheduler, op=op, state=state: {
                        "config": base.with_overrides(
                            geometry=geometry,
                            gc_enabled=True,
                            overprovisioning_fraction=op,
                            device_state=state,
                            readdressing_callback=_callback(scheduler),
                        )
                    },
                )
            )
    fraction, overwrite = LEGACY_PREFILL
    images.append(
        (
            "prefill",
            scaled_window,
            lambda scheduler: {
                "config": base.with_overrides(
                    geometry=geometry,
                    gc_enabled=True,
                    prefill_fraction=fraction,
                    prefill_overwrite_fraction=overwrite,
                    readdressing_callback=_callback(scheduler),
                )
            },
        )
    )
    # The full-size zoo device is resolved by id, so device resolution runs.
    full_geometry = device_model(FULL_SIZE_DEVICE).geometry
    full_live = int(full_geometry.total_pages * (1.0 - FULL_SIZE_OVERPROVISIONING) * fill)
    full_state = aged_device_state(seed=DEVICE_STATE_SEED)
    images.append(
        (
            f"{FULL_SIZE_DEVICE}-aged",
            full_live * full_geometry.page_size_bytes,
            lambda scheduler: {
                "device": FULL_SIZE_DEVICE,
                "device_overrides": (
                    ("gc_enabled", True),
                    ("overprovisioning_fraction", FULL_SIZE_OVERPROVISIONING),
                    ("device_state", full_state),
                    ("readdressing_callback", _callback(scheduler)),
                ),
            },
        )
    )

    cells = []
    for index, (label, window, device) in enumerate(images):
        workload = _overwrite_workload(
            f"overwrite-{label}", requests, window, seed * 100 + index
        )
        for scheduler in (BASELINE, SPRINKLER):
            job = SimJob(workload, scheduler, key=(label, scheduler), **device(scheduler))
            cells.append(_job_cell(f"{label}/{scheduler}", job, engine))
    return cells


# ----------------------------------------------------------------------
# Fleet cells (fleet_sweep)
# ----------------------------------------------------------------------
def fleet_window_ns(fleet: FleetResult) -> int:
    """Earliest host arrival to latest completion over every device, absolute.

    Fleet throughput is ``total_bytes`` over this one window, not the sum of
    per-node rates each over its own makespan (``FleetResult.aggregate_*``).
    """
    arrivals, completions = [], []
    for node in fleet.node_results:
        for device in node.device_results:
            if device.time_series:
                arrivals.append(min(point.arrival_ns for point in device.time_series))
                completions.append(max(point.completion_ns for point in device.time_series))
    if not arrivals:
        return 0
    return max(completions) - min(arrivals)


def _fleet_cell(spec, engine: ExecutionEngine, scheduler: str) -> Cell:
    def run() -> CellOutcome:
        fleet = run_fleet(spec, engine)
        devices = tuple(
            device for node in fleet.node_results for device in node.device_results
        )
        submitted = sum(device.num_ios for device in devices)
        incomplete = sum(device.num_ios - device.completed_ios for device in devices)
        admitted = sum(stats.admitted for stats in fleet.admission)
        return CellOutcome(
            label=spec.name,
            scheduler=scheduler,
            result=fleet,
            devices=devices,
            offered=fleet.offered_ios,
            # Admission rejections count as not completed; so does every
            # device command a node failed to finish.
            completed=max(0, admitted - incomplete),
            submitted=submitted,
            incomplete=incomplete,
            fleet=fleet,
        )

    return Cell(spec.name, scheduler, run, lambda: len(spec.scenario.build()))


def fleet_cells(seed: int, scale: float, engine: ExecutionEngine) -> List[Cell]:
    """Fleet size x placement x node scheduler over cycling zoo nodes.

    Each (size, placement) pair serves its own draw of the fleet scenario,
    shared by its VAS and SPK3 cells.
    """
    requests = max(1, round(FLEET_REQUESTS_PER_TENANT * scale))
    cells = []
    shapes = [(size, placement) for size in FLEET_SIZES for placement in DEFAULT_PLACEMENTS]
    for index, (size, placement) in enumerate(shapes):
        scenario = fleet_scenario(requests_per_tenant=requests, seed=seed * 100 + index)
        for scheduler in (BASELINE, SPRINKLER):
            spec = build_fleet_spec(scenario, size, placement)
            spec = dataclasses.replace(
                spec,
                name=f"{spec.name}-{scheduler}",
                nodes=tuple(
                    dataclasses.replace(node, scheduler=scheduler) for node in spec.nodes
                ),
            )
            cells.append(_fleet_cell(spec, engine, scheduler))
    return cells


def run_workload(name: str, seed: int, scale: float, tracer, work_dir: Path):
    """Run one workload; returns ``(measured pass, every pass by name, engines)``.

    ``fleet_sweep`` runs cold against an empty cache under ``work_dir``, then
    warm against the same cache; its cold pass is the measured one.
    """
    if name == "fleet_sweep":
        cache_dir = work_dir / "cache"
        engines = [ExecutionEngine(cache_dir=cache_dir), ExecutionEngine(cache_dir=cache_dir)]
        cold = run_cells(fleet_cells(seed, scale, engines[0]), tracer)
        warm = run_cells(fleet_cells(seed, scale, engines[1]), tracer)
        return cold, {"cold": cold, "warm": warm}, engines
    engine = ExecutionEngine()
    build = paper_grid if name == "paper_grid" else aged_grid
    outcomes = run_cells(build(seed, scale, engine), tracer)
    return outcomes, {"main": outcomes}, [engine]
