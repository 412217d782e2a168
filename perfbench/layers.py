"""Metrics of a sweep: simulated figures pooled per scheduler, and layer times.

Every simulated number repeats exactly for a given ``(workload, seed,
seconds)``; host times come from the spans of :mod:`spans`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.flash.commands import ParallelismClass
from repro.metrics.latency import percentile
from repro.sim.config import stable_fingerprint

from spans import LAYER_ENTRY_POINTS
from sweeps import BASELINE, SPRINKLER, CellOutcome, fleet_window_ns

#: The paper's own figure for each SPK3-vs-VAS comparison (HPCA 2014).
PAPER_CLAIMS = {
    "spk3_lat_cut": "paper: at least 0.566",
    "spk3_bw_gain": "paper: 1.8 to 2.2",
    "flash.chip_util": "paper: +68.8%",
    "flash.pal_frac": "paper: +80.2%",
    "flash.transactions": "paper: 1/2",
}


def result_digest(outcomes: Sequence[CellOutcome]) -> str:
    """``stable_fingerprint`` over every cell's result, in job order."""
    return stable_fingerprint([outcome.result for outcome in outcomes])


def _of(outcomes: Iterable[CellOutcome], scheduler: str) -> List[CellOutcome]:
    return [outcome for outcome in outcomes if outcome.scheduler == scheduler]


def _devices(outcomes: Iterable[CellOutcome]):
    return [device for outcome in outcomes for device in outcome.devices]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean_latency_ns(outcomes: Sequence[CellOutcome]) -> float:
    """Mean simulated latency over every I/O of the cells."""
    devices = _devices(outcomes)
    count = sum(device.latency.count for device in devices)
    total = sum(sum(device.latency.samples_ns) for device in devices)
    return _ratio(total, count)


def throughput(outcomes: Sequence[CellOutcome]) -> float:
    """Bytes per simulated ns pooled over cells: total bytes / total window."""
    total_bytes = 0
    window = 0
    for outcome in outcomes:
        if outcome.fleet is not None:
            total_bytes += outcome.fleet.total_bytes
            window += fleet_window_ns(outcome.fleet)
        else:
            total_bytes += sum(device.total_bytes for device in outcome.devices)
            window += sum(device.makespan_ns for device in outcome.devices)
    return _ratio(total_bytes, window)


def end_to_end(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """The simulated end-to-end metrics, plus the SPK3 latency sample count."""
    vas, spk3 = _of(outcomes, BASELINE), _of(outcomes, SPRINKLER)
    samples: List[int] = []
    for device in _devices(spk3):
        samples.extend(device.latency.samples_ns)
    offered = sum(outcome.offered for outcome in outcomes)
    return {
        "completed_frac": _ratio(sum(outcome.completed for outcome in outcomes), offered),
        "spk3_lat_cut": 1.0 - _ratio(mean_latency_ns(spk3), mean_latency_ns(vas)),
        "spk3_bw_gain": _ratio(throughput(spk3), throughput(vas)),
        "spk3_lat_p50_us": percentile(samples, 0.50) / 1_000.0,
        "spk3_lat_p99_us": percentile(samples, 0.99) / 1_000.0,
        "spk3_lat_samples": len(samples),
    }


def per_scheduler(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """Simulated per-layer counts, suffixed ``.vas`` / ``.spk3``."""
    metrics: Dict[str, float] = {}
    for scheduler in (BASELINE, SPRINKLER):
        devices = _devices(_of(outcomes, scheduler))
        suffix = "." + scheduler.lower()
        host_writes = sum(device.lifetime.host_writes for device in devices if device.lifetime)
        flash_writes = sum(device.lifetime.flash_writes for device in devices if device.lifetime)
        transactions = sum(device.flp.total_transactions for device in devices)
        non_pal = sum(device.flp.transactions[ParallelismClass.NON_PAL] for device in devices)
        chips = sum(len(device.utilization.per_chip) for device in devices)
        busy = sum(sum(device.utilization.per_chip.values()) for device in devices)
        values = {
            "ftl.gc_triggers": sum(
                device.gc_stats.invocations for device in devices if device.gc_stats
            ),
            "ftl.pages_migrated": sum(
                device.gc_stats.pages_migrated for device in devices if device.gc_stats
            ),
            "ftl.write_amp": _ratio(flash_writes, host_writes) if host_writes else 1.0,
            "ftl.retargeted": sum(int(device.extra["requests_retargeted"]) for device in devices),
            "core.compositions": sum(device.memory_requests_composed for device in devices),
            "core.rios_visits": sum(
                device.counters.get("scheduler.rios_visits", 0) for device in devices
            ),
            "core.hol_stalls": sum(
                device.counters.get("scheduler.hol_stalls", 0) for device in devices
            ),
            "flash.transactions": transactions,
            "flash.reqs_per_txn": _ratio(
                sum(device.memory_requests_served for device in devices), transactions
            ),
            "flash.pal_frac": _ratio(transactions - non_pal, transactions),
            "flash.chip_util": _ratio(busy, chips),
            "nvmhc.stall_ms": sum(device.queue_stall_time_ns for device in devices) / 1e6,
            "nvmhc.backlogged": sum(int(device.extra["stalled_requests"]) for device in devices),
        }
        metrics.update({name + suffix: value for name, value in values.items()})
    return metrics


def executed_counts(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """Counts of the work a pass simulated (events, requests, aging, fleet)."""
    devices = _devices(outcomes)
    fleets = [outcome.fleet for outcome in outcomes if outcome.fleet is not None]
    return {
        "sim.events": sum(device.events_processed for device in devices),
        "sim.batches": sum(device.event_batches for device in devices),
        "lifetime.steady_passes": sum(
            device.lifetime.steady_state_passes for device in devices if device.lifetime
        ),
        "workloads.requests": sum(device.num_ios for device in devices),
        "fleet.rejected": sum(fleet.rejected_ios for fleet in fleets),
        "fleet.throttled": sum(fleet.throttled_ios for fleet in fleets),
        "fleet.bg_ios": sum(fleet.background_ios for fleet in fleets),
    }


def paper_ratios(layer_metrics: Dict[str, float]) -> Dict[str, Optional[float]]:
    """SPK3 / VAS ratio of the per-layer metrics the paper reports a gain for.

    ``None`` where VAS measured 0 and the ratio is undefined.
    """
    ratios: Dict[str, Optional[float]] = {}
    for name in ("flash.chip_util", "flash.pal_frac", "flash.transactions"):
        vas = layer_metrics[f"{name}.{BASELINE.lower()}"]
        ratios[name] = layer_metrics[f"{name}.{SPRINKLER.lower()}"] / vas if vas else None
    return ratios


def traced_metrics(
    tracer, import_s: float, sweep_cpu: float, measured, engines
) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    ``import_s``, ``other_s`` and the layers' self times add up to
    ``trace.sweep_cpu_s``.
    """
    self_times = tracer.self_times()
    metrics: Dict[str, float] = {
        f"{layer}_s": self_times.get(layer, 0.0) for _, _, layer in LAYER_ENTRY_POINTS
    }
    metrics.update(executed_counts(measured))
    metrics["sim.events_per_s"] = _ratio(metrics["sim.events"], metrics["sim.run_s"])
    metrics["engine.jobs"] = sum(engine.stats.jobs_executed for engine in engines)
    metrics["engine.cache_hits"] = sum(engine.stats.cache_hits for engine in engines)
    metrics["import_s"] = import_s
    metrics["other_s"] = sweep_cpu - import_s - sum(self_times.values())
    metrics["trace.sweep_cpu_s"] = sweep_cpu
    metrics["trace.spans"] = len(tracer.spans)
    metrics.update(per_scheduler(measured))
    return metrics
