"""The repository benchmark: one long serial sweep per run, timed in CPU seconds.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 11 --seconds 25 --trace 0

Workloads: ``paper_grid``, ``aged_grid`` and ``fleet_sweep`` (see
``perfbench/README.md``).  Each run is one process that runs one job at a time
through the serial execution engine, prints a per-cell table, the result
digest and every metric with its unit, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry points in CPU-time spans, writes them to
``.perfbench-out/`` and reports per-layer self times and simulated counts.
The exit code is 1 when a correctness check fails and 2 when the
repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_grid", "aged_grid", "fleet_sweep")
#: The run length the sweep sizes in ``sweeps.py`` are tuned for; ``--seconds``
#: scales their request counts by ``seconds / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 25
#: The seed used when none is given, and one kept out of all tuning.
DEFAULT_SEED = 11
HELD_OUT_SEED = 2029

END_TO_END_UNITS = {
    "sweep_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
    "spk3_lat_cut": "frac",
    "spk3_bw_gain": "ratio",
    "spk3_lat_p50_us": "us",
    "spk3_lat_p99_us": "us",
}

_SCHEDULER_LAYER_UNITS = {
    "ftl.gc_triggers": "count",
    "ftl.pages_migrated": "count",
    "ftl.write_amp": "ratio",
    "ftl.retargeted": "count",
    "core.compositions": "count",
    "core.rios_visits": "count",
    "core.hol_stalls": "count",
    "flash.transactions": "count",
    "flash.reqs_per_txn": "ratio",
    "flash.pal_frac": "frac",
    "flash.chip_util": "frac",
    "nvmhc.stall_ms": "ms",
    "nvmhc.backlogged": "count",
}

PER_LAYER_UNITS = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.batches": "count",
    "sim.events_per_s": "1/s",
    "sim.result_s": "s",
    "sim.construct_s": "s",
    "lifetime.precondition_s": "s",
    "lifetime.steady_s": "s",
    "lifetime.steady_passes": "count",
    "ftl.prefill_s": "s",
    "workloads.build_s": "s",
    "workloads.requests": "count",
    "devices.resolve_s": "s",
    "engine.fingerprint_s": "s",
    "engine.cache_load_s": "s",
    "engine.cache_store_s": "s",
    "engine.jobs": "count",
    "engine.cache_hits": "count",
    "array.split_s": "s",
    "array.merge_s": "s",
    "fleet.placement_s": "s",
    "fleet.admission_s": "s",
    "fleet.background_s": "s",
    "fleet.merge_s": "s",
    "fleet.rejected": "count",
    "fleet.throttled": "count",
    "fleet.bg_ios": "count",
    "import_s": "s",
    "other_s": "s",
    "trace.sweep_cpu_s": "s",
    "trace.spans": "count",
    **{
        f"{name}.{scheduler}": unit
        for name, unit in _SCHEDULER_LAYER_UNITS.items()
        for scheduler in ("vas", "spk3")
    },
}


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out from tuning)",
    )
    parser.add_argument(
        "--seconds", type=int, default=NOMINAL_SECONDS, help="run length the work is sized to"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_cells(passes: Dict[str, list]) -> None:
    """One row per cell: I/Os completed, mean latency, bandwidth (simulated)."""
    import layers

    print(f"{'pass':<5} {'cell':<34} {'sched':<5} {'I/Os':>7} {'mean_us':>11} {'MB/s':>9}")
    for pass_name, outcomes in passes.items():
        for outcome in outcomes:
            row = f"{pass_name:<5} {outcome.label:<34} {outcome.scheduler:<5}"
            if outcome.error is not None:
                print(f"{row} raised {outcome.error}")
                continue
            mean_us = layers.mean_latency_ns([outcome]) / 1e3
            rate = layers.throughput([outcome]) * 1e9 / 2**20
            print(f"{row} {outcome.completed:>7} {mean_us:>11.1f} {rate:>9.1f}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import sweeps
    from spans import LAYER_ENTRY_POINTS, SETUP_LAYERS, Tracer

    import_s = cpu_seconds()
    tracer = Tracer()
    tracer.install(
        LAYER_ENTRY_POINTS
        if args.trace
        else [entry for entry in LAYER_ENTRY_POINTS if entry[2] in SETUP_LAYERS]
    )
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    try:
        scale = args.seconds / NOMINAL_SECONDS
        measured, passes, engines = sweeps.run_workload(
            args.workload, args.seed, scale, tracer, work_dir
        )
        print_cells(passes)
        sys.stdout.flush()
        sweep_cpu = cpu_seconds()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = {name: layers.result_digest(outcomes) for name, outcomes in passes.items()}
    problems = [
        f"{name} {problem}"
        for name, outcomes in passes.items()
        for problem in sweeps.check(outcomes)
    ]
    if "warm" in digests and digests["warm"] != digests["cold"]:
        problems.append("warm pass digest differs from the cold pass")
    simulated = layers.end_to_end(measured)
    if args.trace:
        metrics = layers.traced_metrics(tracer, import_s, sweep_cpu, measured, engines)
        units = PER_LAYER_UNITS
        spans_path = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "sweep_cpu_s": sweep_cpu,
            "setup_s": import_s + tracer.outermost_time(SETUP_LAYERS),
            "peak_rss_mb": peak_rss_mb,
            **{name: simulated[name] for name in END_TO_END_UNITS if name in simulated},
        }
        units = END_TO_END_UNITS

    print()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, digest in digests.items():
        print(f"result digest ({name} pass): {digest}")
    notes = dict(layers.PAPER_CLAIMS)
    notes["spk3_lat_p50_us"] = notes["spk3_lat_p99_us"] = (
        f"over {simulated['spk3_lat_samples']} pooled SPK3 samples"
    )
    if args.trace:
        # The simulated end-to-end figures, to compare with the timed run.
        for name, unit in END_TO_END_UNITS.items():
            if name in simulated:
                print(f"  {name:<26} {simulated[name]:>16.6g} {unit:<6} {notes.get(name, '')}")
        for name, ratio in layers.paper_ratios(metrics).items():
            change = f"x{ratio:.3f} = {ratio - 1:+.1%}" if ratio is not None else "VAS is 0"
            print(f"SPK3 vs VAS {name}: {change} ({notes[name]})")
    for name, unit in units.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:<26} {metrics[name]:>16.6g} {unit:<6} {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    all_outcomes = [outcome for outcomes in passes.values() for outcome in outcomes]
    record = {
        "correct": not problems,
        "attempted": max(1, sum(outcome.submitted for outcome in all_outcomes)),
        "failed": sum(outcome.incomplete for outcome in all_outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(record))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
