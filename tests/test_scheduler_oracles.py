"""Differential test: production PAS and SPK1 against linear-scan oracles.

Production PAS parks blocked I/Os per busy chip and SPK1 ranks FARO chips
in one pass; the oracles in ``scheduler_oracles.py`` rescan the queue on
every composition.  For generated geometries and mixed read/write traffic
(some of it force-unit-access, with GC on or off so migrations go through
the readdressing callback) both must produce the same result digest and hand out
memory requests in the same order.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.ssd as ssd_module
from repro.core.pas import PhysicalAddressScheduler
from repro.core.sprinkler import Sprinkler
from repro.flash.geometry import SSDGeometry
from repro.flash.request import reset_memory_request_ids
from repro.flash.transaction import reset_transaction_ids
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest, reset_io_ids
from scheduler_oracles import LinearScanPAS, LinearScanSPK1

PAGE = 2048

ORACLES = {"PAS": LinearScanPAS, "SPK1": LinearScanSPK1}
PRODUCTION = {"PAS": PhysicalAddressScheduler, "SPK1": Sprinkler}


@st.composite
def scenarios(draw):
    """A small device configuration plus an I/O recipe that fits it."""
    gc_enabled = draw(st.booleans())
    # GC runs on devices small enough for the traffic to exhaust their free
    # blocks, so collection migrates live data under the scheduler.
    largest = 2 if gc_enabled else 3
    geometry = SSDGeometry(
        num_channels=draw(st.integers(1, largest)),
        chips_per_channel=draw(st.integers(1, largest)),
        dies_per_chip=draw(st.integers(1, 2)),
        planes_per_die=draw(st.integers(1, 2)),
        blocks_per_plane=8,
        pages_per_block=8 if gc_enabled else draw(st.sampled_from([8, 16])),
        page_size_bytes=PAGE,
    )
    config = SimulationConfig(
        geometry=geometry,
        gc_enabled=gc_enabled,
        prefill_fraction=draw(st.sampled_from([0.5, 0.85])) if gc_enabled else 0.0,
        queue_depth=draw(st.sampled_from([2, 4, 64])),
        readdressing_callback=draw(st.sampled_from([None, True])),
    )
    # Writes stay inside half the logical space; without GC their total
    # stays below the free pages so the device never runs out of space.
    # With GC the traffic is write-heavy.
    span = geometry.total_pages // 2
    budget = geometry.total_pages // 2
    fua_mix = draw(st.booleans())
    ios = []
    for _ in range(draw(st.integers(1, 40))):
        pages = draw(st.integers(1, min(8, span)))
        is_write = draw(st.integers(0, 3)) > (0 if gc_enabled else 1)
        if is_write and not gc_enabled:
            if pages > budget:
                is_write = False
            else:
                budget -= pages
        ios.append(
            (
                IOKind.WRITE if is_write else IOKind.READ,
                draw(st.integers(0, span - pages)),
                pages,
                draw(st.sampled_from([0, 0, 300, 5_000])),
                fua_mix and draw(st.integers(0, 3)) == 0,
            )
        )
    return config, ios


def build_workload(recipe):
    arrival = 0
    workload = []
    for kind, first_page, pages, gap, fua in recipe:
        arrival += gap
        workload.append(
            IORequest(
                kind=kind,
                offset_bytes=first_page * PAGE,
                size_bytes=pages * PAGE,
                arrival_ns=arrival,
                force_unit_access=fua,
            )
        )
    return workload


def run(config, recipe, scheduler_class):
    """Simulate the recipe with ``scheduler_class``; return (result, composition order)."""
    reset_io_ids()
    reset_memory_request_ids()
    reset_transaction_ids()
    workload = build_workload(recipe)

    def factory(name, context, **options):
        if scheduler_class is Sprinkler:
            return Sprinkler(context, use_rios=False, use_faro=True, **options)
        return scheduler_class(context, **options)

    with mock.patch.object(ssd_module, "make_scheduler", factory):
        simulator = SSDSimulator(config, "unused")
    order = []
    compose = simulator.scheduler.next_composition

    def recording(now_ns):
        request = compose(now_ns)
        if request is not None:
            order.append(request.request_id)
        return request

    simulator.scheduler.next_composition = recording
    return simulator.run(workload, workload_name="differential"), order


@pytest.mark.parametrize("name", sorted(ORACLES))
@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_production_matches_linear_scan_oracle(name, scenario):
    config, recipe = scenario
    result, order = run(config, recipe, PRODUCTION[name])
    expected, expected_order = run(config, recipe, ORACLES[name])
    assert result.completed_ios == len(recipe)
    assert order == expected_order
    assert stable_fingerprint(result) == stable_fingerprint(expected)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_gc_heavy_run_matches_oracle(name):
    """A pinned write-heavy run on a prefilled device, where GC migrates live data."""
    config = SimulationConfig(
        geometry=SSDGeometry(
            num_channels=2,
            chips_per_channel=2,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=8,
            pages_per_block=8,
            page_size_bytes=PAGE,
        ),
        prefill_fraction=0.85,
        queue_depth=4,
    )
    recipe = [
        (IOKind.WRITE, (index * 7) % 120, 4, 300, index % 9 == 0) for index in range(60)
    ]
    result, order = run(config, recipe, PRODUCTION[name])
    expected, expected_order = run(config, recipe, ORACLES[name])
    assert result.lifetime.pages_relocated > 0
    assert order == expected_order
    assert stable_fingerprint(result) == stable_fingerprint(expected)
