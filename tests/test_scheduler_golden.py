"""Result digests of all five schedulers on one small Table 1 trace.

The perf golden file (``tests/data/perf_golden.json``) covers PAS only
through ``tiny-grid`` and never runs SPK1 or SPK2.  This pin runs every
scheduler of the paper's grid on the same trace and device, so a change to
any scheduler's composition order shows up as a digest mismatch.  The
digests were recorded before the PAS wait index and SPK1's one-pass FARO
ranking replaced the linear rescans; they must only be re-recorded together
with an intentional change of scheduling behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.policies import SCHEDULER_NAMES
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.sim.config import SimulationConfig, stable_fingerprint

WORKLOAD = WorkloadSpec.datacenter("msnfs0", num_requests=200, seed=7)
CONFIG = SimulationConfig.paper_scale(64, gc_enabled=False)

GOLDEN = {
    "VAS": "2492df9889298a886b758f75c90a3996c93e43836de34948382608d44e6c58ba",
    "PAS": "c8a3d331b9e53c46dca05875b53b19c57b48619ab5fa1fa2f1dcd74c569a72c5",
    "SPK1": "b746ee5ad4d7c4ea57229d7c69d1c2f276678a1855c719b2b0c0617d4e8230bc",
    "SPK2": "3e3e476ac3885afda6daa53569b3278bb5ca565a30271ff39a6c209c15abc8dc",
    "SPK3": "988ed2092ab25d2c580246d729509adec98d152ab9ae3b794f9251e40e512889",
}


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_scheduler_digest_is_pinned(scheduler):
    result = SimJob(WORKLOAD, scheduler, config=CONFIG, key=(scheduler,)).execute()
    assert result.completed_ios == result.num_ios
    assert stable_fingerprint(result) == GOLDEN[scheduler], (
        f"{scheduler} results on msnfs0 diverged from the pinned digest"
    )
