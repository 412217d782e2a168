"""In-memory spans around the simulator's public entry points.

The benchmark measures every layer from outside: :class:`Tracer` replaces a
function at the name its caller looks it up by (a module attribute or a
class attribute) with a wrapper that records one span per call, and puts
the original back on :meth:`Tracer.restore`.  Nothing inside ``src/`` is
instrumented.

Times are process CPU seconds (``time.process_time``), so a span does not
grow while another tenant of the host holds the core.  A layer's self time
is its spans' time minus the time of their child spans; spans nest strictly
because the benchmark runs one job at a time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(module, attribute path, layer)``: where each layer is entered.  An
#: attribute path ``"Cls.method"`` wraps the method on the class; a bare name
#: wraps the module attribute the caller resolves at call time (e.g.
#: ``repro.sim.ssd`` imports ``apply_device_state`` by name).
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.ssd", "SSDSimulator.__init__", "sim.construct"),
    ("repro.sim.ssd", "SSDSimulator.run", "sim.run"),
    ("repro.sim.ssd", "SSDSimulator._build_result", "sim.result"),
    ("repro.sim.ssd", "apply_device_state", "lifetime.precondition"),
    ("repro.sim.ssd", "age_to_steady_state", "lifetime.steady"),
    ("repro.ftl.mapping", "PageMapFTL.fill", "ftl.prefill"),
    ("repro.experiments.spec", "WorkloadSpec.build", "workloads.build"),
    ("repro.scenarios.scenario", "Scenario.build", "workloads.build"),
    ("repro.devices", "device_config", "devices.resolve"),
    ("repro.experiments.spec", "SimJob.fingerprint", "engine.fingerprint"),
    ("repro.experiments.engine", "ResultCache.load", "engine.cache_load"),
    ("repro.experiments.engine", "ResultCache.store", "engine.cache_store"),
    ("repro.array.layout", "split_trace", "array.split"),
    ("repro.fleet.run", "merge_device_results", "array.merge"),
    ("repro.fleet.run", "tenant_demands", "fleet.placement"),
    ("repro.fleet.run", "plan_placement", "fleet.placement"),
    ("repro.fleet.run", "admit_stream", "fleet.admission"),
    ("repro.fleet.run", "schedule_background", "fleet.background"),
    ("repro.fleet.run", "merge_node_results", "fleet.merge"),
)

#: The layers whose time is set-up work (``setup_s``): building inputs,
#: resolving devices, and constructing and preconditioning simulators.
SETUP_LAYERS = frozenset(
    {
        "sim.construct",
        "lifetime.precondition",
        "lifetime.steady",
        "ftl.prefill",
        "workloads.build",
        "devices.resolve",
    }
)


class Tracer:
    """Records ``(layer, start, end, parent, cell)`` spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        #: One list per span: ``[layer, start, end, parent index, cell]``.
        self.spans: List[list] = []
        self.cell: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self, entry_points: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every entry point; a missing one raises ``AttributeError``."""
        for module_name, path, layer in entry_points:
            owner: object = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original))

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrap(self, layer: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = self._open(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [layer, 0.0, 0.0, parent, self.cell]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        return record

    def _close(self, record: list) -> None:
        record[2] = self.clock()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """CPU self seconds per layer: span time minus child-span time."""
        totals: Dict[str, float] = defaultdict(float)
        for layer, start, end, parent, _cell in self.spans:
            duration = end - start
            totals[layer] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def outermost_time(self, layers: frozenset) -> float:
        """Seconds inside ``layers``, counting nested calls among them once."""
        total = 0.0
        for layer, start, end, parent, _cell in self.spans:
            if layer in layers and not self._has_ancestor_in(parent, layers):
                total += end - start
        return total

    def _has_ancestor_in(self, index: int, layers: frozenset) -> bool:
        while index >= 0:
            if self.spans[index][0] in layers:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path: Path) -> None:
        """Write every span as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"name": layer, "start": start, "end": end, "parent": parent, "cell": cell}
            for layer, start, end, parent, cell in self.spans
        ]
        path.write_text(json.dumps(records))
