"""Outside-in per-layer tracing for the traced benchmark run.

Two sources of spans, both held in memory and written out when the run
ends:

* the program's own engine phase spans (``step``, ``sense``, ...),
  captured by installing an enabled :class:`repro.obs.Instrumentation`
  whose only sink keeps ``span`` events;
* wrappers this file puts around public layer functions and methods
  (:data:`LAYERS`). A wrapper records calls, inclusive time and self
  time, where self time is the span minus the part its nested wrapped
  calls cover.

Nothing here is active unless :meth:`LayerTracer.installed` is entered,
so untraced repetitions run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from bench_calib import calibrated

#: (module, attribute, span name). ``Class.method`` attributes are
#: patched on the class; plain functions are patched in every loaded
#: module that holds a reference to them, so ``from x import f``
#: call sites are traced too.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.geometry.interpolation", "LinearSurfaceInterpolator.__init__",
     "geometry.interpolator"),
    ("repro.geometry.interpolation", "LinearSurfaceInterpolator.evaluate_grid",
     "geometry.evaluate_grid"),
    ("repro.geometry.delaunay", "DelaunayTriangulation.insert",
     "geometry.insert"),
    ("repro.surfaces.reconstruction", "reconstruct_surface",
     "surfaces.reconstruct"),
    ("repro.surfaces.metrics", "volume_difference", "surfaces.score"),
    ("repro.surfaces.metrics", "rmse", "surfaces.score"),
    ("repro.surfaces.metrics", "max_absolute_error", "surfaces.score"),
    ("repro.fields.base", "sample_grid", "fields.sample_grid"),
    ("repro.fields.base", "Field.sample", "fields.sample"),
    ("repro.fields.base", "DynamicField.sample", "fields.sample"),
    ("repro.sim.sensing", "DiskSensor.read_many", "sim.sensing.read_many"),
    ("repro.core.cma", "estimate_own_curvature", "core.cma.own_curvature"),
    ("repro.core.cma", "plan_move", "core.cma.plan_move"),
    ("repro.core.lcm", "lcm_adjustment", "core.lcm.adjustment"),
    ("repro.sim.radio", "Radio.exchange", "sim.radio.exchange"),
    ("repro.sim.netmodel.network", "NetworkModel.exchange",
     "sim.netmodel.exchange"),
    ("repro.graphs.geometric", "unit_disk_graph", "graphs.connectivity"),
    ("repro.graphs.traversal", "connected_components", "graphs.connectivity"),
    ("repro.graphs.traversal", "is_connected", "graphs.connectivity"),
    ("repro.core.fra", "foresighted_refinement", "core.fra.refine"),
    ("repro.graphs.relay", "count_required_relays", "graphs.count_relays"),
    ("repro.graphs.relay", "plan_relays", "graphs.plan_relays"),
)

#: ``radius_adjacency`` is traced only where the constrain-move bridge
#: test calls it; its other callers are inside the connectivity layer.
BRIDGE_TEST = ("repro.runtime.cma_phases", "radius_adjacency",
               "geometry.radius_adjacency")

#: Engine phase spans reported as ``runtime.<phase>``.
PHASES = ("step", "sense", "exchange", "plan", "constrain_move", "lcm",
          "measure")


class LayerTracer:
    """Per-name call count, inclusive and self time for wrapped layers."""

    def __init__(self) -> None:
        #: Open wrapper frames: [child seconds, span name].
        self._stack: List[list] = []
        #: name -> [calls, inclusive s, self s]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Engine phase name -> durations (s) of each span, in order.
        self.phases: Dict[str, List[float]] = defaultdict(list)
        #: The program's own counters (``lcm.passes``, ...) plus the
        #: beacon counts of :func:`_count_exchange`.
        self.counters: Dict[str, float] = defaultdict(float)

    # -- span accounting -------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [0.0, name]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, dur: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        rec = self.totals[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Trace a block of the benchmark's own code as one span."""
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, perf_counter() - t0)

    def wrap(self, fn: Callable, name: str) -> Callable:
        namer = _NAMERS.get(name)
        after = _AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(stack, args, kwargs) if namer else name
            frame = self._enter(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, span, perf_counter() - t0)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer and capture engine spans; undo on exit."""
        from repro.obs.instrument import Instrumentation, use_instrumentation

        sink = _SpanSink(self)
        obs = Instrumentation(sinks=[sink], enabled=True)
        undo: List[Tuple[object, str, object]] = []
        try:
            for module, attr, name in LAYERS:
                _patch(self, module, attr, name, undo)
            _patch(self, *BRIDGE_TEST, undo, only_in=BRIDGE_TEST[0])
            with use_instrumentation(obs):
                yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            for name, value in obs.metrics.snapshot().items():
                if isinstance(value, (int, float)):
                    self.counters[name] += value

    # -- read-out --------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def table(self, cal_ms: float) -> Dict[str, Dict[str, float]]:
        """Calls, inclusive and self time (calibrated ms) per span name."""
        return {
            name: {"calls": int(c), "total_ms": calibrated(t * 1e3, cal_ms),
                   "self_ms": calibrated(s * 1e3, cal_ms)}
            for name, (c, t, s) in sorted(self.totals.items())
        }


class _SpanSink:
    """Obs sink keeping only engine phase span durations."""

    def __init__(self, tracer: LayerTracer) -> None:
        self._phases = tracer.phases

    def write(self, event) -> None:
        if event.name == "span":
            phase = event.fields.get("phase")
            if phase in PHASES:
                self._phases[phase].append(event.fields["dur_s"])

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _interpolator_name(stack, args, kwargs) -> str:
    # __init__(self, points, values, triangulation=None, ...): built
    # without a triangulation means the interpolator triangulates.
    tri = kwargs.get("triangulation", args[3] if len(args) > 3 else None)
    return "geometry.triangulate" if tri is None else "geometry.interpolator"


def _insert_name(stack, args, kwargs) -> str:
    inside_build = bool(stack) and stack[-1][1] == "geometry.triangulate"
    return "geometry.batch_insert" if inside_build else "geometry.incremental_insert"


_NAMERS = {
    "geometry.interpolator": _interpolator_name,
    "geometry.insert": _insert_name,
}


def _count_exchange(tracer, args, kwargs, inboxes) -> None:
    """Beacons handed to the planners, and fresh ones against perfect pairs.

    A perfect radio would deliver one beacon per in-range directed pair
    of alive nodes; ``neighbor_ids`` answers from the radio's per-round
    cache here, so counting draws no RNG and changes no state.
    """
    if len(args) > 4:  # NetworkModel.exchange(self, radio, pos, curv, alive, ...)
        radio, positions, alive = args[1], args[2], args[4]
    else:  # Radio.exchange(self, positions, curvatures, alive=None, ...)
        radio, positions = args[0], args[1]
        alive = kwargs.get("alive", args[3] if len(args) > 3 else None)
    pairs = sum(len(ids) for ids in radio.neighbor_ids(positions, alive=alive))
    beacons = sum(len(inbox) for inbox in inboxes)
    fresh = sum(
        1 for inbox in inboxes for obs in inbox
        if getattr(obs, "staleness", 0) == 0
    )
    counters = tracer.counters
    counters["exchange.beacons"] += beacons
    counters["exchange.fresh"] += fresh
    counters["exchange.pairs"] += pairs


_AFTER = {
    "sim.radio.exchange": _count_exchange,
    "sim.netmodel.exchange": _count_exchange,
}


def _patch(
    tracer: LayerTracer,
    module: str,
    attr: str,
    name: str,
    undo: list,
    only_in: Optional[str] = None,
) -> None:
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(original, name))
        undo.append((cls, meth, original))
        return
    original = getattr(mod, attr)
    wrapped = tracer.wrap(original, name)
    owners = [mod] if only_in else list(sys.modules.values())
    for owner in owners:
        namespace = getattr(owner, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(owner, key, wrapped)
                undo.append((owner, key, original))
