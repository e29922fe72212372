"""Outside-in layer tracing: wrap a built simulator's layer objects.

The benchmark never edits the program to trace it.  After
``build_simulator`` returns, :meth:`LayerTracer.instrument` replaces the
public methods of each layer object the simulator holds (scheduler,
jukebox or drives, metrics collector, request source, fault injector,
QoS manager) with instance attributes that time the call.  Spans nest on
one stack, so a layer's self time is its span minus the spans it called.
The simulator's ``run()`` is the root span: its self time is the DES
dispatch plus the drive loop (``service.loop``).

Instance attributes shadow the class methods only on the objects the
benchmark wrapped, so untraced runs in the same process are unaffected.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

#: Multi-drive tape exchange steps, all counted as ``tape.switch_to``.
DRIVE_SWITCH_METHODS = ("rewind", "eject", "load")

#: Request-source methods that draw requests (``arrivals`` is a generator).
SOURCE_METHODS = ("initial_requests", "on_completion", "arrivals")


def _public_methods(obj):
    """Names of the public plain methods defined on ``obj``'s class."""
    return [
        name
        for name, _function in inspect.getmembers(type(obj), inspect.isfunction)
        if not name.startswith("_")
    ]


class LayerTracer:
    """Span stack plus per-span self time, call counts, and counters."""

    def __init__(self) -> None:
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self):
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame, start: float) -> float:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[name] += elapsed - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span; return ``(result, elapsed_s)``."""
        frame, start = self._enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._exit(name, frame, start)
        return result, elapsed

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result)`` sees each return."""

        def traced(*args, **kwargs):
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_item=None):
        """Wrap a generator function: each ``next()`` is one span."""

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame, start = self._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame, start)
                if on_item is not None:
                    on_item(item)
                yield item

        return traced

    # ------------------------------------------------------------------
    # Instrumenting a built simulator
    # ------------------------------------------------------------------
    def _shadow(self, obj, method: str, name: str, on_result=None) -> None:
        fn = getattr(obj, method)
        if inspect.isgeneratorfunction(fn):
            setattr(obj, method, self.wrap_generator(name, fn, on_result))
        else:
            setattr(obj, method, self.wrap(name, fn, on_result))

    def instrument(self, simulator) -> None:
        """Wrap every layer object ``simulator`` holds (single or multi-drive)."""
        schedulers = getattr(simulator, "schedulers", None) or [simulator.scheduler]
        for scheduler in schedulers:
            self._instrument_scheduler(scheduler)
        if hasattr(simulator, "drives"):
            for drive in simulator.drives:
                self._shadow(drive, "access", "tape.access")
                for method in DRIVE_SWITCH_METHODS:
                    self._shadow(drive, method, "tape.switch_to")
        else:
            self._shadow(simulator.jukebox, "access", "tape.access")
            self._shadow(simulator.jukebox, "switch_to", "tape.switch_to")
        for method in _public_methods(simulator.metrics):
            self._shadow(simulator.metrics, method, "service.metrics")
        source = simulator.source
        for method in SOURCE_METHODS:
            if hasattr(source, method):
                self._shadow(source, method, "workload.draw", self._count_draws)
        for layer, obj in (("faults", simulator.faults), ("qos", simulator.qos)):
            if obj is not None:
                for method in _public_methods(obj):
                    self._shadow(obj, method, layer)

    def _instrument_scheduler(self, scheduler) -> None:
        from repro.core.exact import ExactBatchScheduler

        self._shadow(scheduler, "major_reschedule", "core.major_reschedule")
        self._shadow(
            scheduler, "on_arrival", "core.on_arrival", self._count_absorbed
        )
        self._shadow(scheduler, "build_service_list", "core.build_service_list")
        if isinstance(scheduler, ExactBatchScheduler):
            self._shadow(
                scheduler,
                "plan",
                "core.exact.plan",
                lambda _order: self._count_plan(scheduler.last_plan),
            )

    def _count_absorbed(self, absorbed) -> None:
        if absorbed:
            self.counts["core.on_arrival.absorbed"] += 1

    def _count_draws(self, result) -> None:
        if isinstance(result, list):
            self.counts["workload.draws"] += len(result)
        elif result is not None:
            self.counts["workload.draws"] += 1

    def _count_plan(self, plan) -> None:
        self.counts["core.exact.nodes"] += plan.nodes
        if plan.exact:
            self.counts["core.exact.exact_plans"] += 1
