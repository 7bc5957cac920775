"""Span recording for the traced run.

Spans are recorded from outside the program: ``install`` swaps the public
functions and methods of each hodsim layer for wrappers that open a span on
entry and close it on exit, and its undo function puts the originals back.
The timed runs never install it.

A span's self time is its duration minus the durations of its direct
children.  Children run inside their parent, so over any subtree the self
times add up to the root's duration exactly (the clock is integer
nanoseconds).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# (span name, module, attribute): plain functions.  Every hodsim module that
# imported the function by name gets the wrapper, wherever it lives.
FUNCTIONS = [
    ("topology.build", "hodsim.topology", "build_topology"),
    ("attacks.inject", "hodsim.attacks", "apply_attacks"),
    ("detection.cluster_pipeline", "hodsim.detection", "cluster_pipeline"),
    ("detection.watchdog", "hodsim.detection", "watchdog_check"),
    ("detection.base_report", "hodsim.detection", "base_station_report"),
    ("metrics.run_scenario", "hodsim", "run_scenario"),
    ("metrics.score", "hodsim", "score"),
    ("metrics.compare", "hodsim", "compare"),
    ("cli.render_summary", "hodsim.cli", "render_summary"),
    ("cli.rows_to_csv", "hodsim.cli", "rows_to_csv"),
    ("cli.main", "hodsim.cli", "main"),
]

# (span name, class exported by the hodsim package, method)
METHODS = [
    ("config.parse", "ScenarioConfig", "from_dict"),
    ("config.parse", "ScenarioConfig", "from_file"),
    ("simcore.init", "Engine", "__init__"),
    ("simcore.run", "Engine", "run"),
    ("simcore.send", "Engine", "send"),
    ("monitors.init", "HodMonitors", "__init__"),
    ("monitors.init", "FlatMonitors", "__init__"),
    ("monitors.hook", "HodMonitors", "on_window_end"),
    ("monitors.hook", "FlatMonitors", "on_window_end"),
    ("detection.graph_build", "ConnectivityGraph", "__init__"),
]

# Return values (or the constructed object) kept for the simulated counts.
KEEP = {
    "metrics.run_scenario": lambda args, result: result,  # (RunLog, Topology)
    "metrics.score": lambda args, result: result,  # Metrics
    "detection.graph_build": lambda args, result: args[0],  # ConnectivityGraph
}


class Tracer:
    """Flat in-memory span store: parallel lists indexed by span id."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kept: dict[str, list[Any]] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(args, result))
            return result

        return traced

    def self_times(self) -> list[int]:
        """Per-span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def records(self) -> list[list]:
        """[name, parent, start_ns, end_ns] per span, for writing out."""
        return [list(r) for r in zip(self.names, self.parents, self.starts, self.ends)]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary of the loaded hodsim package; returns the undo."""
    import hodsim

    undo: list[Callable[[], None]] = []
    missing: list[str] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hodsim" or n.startswith("hodsim."))]
    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        holders = [(mod, key) for mod in modules for key, value in list(vars(mod).items())
                   if original is not None and value is original]
        if not holders:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(name, original)
        for mod, key in holders:
            setattr(mod, key, wrapper)
            undo.append(lambda mod=mod, key=key, value=original: setattr(mod, key, value))
    for name, class_name, method in METHODS:
        cls = getattr(hodsim, class_name, None)
        raw = None if cls is None else cls.__dict__.get(method)
        if raw is None:
            missing.append(f"hodsim.{class_name}.{method}")
            continue
        if isinstance(raw, classmethod):
            replacement = classmethod(tracer.wrap(name, raw.__func__))
        else:
            replacement = tracer.wrap(name, raw)
        setattr(cls, method, replacement)
        undo.append(lambda cls=cls, method=method, raw=raw: setattr(cls, method, raw))

    def restore() -> None:
        for fn in reversed(undo):
            fn()

    if missing:
        # A target that moved would silently read 0 and hand its time to its parent.
        restore()
        raise LookupError(f"traced run cannot wrap {', '.join(missing)}; update spans.py")
    return restore
