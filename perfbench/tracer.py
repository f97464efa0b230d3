"""The traced run's instruments, all attached from outside the program.

* :class:`Tracer` patches pass-through wrappers onto public entry points.
  Each call records a span ``(name, start_ns, end_ns, parent)`` in memory;
  :meth:`Tracer.write` dumps them when the run ends.  Generator entry
  points (``PathManager.path_create``/``path_destroy``) run across
  simulated time, so their span covers the call that creates the
  generator, not its later resumptions.
* A counting wrapper on ``Simulator.schedule``/``at`` tallies scheduled
  events by callback qualname.
* :func:`layer_self_times` groups a ``cProfile`` run's self time by the
  source module of each function.
* :class:`GcWatch` times collections through ``gc.callbacks``.

None of it schedules an event or touches simulated state, so a traced run
must reproduce the untraced run's result exactly; the runner checks that.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import Counter
from typing import Dict, List, Tuple

#: Source module prefix (relative to ``src/repro/``) -> layer.  First match
#: wins; anything else in the package is ``other``.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "engine"), ("sim/wheel.py", "engine"),
    ("sim/cpu.py", "cpu"),
    ("kernel/", "kernel"),
    ("core/demux.py", "demux"), ("core/patterndemux.py", "demux"),
    ("core/path.py", "path"), ("core/lifecycle.py", "path"),
    ("modules/", "modules"),
    ("net/tcp.py", "tcp"),
    ("net/link.py", "link"), ("net/fault.py", "link"),
    ("net/freelist.py", "link"),
    ("workload/", "workload"),
    ("defense/", "defense"), ("policy/", "defense"),
    ("cluster/", "cluster"),
    ("snapshot/", "driver"), ("obs/", "driver"),
)

#: Every layer the per-layer metrics report, in report order.  ``runtime``
#: is the standard library and builtins; ``trace`` is this package's own
#: wrappers and run loop.
LAYERS = ("engine", "cpu", "kernel", "demux", "path", "modules", "tcp",
          "link", "workload", "defense", "cluster", "driver", "runtime",
          "other", "trace")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at >= 0:
        rel = path[at + len(marker):]
        for prefix, layer in LAYER_PREFIXES:
            if rel.startswith(prefix):
                return layer
        return "other"
    if "/perfbench/" in path:
        return "trace"
    return "runtime"


def layer_self_times(profiler) -> Dict[str, float]:
    """Self seconds per layer from a finished ``cProfile.Profile``."""
    import pstats

    out = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        out[layer_of(filename)] += row[2]  # tottime: self time
    return out


def span_points():
    """``(class, method, span name)`` of every wrapped entry point."""
    from repro.core.demux import Demultiplexer
    from repro.core.lifecycle import PathManager
    from repro.core.patterndemux import PatternDemultiplexer
    from repro.net.link import NIC
    from repro.net.tcp import TCPEngine
    from repro.obs.session import ObsSession
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.journal import RunJournal

    return (
        (Demultiplexer, "classify", "demux.classify"),
        (PatternDemultiplexer, "classify", "demux.classify"),
        (NIC, "send", "link.send"),
        (TCPEngine, "on_segment", "tcp.on_segment"),
        (TCPEngine, "on_rto", "tcp.on_rto"),
        (PathManager, "path_create", "path.create"),
        (PathManager, "path_destroy", "path.destroy"),
        (PathManager, "path_kill", "path.kill"),
        (RunDriver, "checkpoint", "driver.checkpoint"),
        (RunJournal, "milestone", "driver.journal"),
        (ObsSession, "on_milestone", "driver.obs"),
    )


class Tracer:
    """In-memory spans and call counts from wrappers on public methods."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index]``; parent -1 is a root.
        self.spans: List[list] = []
        self.scheduled: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return wrapper

    def _count_wrapper(self, fn):
        counts = self.scheduled

        @functools.wraps(fn)
        def wrapper(self_, when, callback):
            counts[getattr(callback, "__qualname__",
                           type(callback).__name__)] += 1
            return fn(self_, when, callback)

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, cls, attr: str, new) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self) -> None:
        """Patch every wrapper in; call before the machine is built."""
        from repro.sim.engine import Simulator

        for attr in ("schedule", "at"):
            self._patch(Simulator, attr,
                        self._count_wrapper(Simulator.__dict__[attr]))
        for cls, attr, name in span_points():
            self._patch(cls, attr,
                        self._span_wrapper(cls.__dict__[attr], name))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------
    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and total seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, _parent in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class GcWatch:
    """Collections and total pause time, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._start = 0

    def _callback(self, phase: str, _info) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._start

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
