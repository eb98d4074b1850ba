"""Outside-in tracing: spans around the program's layer entry points.

Nothing under ``src/`` knows about this module.  :class:`SpanRecorder`
replaces the module-level names and methods the pipeline calls (for
example ``repro.gpu.pipeline.rasterize``) with wrappers that record one
span per call, and puts the originals back on :meth:`uninstall`.
Spans are kept in memory and written out once, at the end of a run.

A span records its layer name, start, end, the span that called it and
the request (rendered frame) it belongs to.  Self time is a span's
duration minus the time its child spans cover; children run nested on
the caller's thread, so that is the sum of their durations.

Process-pool workers are not reached: the pool is forked before the
wrappers go in, and a wrapper that finds itself in another process
records nothing.  On a process pool, ``rbcd.compute`` therefore stays
empty and its cost shows as ``gpu.parallel.run`` self time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


def _cache_counts(args, result, before):
    cache = args[0]
    return {
        "caches.accesses": cache.accesses - before[0],
        "caches.misses": cache.misses - before[1],
    }


def _cache_before(args):
    return (args[0].accesses, args[0].misses)


# (module, class or None, attribute, layer).  ``Cache.access_line`` is
# left out on purpose: it is the per-line step inside the three
# ``access*`` entry points, called ~10^5 times per frame.
LAYERS = (
    ("repro.core", "RBCDSystem", "detect_frame", "core"),
    ("repro.gpu.pipeline", "GPU", "render_frame", "gpu.pipeline"),
    ("repro.gpu.pipeline", None, "shade_draws", "gpu.shading"),
    ("repro.gpu.pipeline", None, "assemble", "gpu.assembly"),
    ("repro.gpu.pipeline", None, "bin_triangles", "gpu.tiling.bin"),
    ("repro.gpu.pipeline", None, "fetch_tile_lists", "gpu.tiling.fetch"),
    ("repro.gpu.pipeline", None, "rasterize", "gpu.raster"),
    ("repro.gpu.pipeline", None, "depth_test", "gpu.earlyz"),
    ("repro.gpu.pipeline", None, "shade_fragments", "gpu.fragment"),
    ("repro.gpu.pipeline", None, "gather_tile_tasks", "gpu.parallel.gather"),
    ("repro.gpu.parallel", "TileExecutor", "run", "gpu.parallel.run"),
    ("repro.gpu.parallel", None, "compute_tile", "rbcd.compute"),
    ("repro.rbcd.unit", "RBCDUnit", "absorb", "rbcd.absorb"),
    ("repro.gpu.caches", "Cache", "access", "gpu.caches"),
    ("repro.gpu.caches", "Cache", "access_range", "gpu.caches"),
    ("repro.gpu.caches", "Cache", "access_many", "gpu.caches"),
    ("repro.energy.report", "EnergyAccount", "frame_report", "energy"),
    ("repro.observability.live", "LiveMonitor", "observe",
     "observability.monitor"),
    ("repro.serve.service", "CollisionService", "submit", "serve.submit"),
    ("repro.serve.service", "CollisionService", "step", "serve.step"),
)

# Counts taken at the same boundaries: (before-hook, after-hook).
_COUNTERS = {
    "gpu.caches": (_cache_before, _cache_counts),
    "gpu.raster": (None, lambda args, out, _: {"raster.fragments": out.count}),
    "gpu.parallel.gather": (None, lambda args, out, _: {"parallel.tasks": len(out)}),
}

# The span that opens a request: every span under it carries its id.
REQUEST_ROOT = "core"


class SpanRecorder:
    """Records spans from wrappers installed around :data:`LAYERS`.

    ``label_of`` maps a request root's call arguments to a label stored
    on its span (the benchmark uses it to name the offered frame).
    """

    def __init__(self, label_of=None) -> None:
        self.pid = os.getpid()
        self.label_of = label_of
        # (span id, parent id, layer, start, end, self seconds, request, label, thread)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for module_name, class_name, attr, layer in LAYERS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        recorder = self
        before_hook, after_hook = _COUNTERS.get(layer, (None, None))
        is_root = layer == REQUEST_ROOT

        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            if is_root:
                request = span_id
                label = recorder.label_of(args) if recorder.label_of else None
            else:
                request = parent[2] if parent else None
                label = None
            # [span id, child seconds, request]
            frame = [span_id, 0.0, request]
            before = before_hook(args) if before_hook else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                recorder.spans.append((
                    span_id, parent[0] if parent else None, layer, t0, t1,
                    duration - frame[1], request, label,
                    threading.get_ident(),
                ))
            if after_hook is not None:
                counts = after_hook(args, out, before)
                with recorder._lock:
                    for name, value in counts.items():
                        recorder.counts[name] += value
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- reading -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for _, _, layer, t0, t1, self_s, _, _, _ in self.spans:
            entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += self_s
        return out

    def request_self_s(self) -> float:
        """Self seconds of every span inside a request (sums to the roots)."""
        return sum(s[5] for s in self.spans if s[6] is not None)

    def roots(self) -> list[tuple]:
        return [s for s in self.spans if s[2] == REQUEST_ROOT]

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            return
        origin = min(s[3] for s in self.spans)
        events = [
            {
                "name": layer, "ph": "X", "pid": self.pid, "tid": tid,
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "request": request,
                         "label": label},
            }
            for sid, parent, layer, t0, t1, _, request, label, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh, separators=(",", ":"))
