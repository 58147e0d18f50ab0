"""Out-of-tree span tracing: wrap public callables where they are looked up.

Nothing under ``src/`` is edited.  :func:`patched` swaps an attribute
(a module function or a class method) for a wrapper and restores the
*identical* original object on exit, so the traced program is byte-for-
byte the untraced one once the block ends.

A wrapped call records one span ``[name, start_ns, end_ns, parent,
trace]`` in memory: ``parent`` is the index of the enclosing span, and
``trace`` the id of the frame, campaign or set-up repetition it belongs
to.  Spans are written out only when the run ends
(:func:`write_chrome_trace`), and :func:`layer_table` folds them into
per-layer ``calls`` / inclusive ``s`` / ``self_s`` (a span's duration
minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: (layer span name, module the attribute is looked up in, attribute).
#: Functions imported by name are wrapped in the *importing* module,
#: because that is where the call resolves them (``build_kmap`` lives in
#: ``repro.mapping.kmap`` but the engine calls ``repro.core.engine``'s
#: binding).  ``percentile`` is wrapped in its own module: the serve loop
#: re-imports it on every hedge-delay call.
WRAPS = (
    ("core.engine.convolution", "repro.core.engine", "BaseEngine.convolution"),
    ("core.dataflow.gather_matmul_scatter", "repro.core.engine",
     "execute_gather_matmul_scatter"),
    ("core.grouping.make_plan", "repro.core.engine", "make_plan"),
    ("mapping.build_kmap", "repro.core.engine", "build_kmap"),
    ("mapping.downsample_coords", "repro.core.engine", "downsample_coords"),
    ("mapping.coord_index_build", "repro.mapping.kmap", "CoordIndex.build"),
    ("hashmap.grid.insert", "repro.hashmap.grid_table", "GridTable.insert"),
    ("hashmap.grid.lookup", "repro.hashmap.grid_table", "GridTable.lookup"),
    ("hashmap.hash.insert", "repro.hashmap.hash_table", "HashTable.insert"),
    ("hashmap.hash.lookup", "repro.hashmap.hash_table", "HashTable.lookup"),
    ("nn.dense.conv2d", "repro.models.centerpoint", "conv2d"),
    ("datasets.sample_tensor", "repro.datasets.configs",
     "DatasetConfig.sample_tensor"),
    ("obs.metrics.observe", "repro.obs.metrics", "Histogram.observe"),
    ("serve.cluster.base_latency", "repro.serve.cluster",
     "LatencyOracle.base_latency"),
    ("serve.cluster.batch_latency", "repro.serve.cluster",
     "LatencyOracle.batch_latency"),
    ("serve.server.run", "repro.serve.server", "Server.run"),
    ("serve.queue.offer", "repro.serve.queue", "AdmissionQueue.offer"),
    ("serve.queue.pop", "repro.serve.queue", "AdmissionQueue.pop"),
    ("serve.queue.take_matching", "repro.serve.queue",
     "AdmissionQueue.take_matching"),
    ("profiling.report.percentile", "repro.profiling.report", "percentile"),
    ("obs.timeline.emit", "repro.obs.timeline", "TimelineRecorder.emit"),
)


def _resolve(module: str, attr: str) -> tuple:
    """``(owner, name)`` such that ``owner.__dict__[name]`` is the target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(module, attr)`` target with ``make_wrapper(fn, i)``.

    Class attributes are read from the class ``__dict__`` so descriptors
    (``classmethod``) are unwrapped and re-wrapped correctly; on exit the
    original objects are put back by identity, in reverse order.
    """
    saved = []
    try:
        for i, (module, attr) in enumerate(targets):
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                replacement = classmethod(make_wrapper(original.__func__, i))
            else:
                replacement = make_wrapper(original, i)
            setattr(owner, name, replacement)
            saved.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        #: one ``[name, start_ns, end_ns, parent, trace]`` list per span
        self.spans: list = []
        self._stack: list = []
        #: id stamped on every span opened until the next :meth:`region`
        self.trace_id = ""
        #: wrappers pass straight through while False (reference runs)
        self.active = True

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter_ns(), 0, parent, self.trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def region(self, name: str, trace_id: str):
        """A benchmark-level span (a frame, a campaign, a set-up) that
        starts a new trace id; spans opened inside it carry that id."""
        previous = self.trace_id
        self.trace_id = trace_id
        try:
            with self.span(name) as span:
                yield span
        finally:
            self.trace_id = previous

    @contextmanager
    def paused(self):
        """Run untraced inside the block (e.g. the reference re-runs)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextmanager
    def installed(self):
        """Wrap every target of :data:`WRAPS` for the duration of the block."""
        names = [name for name, _, _ in WRAPS]
        targets = [(module, attr) for _, module, attr in WRAPS]
        with patched(targets, lambda fn, i: self.wrap(names[i], fn)):
            yield self


def self_times(spans: list) -> list:
    """Per-span self time in ns: duration minus its children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_table(spans: list) -> dict:
    """``name -> {calls, s, self_s}`` over all spans of one run.

    ``s`` is inclusive time summed over the *outermost* calls only, so a
    recursive span is not counted twice.
    """
    own = self_times(spans)
    table: dict = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i] / 1e9
        ancestor = s[3]
        while ancestor is not None and spans[ancestor][0] != s[0]:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["s"] += (s[2] - s[1]) / 1e9
    return table


def descendants_self(spans: list, root_name: str) -> dict:
    """``name -> self seconds`` of the spans nested under ``root_name``
    spans (the roots themselves excluded)."""
    own = self_times(spans)
    inside = [False] * len(spans)
    totals: dict = {}
    for i, s in enumerate(spans):
        parent = s[3]
        if parent is not None and inside[parent]:
            totals[s[0]] = totals.get(s[0], 0.0) + own[i] / 1e9
        inside[i] = s[0] == root_name or (parent is not None and inside[parent])
    return totals


def write_chrome_trace(spans: list, path, meta: dict | None = None) -> None:
    """Chrome/Perfetto ``traceEvents`` JSON: one complete event per span."""
    t0 = min((s[1] for s in spans), default=0)
    events = [
        {
            "name": s[0],
            "ph": "X",
            "ts": round((s[1] - t0) / 1e3, 3),
            "dur": round((s[2] - s[1]) / 1e3, 3),
            "pid": 1,
            "tid": 1,
            "args": {"trace": s[4]},
        }
        for s in spans
    ]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "otherData": meta or {}}, f)
