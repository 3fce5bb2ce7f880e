"""In-memory span recorder, and the proxies that feed it.

Every span is recorded from this directory, around calls into the
public functions of one layer of ``repro``; nothing under ``src/`` is
instrumented. :meth:`Tracer.install` swaps timing wrappers onto the
classes a campaign reaches indirectly (the analyzer, the probe engine,
the fabric client, the HTTP run cache), and :meth:`Tracer.uninstall`
puts the originals back, so an untraced pass runs the program exactly
as shipped. Backends and stores the benchmark builds itself are
wrapped by :class:`TimedBackend` and :class:`TimedStore` instead.

A span is ``(id, name, start, end, parent, phase)``; the parent is the
innermost span open on the same thread. The layer of a span is its
name up to the first dot, and a layer's *self* time is the time its
spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
import weakref

# Wrapped by install(): (module path, class name or None, attribute, span name).
_PATCHES = (
    ("repro.core.analyzer", "Analyzer", "analyze", "analyzer.analyze"),
    ("repro.core.engine", "ProbeEngine", "run_probe_batch", "engine.batch"),
    ("repro.core.engine", "ProbeEngine", "run_replicas", "engine.replicas"),
    ("repro.fabric.executor", "FabricExecutor", "connect", "fabric.connect"),
    ("repro.fabric.executor", "FabricExecutor", "submit", "fabric.submit"),
    ("repro.fabric.executor", "FabricExecutor", "next_event", "fabric.wait"),
    ("repro.fabric.executor", "FabricExecutor", "close", "fabric.close"),
    ("repro.fabric.executor", None, "encode_chunk", "fabric.encode"),
    ("repro.core.cachestore.remote", "RemoteRunCache", "__init__", "cachestore.open"),
    ("repro.core.cachestore.remote", "RemoteRunCache", "get", "cachestore.get"),
    ("repro.core.cachestore.remote", "RemoteRunCache", "put", "cachestore.put"),
    ("repro.core.cachestore.remote", "RemoteRunCache", "get_many", "cachestore.get_many"),
    ("repro.core.cachestore.remote", "RemoteRunCache", "stats", "cachestore.stats"),
)

#: What a span keeps of its call's result: whether a store read hit,
#: a chunk's size, how a fabric wait ended.
_NOTES = {
    "cachestore.get": lambda result: result is not None,
    "cachestore.stats": lambda result: result.file_bytes,
    "fabric.encode": len,
    "fabric.wait": lambda event: event[0],
}

#: Store methods :class:`TimedStore` times, by span name.
_STORE_METHODS = {
    "get": "cachestore.get",
    "put": "cachestore.put",
    "get_many": "cachestore.get_many",
    "stats": "cachestore.stats",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    phase: str
    #: The fact a metric needs from the call's result (see ``_NOTES``).
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "phase": self.phase,
        }


class Tracer:
    """Collects spans in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Pass label stamped on every span (``cold`` / ``warm``).
        self.phase = ""
        #: One record per traced analysis, read off its event stream.
        self.analyses: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._connected: "weakref.WeakSet" = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the span so the body can
        attach a note."""
        stack = self._stack()
        record = Span(
            id=next(self._ids), name=name, start=0.0, end=0.0,
            parent=stack[-1] if stack else None, phase=self.phase,
        )
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def timed(self, name: str, function):
        """*function* wrapped so every call records one span, noting
        the small fact about its result that a metric counts."""
        tracer = self
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = function(*args, **kwargs)
                if note is not None:
                    record.note = note(result)
                return result

        wrapper.__wrapped__ = function
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap the timing wrappers in; :meth:`uninstall` undoes it."""
        import importlib

        for module_name, class_name, attribute, span_name in _PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(span_name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrapper(self, span_name: str, original):
        if span_name == "analyzer.analyze":
            return self._analyze_wrapper(original)
        if span_name == "fabric.connect":
            return self._connect_wrapper(original)
        return self.timed(span_name, original)

    def _analyze_wrapper(self, original):
        """``Analyzer.analyze`` timed, with the caller's event callback
        chained to one that stamps each event's arrival time."""
        tracer = self

        def analyze(analyzer, backend, workload, *args, **kwargs):
            events: list[tuple[float, object]] = []
            downstream = kwargs.get("on_event")

            def on_event(event):
                events.append((time.perf_counter(), event))
                if downstream is not None:
                    downstream(event)

            kwargs["on_event"] = on_event
            first = len(tracer.spans)
            with tracer.span("analyzer.analyze") as record:
                result = original(analyzer, backend, workload, *args, **kwargs)
            tracer._stages(record, events, analyzer.config, first)
            return result

        analyze.__wrapped__ = original
        return analyze

    def _stages(self, record: Span, events: list, config, first: int) -> None:
        """Turn one analysis's event arrival times into stage spans, and
        make each stage the parent of the calls made during it (the
        spans recorded since index *first* under *record*)."""
        times: dict[str, list[float]] = {}
        features = bisections = 0
        app = ""
        for stamp, event in events:
            times.setdefault(event.kind, []).append(stamp)
            if event.kind == "analysis_started":
                app = event.app
            elif event.kind == "features_enumerated":
                features += event.count
            elif event.kind == "conflict_bisected":
                bisections += 1
        baseline_start = times.get("baseline_started", [record.start])[0]
        enumerated = times.get("features_enumerated", [record.end])[0]
        probed = times.get("feature_probed", [enumerated])[-1]
        confirmed = times.get("engine_stats", [record.end])[-1]
        stages = [
            Span(id=next(self._ids), name=name, start=start, end=end,
                 parent=record.id, phase=record.phase)
            for name, start, end in (
                ("analyzer.baseline", baseline_start, enumerated),
                ("analyzer.probe", enumerated, probed),
                ("analyzer.confirm", probed, confirmed),
            )
        ]
        for span in self.spans[first:]:
            if span.parent == record.id:
                for stage in stages:
                    if stage.start <= span.start < stage.end:
                        span.parent = stage.id
                        break
        self.spans.extend(stages)
        self.analyses.append({
            "app": app,
            "phase": record.phase,
            "duration_s": record.duration,
            "features": features,
            "bisections": bisections,
            "replicas": config.replicas,
        })

    def _connect_wrapper(self, original):
        """``FabricExecutor.connect`` is idempotent and re-entered on
        every submit; only the first call per client dials workers."""
        tracer = self

        def connect(executor):
            if executor in tracer._connected:
                return original(executor)
            tracer._connected.add(executor)
            with tracer.span("fabric.connect"):
                return original(executor)

        connect.__wrapped__ = original
        return connect

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time minus the time child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            totals[span.layer] = (
                totals.get(span.layer, 0.0) + span.duration - covered
            )
        return totals

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def _covered(parent: Span, children) -> float:
    """Length of the union of the children's intervals inside *parent*."""
    intervals = sorted(
        (max(child.start, parent.start), min(child.end, parent.end))
        for child in children
    )
    covered = 0.0
    cursor = parent.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class TimedBackend:
    """An execution backend that times each ``run`` of the one it wraps.

    It keeps the wrapped backend's name and capability contract, so the
    engine schedules, caches and reports it exactly like the original.
    Only in-process executors can use it: a pickled copy would time
    runs in another process, where the spans are lost.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.run = tracer.timed("appsim.run", inner.run)

    def capabilities(self):
        return self.inner.capabilities()


class TimedStore:
    """A run-cache store whose ``get``/``put``/``get_many``/``stats``
    calls are timed; every other attribute is the wrapped store's."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        attribute = getattr(self._inner, name)
        if name in _STORE_METHODS:
            return self._tracer.timed(_STORE_METHODS[name], attribute)
        return attribute
