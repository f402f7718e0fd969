"""In-memory span recording for the benchmark's traced run.

Spans are timed from the benchmark's own code, around the public engine
calls each layer is reached through; nothing inside ``repro`` is
instrumented.  A span records a name, its start and end
(``time.perf_counter`` seconds), the index of its parent span and the
request it belongs to.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it covered by its
child spans; summed over one request, the self times of all its spans add
up to the request's duration, which is what makes the per-layer numbers
add up to the end-to-end time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, List

#: Name of the root span of every timed request.  Timed requests have
#: integer ids; spans outside them (set-up, post-load probes) have none.
REQUEST = "request"


class Tracer:
    """Collects spans; thread-safe, with a per-thread stack of open spans."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, request id]`` per span.
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float, *, parent=None, request=None) -> int:
        """Start a span explicitly (for spans that end on another thread)."""
        with self._lock:
            self.spans.append([name, start, start, parent, request])
            return len(self.spans) - 1

    def close(self, index: int, end: float) -> None:
        self.spans[index][2] = end

    def record(self, name: str, start: float, end: float, *, parent, request) -> None:
        """Add a finished span."""
        self.close(self.open(name, start, parent=parent, request=request), end)

    def span(self, name: str, request=None) -> "_Span":
        """A span around a ``with`` block, nested under the thread's open span.

        Passing ``request`` starts a new root span for that request id.
        """
        return _Span(self, name, request)

    def within(self, index: int, request) -> "_Within":
        """Nest this thread's next spans under an explicitly opened span."""
        return _Within(self, index, request)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "request", "index")

    def __init__(self, tracer: Tracer, name: str, request) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        if self.request is None:
            parent, request = stack[-1] if stack else (None, None)
        else:
            parent, request = None, self.request
        self.index = tracer.open(self.name, time.perf_counter(), parent=parent, request=request)
        stack.append((self.index, request))
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index, time.perf_counter())
        self.tracer._stack().pop()


class _Within:
    __slots__ = ("tracer", "entry")

    def __init__(self, tracer: Tracer, index: int, request) -> None:
        self.tracer = tracer
        self.entry = (index, request)

    def __enter__(self) -> None:
        self.tracer._stack().append(self.entry)

    def __exit__(self, *exc_info) -> None:
        self.tracer._stack().pop()


def _covered(intervals: List[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class Summary:
    """Per-layer totals of one trace.

    ``request_self[name]`` sums the self time of every span with that name
    inside timed requests, ``self_time[name]``/``calls[name]`` do the same
    over all spans (set-up included), and ``request_time`` is the summed
    duration of the request root spans.
    """

    def __init__(self, spans: List[list]) -> None:
        children: Dict[int, List[tuple]] = defaultdict(list)
        for name, start, end, parent, request in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.request_time = 0.0
        self.request_self: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, request) in enumerate(spans):
            own = (end - start) - _covered(children.get(index, []), start, end)
            self.self_time[name] += own
            self.calls[name] += 1
            if request is not None:
                self.request_self[name] += own
                if name == REQUEST:
                    self.request_time += end - start

    def share(self, name: str) -> float:
        """Self time of ``name`` as a share of the timed requests' duration."""
        return self.request_self.get(name, 0.0) / self.request_time if self.request_time else 0.0

    def coverage(self) -> float:
        """Share of request time covered by layer spans (1 − root self share)."""
        return 1.0 - self.share(REQUEST) if self.request_time else 0.0

    def mean_self(self, name: str) -> float:
        """Mean self time per call of ``name`` over the whole trace, seconds."""
        calls = self.calls.get(name, 0)
        return self.self_time[name] / calls if calls else 0.0
