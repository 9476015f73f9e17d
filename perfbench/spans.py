"""In-memory spans around calls into the repro layers, from outside them.

A :class:`Tracer` wraps public functions and methods of the repro
modules (module attributes and class attributes, restored afterwards)
so that every call records a span: its layer name, start, end and the
span that was open when it began.  Spans stay in memory as plain lists
and are reduced once, when the run ends, into per-layer self time,
call counts, rows and high-water marks.

Self time is a span's duration minus the time its child spans cover;
calls are synchronous within one thread, so children nest inside their
parent and never overlap each other.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

#: Callable computing a row count from ``(args, kwargs, result)``.
RowCount = Callable[[tuple[Any, ...], dict[str, Any], Any], int]


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int, rows: int = 0) -> None:
        """End the span opened as ``index``."""
        self.ends[index] = time.perf_counter()
        self.rows[index] = rows
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        """Raise a high-water mark to ``value``."""
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = float(value)

    # -- wrapping -------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any], *,
             rows: RowCount | None = None,
             before: Callable[..., None] | None = None,
             after: Callable[..., None] | None = None) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span around every call.

        ``rows`` gives the span's row count from the call; ``before`` is
        called with ``(args, kwargs)`` before the span opens and
        ``after`` with ``(args, kwargs, result)`` once it closed.
        """
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            index = self.open(name)
            result: Any = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index, rows(args, kwargs, result)
                           if rows is not None and result is not None
                           else 0)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn: Callable[..., Any], *,
                       rows: RowCount | None = None,
                       after: Callable[..., None] | None = None
                       ) -> Callable[..., Any]:
        """``fn`` returning a generator whose every step is a span.

        ``rows`` and ``after`` see each yielded item as the result.
        """
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            steps = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(steps)
                except StopIteration:
                    self.close(index)
                    return
                except BaseException:
                    self.close(index)
                    raise
                self.close(index, rows(args, kwargs, item)
                           if rows is not None else 0)
                if after is not None:
                    after(args, kwargs, item)
                yield item
        return traced

    def patch(self, owner: Any, attr: str, name: str, *,
              generator: bool = False, **options: Any) -> None:
        """Replace ``owner.attr`` with a traced wrapper (see :meth:`restore`)."""
        original = getattr(owner, attr)
        # An inherited method is patched on the subclass only, so that
        # sibling classes sharing the base method stay in their own layer.
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        self._patched.append((owner, attr, None if inherited else original))
        wrapper = (self.wrap_generator(name, original, **options)
                   if generator else self.wrap(name, original, **options))
        setattr(owner, attr, wrapper)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Per-layer totals: JSON-ready, mergeable across processes.

        ``spans`` lists the ``[start, end]`` of each span not nested in
        a span of its own layer (``perf_counter`` reads the system-wide
        monotonic clock, so intervals of two processes compare).
        """
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        layers: dict[str, dict[str, Any]] = {}
        for index, name in enumerate(self.names):
            start, end = self.starts[index], self.ends[index]
            layer = layers.setdefault(
                name, {"self_s": 0.0, "calls": 0, "rows": 0, "spans": []})
            layer["self_s"] += end - start - child_time[index]
            layer["calls"] += 1
            layer["rows"] += self.rows[index]
            parent = self.parents[index]
            if parent < 0 or self.names[parent] != name:
                layer["spans"].append([start, end])
        return {"layers": layers, "counters": dict(self.counters),
                "peaks": dict(self.peaks)}


def merge_summaries(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine :meth:`Tracer.summary` documents of several processes."""
    layers: dict[str, dict[str, Any]] = {}
    counters: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for part in parts:
        for name, layer in part["layers"].items():
            into = layers.setdefault(
                name, {"self_s": 0.0, "calls": 0, "rows": 0, "spans": []})
            into["self_s"] += layer["self_s"]
            into["calls"] += layer["calls"]
            into["rows"] += layer["rows"]
            into["spans"].extend(layer["spans"])
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in part["peaks"].items():
            peaks[name] = max(peaks.get(name, value), value)
    return {"layers": layers, "counters": counters, "peaks": peaks}
