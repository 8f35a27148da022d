"""Span recording for the traced run, kept entirely outside ``src/``.

Layers are measured from the outside: :class:`Instrumentation` replaces
public entry points of the ``repro`` layer modules with thin wrappers
that open and close a span, at the module or class attribute their
callers look up. Spans live in memory (:class:`SpanRecorder`) until the
run ends; :func:`self_times` and :func:`validate` turn them into
per-layer self time and a tree check.

A span name is ``"<layer>:<entry point>"``; the layer part is what the
per-layer metrics aggregate on.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# One recorded span: [name, start, end, parent index or -1, op id].
Span = List[object]

Hook = Callable[["SpanRecorder", tuple, dict, object], None]


class SpanRecorder:
    """Spans and counters of one traced run, in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._stack: List[int] = []
        self.op: object = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def root(self, op: object, name: str = "bench:op") -> "_Root":
        """Context manager for the root span of one op (or of a set-up)."""
        return _Root(self, op, name)


class _Root:
    def __init__(self, recorder: SpanRecorder, op: object, name: str):
        self._recorder = recorder
        self._op = op
        self._name = name
        self.index = -1

    def __enter__(self) -> "_Root":
        self._recorder.op = self._op
        self.index = self._recorder.open(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.close(self.index)
        self._recorder.op = None


def _spanned(fn: Callable, name: str, recorder: SpanRecorder, hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    return wrapper


def _spanned_generator(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    """Each step of the generator ``fn`` returns becomes one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = recorder.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            yield item

    return wrapper


class Instrumentation:
    """Installs span wrappers and removes them again on :meth:`restore`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Wrap a module-level function everywhere a ``repro`` module bound it.

        ``from x import f`` copies the function into the importing
        module, so every ``repro`` module attribute that *is* the
        original is replaced, not only the defining one.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = _spanned(original, f"{layer}:{attr}", self.recorder, hook)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)

    def method(self, cls: type, attr: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Wrap a method, classmethod or staticmethod on its class."""
        raw = cls.__dict__[attr]
        span = f"{layer}:{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            value: object = classmethod(_spanned(raw.__func__, span, self.recorder, hook))
        elif isinstance(raw, staticmethod):
            value = staticmethod(_spanned(raw.__func__, span, self.recorder, hook))
        else:
            value = _spanned(raw, span, self.recorder, hook)
        self._set(cls, attr, value)

    def generator_method(self, cls: type, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        self._set(cls, attr, _spanned_generator(raw, f"{layer}:{cls.__name__}.{attr}", self.recorder))

    def wrap_returned(self, cls: type, attr: str, layer: str, name: str) -> None:
        """Wrap the callable a factory method returns (e.g. a built handler)."""
        raw = cls.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(raw)
        def factory(*args, **kwargs):
            return _spanned(raw(*args, **kwargs), f"{layer}:{name}", recorder, None)

        self._set(cls, attr, factory)

    def wrap_route_endpoints(self, cls: type, attr: str, layer: str) -> None:
        """Wrap the endpoint of every ``(route, params)`` a matcher returns."""
        raw = cls.__dict__[attr]
        recorder = self.recorder
        cache: Dict[int, Callable] = {}

        @functools.wraps(raw)
        def match(*args, **kwargs):
            route, params = raw(*args, **kwargs)
            wrapped = cache.get(id(route.endpoint))
            if wrapped is None:
                name = getattr(route.endpoint, "__name__", "endpoint")
                wrapped = _spanned(route.endpoint, f"{layer}:{name}", recorder, None)
                cache[id(route.endpoint)] = wrapped
            return dataclasses.replace(route, endpoint=wrapped), params

        self._set(cls, attr, match)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def validate(spans: List[Span]) -> List[str]:
    """Tree errors: a child outside its parent, across ops, or unclosed."""
    errors = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            errors.append(f"span {index} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            if parent >= index:
                errors.append(f"span {index} {name} precedes its parent")
            if p_op != op:
                errors.append(f"span {index} {name} is in op {op}, its parent in {p_op}")
            if start < p_start or end > p_end:
                errors.append(f"span {index} {name} lies outside its parent {p_name}")
        elif not name.startswith("bench:"):
            errors.append(f"span {index} {name} has no parent")
    return errors


def by_op(spans: List[Span], selfs: List[float]) -> Dict[object, Dict[str, float]]:
    """Self seconds per layer, per op id."""
    table: Dict[object, Dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    for span, own in zip(spans, selfs):
        table[span[4]][layer_of(span[0])] += own
    return table

