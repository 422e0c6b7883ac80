"""In-memory span tracer that wraps scenehog's public functions.

A span is (id, name, start, end, parent, thread, attrs).  Spans are kept
in a list while the workload runs and written as JSON lines at the end.
The parent is the innermost open span of the same thread; each thread
has its own stack, so spans opened by worker threads start new trees.

Wrapping rebinds every reference to the original function in every
loaded ``scenehog`` module, including names imported with
``from .x import f``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path


def _rebind(original, replacement) -> None:
    """Point every scenehog module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "scenehog" and not name.startswith("scenehog."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(target: str):
    """'svm.train_binary' -> the function object in scenehog.svm."""
    module_name, fn_name = target.rsplit(".", 1)
    return getattr(sys.modules[f"scenehog.{module_name}"], fn_name)


class CallCounter:
    """Counts calls to one function; safe under concurrent callers."""

    def __init__(self, target: str) -> None:
        self.calls = 0
        lock = threading.Lock()
        original = _lookup(target)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with lock:
                self.calls += 1
            return original(*args, **kwargs)

        _rebind(original, counted)


class Tracer:
    """Records one span per call of each instrumented function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; yields its attribute dict."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), attrs)
            )

    @contextlib.contextmanager
    def paused(self):
        """Run a block with every wrapper passing straight through."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def instrument(self, target: str, annotate=None) -> None:
        """Wrap scenehog's `module.function`; the span is named `target`.

        `annotate(args, kwargs, result)` returns a dict of attributes
        stored on the span, such as an operation count.  It runs after
        the span has closed, so its cost is not part of the span.
        """
        original = _lookup(target)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(target) as attrs:
                result = original(*args, **kwargs)
            if annotate is not None:
                attrs.update(annotate(args, kwargs, result))
            return result

        _rebind(original, traced)

    def write_jsonl(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        with open(path, "w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
