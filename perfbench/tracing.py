"""Span tracing applied to catscan from outside the package.

Public functions are wrapped at every module attribute that refers to them,
so a call made through ``catscan.cli.reconstruct_at`` or through
``catscan.experiment.reconstruct_at`` records a span just like a direct call
to ``catscan.tomography.reconstruct_at``.  Spans stay in memory until the run
ends; counters are recorded by hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory spans (name, start, end, parent index) plus named counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span, self_s in zip(spans, selfs):
        row = stats[span["name"]]
        row["calls"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += self_s
    return dict(stats)


def _traced(tracer: Tracer, name: str, fn, hook):
    if hook is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        hook.before(tracer, bound)
        with tracer.span(name):
            result = fn(*bound.args, **bound.kwargs)
        hook.after(tracer, bound, result)
        return result

    return hooked


@contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap each target for the duration of the block, then restore.

    ``targets`` holds ``(module, attribute, span_name, hook)`` tuples, where
    ``attribute`` is ``"func"`` or ``"Class.method"`` and ``hook`` is None or
    an object whose ``before(tracer, bound)`` and ``after(tracer, bound,
    result)`` see the call's ``inspect.BoundArguments``.  A target missing from the
    package is skipped, so its layer metrics read zero.  Every attribute of a
    loaded ``catscan`` module that is the original function is replaced.
    """
    restore: list[tuple[object, str, object]] = []
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "catscan"]
    try:
        for module_name, attribute, name, hook in targets:
            owner = sys.modules.get(module_name)
            *class_path, attr = attribute.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if owner is None or original is None:
                continue
            wrapper = _traced(tracer, name, original, hook)
            holders = [owner] if class_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, value in reversed(restore):
            setattr(holder, key, value)
