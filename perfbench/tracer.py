"""Outside-in tracer: spans and counters recorded around a program's functions.

The program is not modified. `instrument` replaces each named function on
every module attribute that is bound to it, so aliases such as
``from .combine import binarize`` in another module are traced too, and puts
every original back when the block ends, even on error.

A span records (name, start_ns, end_ns, parent, thread id). The parent is the
innermost open span of the same thread, so work handed to a pool thread starts
a new root there. Spans stay in memory; the caller writes `as_dict()` out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, THREAD = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent, threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack().pop()

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, name: str, fn, on_return=None):
        """`fn` inside a span; `on_return(tracer, result, args, kwargs)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self time in seconds."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (span[END] - span[START]) / 1e9
            row["self_s"] += own / 1e9
        return out

    def as_dict(self) -> dict:
        return {"counters": dict(self.counters), "spans": self.spans}


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children are recorded only within their parent's thread, where they nest
    inside the parent and do not overlap one another, so their summed
    durations are exactly the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def _package_modules(package: str):
    prefix = package + "."
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]


@contextmanager
def instrument(tracer: Tracer, package: str, targets: dict):
    """Trace `package` functions named "module.attr" in `targets` for the block.

    `targets` maps each name to an `on_return` hook or None. A name the
    package no longer defines is reported on stderr and left untraced.
    """
    modules = _package_modules(package)
    patched = []
    try:
        for name, on_return in targets.items():
            module_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: {package}.{name} not found; not traced", file=sys.stderr)
                continue
            wrapper = tracer.wrap(name, original, on_return)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
