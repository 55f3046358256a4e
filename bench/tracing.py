"""Span tracing of flagcurv's public functions, from outside the package.

Each public module-level function of the traced modules is wrapped once, and
the wrapper is rebound in every flagcurv namespace that holds the function:
modules import by name (``from .algebra import bracket``), so patching only
the defining module would miss those calls.  Spans are kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

MODULES = ("algebra", "metrics", "geometry", "config", "finsler", "riemann",
           "flagcurvature", "berwald", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int | str  # op index, or "setup"
    error: str | None = None  # exception type, when the call raised
    result: int | None = None  # integer return values (exit codes)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.names: set[str] = set()  # every wrapped function
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if type(out) is int:
                span.result = out
            return out

        return traced

    def install(self, package: str = "flagcurv") -> None:
        """Wrap every public function and rebind it wherever it is bound."""
        if self._patches:
            return
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in vars(mod).copy().items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                self.names.add(f"{short}.{fname}")
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, attr, fn, wrapper))
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out
