"""Span tracing from outside the program.

:class:`Tracer` swaps a wrapper in for a function under every name a
``bntrim`` module binds it to (for example ``bntrim.trimsearch.mpa`` and
``bntrim.cli.mpa`` for ``agreement.mpa``), so calls through any caller
are seen.  A span records its name, start, end, parent span and op id.
Spans are kept in memory as flat arrays and written out when the run ends.
Very hot functions get a call counter instead of a span.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Iterable

import numpy as np


def self_times(
    start: Iterable[float], end: Iterable[float], parent: Iterable[int]
) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover.  ``parent`` holds the parent's index, or -1."""
    start, end, parent = list(start), list(end), list(parent)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = start[i]
        for lo, hi in sorted((start[c], end[c]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


class Tracer:
    """Records spans and call counts while ``op`` is set to an op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.calls: Counter[str] = Counter()
        self.rows: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap_span(self, name: str, fn: Callable, rows: Callable | None) -> Callable:
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if rows is not None:
                self.rows[name] += rows(args, result)
            return result

        return wrapper

    def _wrap_count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(
        self,
        spans: dict[str, Callable | None],
        counted: Iterable[str],
        package: str = "bntrim",
    ) -> None:
        """Wrap ``package.<module>.<function>`` for every name in
        ``spans`` (mapped to an optional ``rows(args, result)`` counter)
        and in ``counted``, rebinding each wrapper wherever a module of
        the package holds the original function."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]

        def rebind(name: str, wrap: Callable[[Callable], Callable]) -> None:
            module, func = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = wrap(original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

        for name, rows in spans.items():
            rebind(name, lambda fn: self._wrap_span(name, fn, rows))
        for name in counted:
            rebind(name, lambda fn: self._wrap_count(name, fn))

    def summary(self) -> tuple[Counter[str], Counter[str]]:
        """Span counts and summed self seconds, per span name."""
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        selfs = self_times(self.start, self.end, self.parent)
        for nid, s in zip(self.span_name, selfs):
            calls[self.names[nid]] += 1
            busy[self.names[nid]] += s
        return calls, busy

    def write(self, path) -> None:
        """Save the spans as columns of a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
        )
