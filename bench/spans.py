"""Span recorder for the traced benchmark run.

Wraps public functions and methods of the ``outline2report`` modules from
outside the package, so the program itself carries no tracing code. Each
call becomes a span with a name, start, end, parent span and the operation it
belongs to (-1 for set-up). Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

SETUP = -1


class SpanRecorder:
    """Spans in flat arrays: name id, start, end, parent index, operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.current_op = SETUP

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields its index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def __len__(self):
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover. Spans
        close in the order they opened (``close`` checks), so children never
        overlap and the time they cover is the sum of their durations."""
        out = [end - start for start, end in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self, ops: range, selfs=None) -> dict[str, tuple[float, int]]:
        """Per name: (summed self seconds, call count) over spans whose
        operation lies in ``ops``; ``selfs`` reuses ``self_times()``."""
        if selfs is None:
            selfs = self.self_times()
        acc: dict[str, list] = {}
        for i, nid in enumerate(self.name_id):
            if self.op[i] in ops:
                slot = acc.setdefault(self.names[nid], [0.0, 0])
                slot[0] += selfs[i]
                slot[1] += 1
        return {name: (s, n) for name, (s, n) in acc.items()}


def _wrap(recorder: SpanRecorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(result)
        return result
    return traced


class Patches:
    """Replace targets with traced wrappers; ``restore`` puts them back.

    A target is (span name, owner, attribute). For a module-level function
    every loaded module of the package that binds the same object under that
    attribute name is patched too, since ``from .x import f`` copies the
    binding (``generation`` binds ``attend``, ``report_decoder`` binds
    ``sequence_nll``, the package binds ``save_checkpoint``, and so on).
    Methods are patched on their class, which every instance looks up.
    ``after`` maps a span name to a callback that receives each result once
    the span has closed, so its own cost stays out of that span.
    """

    def __init__(self, recorder: SpanRecorder, targets, package: str, after=None):
        after = after or {}
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for span_name, owner, attr in targets:
            original = owner.__dict__[attr]
            wrapped = _wrap(recorder, span_name, original, after.get(span_name))
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)
