"""In-memory span recorder and the wrappers that feed it.

A span is (name, parent, start, end).  Spans nest through a stack, so a
span's parent is whichever wrapped call was open when it started.  The
recorder keeps spans in flat arrays (a few bytes each, since hot ring
operations produce hundreds of thousands of them), can write them out as one
binary file, and reduces them to per-name totals:

* ``calls``  - number of spans;
* ``busy_s`` - inclusive time, counting only the outermost span of a name
  when the same name recurses;
* ``self_s`` - each span's duration minus the time covered by its direct
  child spans, summed over the name's spans.

Wrappers are installed by replacing a function wherever the ``pgl3dops``
modules bind it: a module that did ``from .weyl import op_compose`` holds
its own reference, and patching only ``weyl.op_compose`` would miss every
call made through it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.name)

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``busy_s`` and ``self_s``."""
        n = len(self.name)
        if len(self._stack) != 1:
            raise RuntimeError("reduce() called with spans still open")
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self._has_ancestor_named(i, self.name[i]):
                rec["busy_s"] += dur[i]
        return out

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent (they never overlap)."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.name)) if self.parent[i] < 0)

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for attr in ("name", "parent", "start", "end"):
                getattr(self, attr).tofile(fh)


def spanned(rec: SpanRecorder, name: str, fn, after=None):
    """Wrap ``fn`` so that each call records one span named ``name``.

    ``after(args, kwargs, result)`` runs outside the span, for counters that
    inspect the call (term counts, division outcomes).
    """
    nid = rec.intern(name)
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Replaces functions and methods, and puts every original back."""

    PACKAGE = "pgl3dops"

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make) -> int:
        """Wrap ``module.attr`` under every name any package module binds it to.

        Returns how many bindings were replaced.
        """
        original = getattr(module, attr)
        wrapper = make(original)
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.PACKAGE
                                   or modname.startswith(self.PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                    bound += 1
        return bound

    def method(self, cls, attr: str, make) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
