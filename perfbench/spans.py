"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions by
wrappers that this file installs; no program source is touched. Each
span has a name, a start, an end and the id of the span that was open
when it began (its parent). Spans are kept in compact arrays while the
run lasts and written out once at the end.

Per-name totals are kept online as spans close: call count, total time
and self time (span time minus the time its child spans cover), so the
per-layer figures cover every call even when the retained span list is
capped to bound memory.
"""
from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, max_spans: int = 400_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # Open spans: [span id, time covered by children so far].
        self._stack: list[list] = []
        self._next_sid = 0
        self.dropped = 0
        self._sid = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")

    @property
    def recorded(self) -> int:
        return self._next_sid

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return i

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records one span ``name``."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            sid = self._next_sid
            self._next_sid = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self.calls[nid] += 1
                self.total[nid] += d
                self.self_time[nid] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                if len(self._sid) < self.max_spans:
                    self._sid.append(sid)
                    self._name.append(nid)
                    self._start.append(t0)
                    self._end.append(t1)
                    self._parent.append(-1 if parent is None else parent[0])
                else:
                    self.dropped += 1

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span ``name`` (for blocks, not functions)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def stat(self, name: str) -> tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of spans ``name``."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.total[i], self.self_time[i]

    def write(self, path: Path) -> None:
        """Write the retained spans as tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(f"# spans kept: {len(self._sid)}, dropped: {self.dropped}\n")
            f.write("id\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for sid, nid, t0, t1, par in zip(
                self._sid, self._name, self._start, self._end, self._parent
            ):
                f.write(f"{sid}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\t{par}\n")


class Patches:
    """Installs tracing wrappers on module attributes; ``undo`` restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.tracer.wrap(fn, name))

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
