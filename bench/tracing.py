"""Spans around the public functions of the program's modules.

A Recorder keeps one span per call (name, parent, start, end) in flat
arrays, in the order the calls start, so a parent always precedes its
children. `installed` replaces every module attribute that names a wrapped
function, which is where the calling module looks the name up, and puts the
originals back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from array import array
from typing import Dict, Iterable, List


class Recorder:
    def __init__(self):
        self.labels: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def add(self, label: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span; used to build synthetic traces."""
        self.name.append(self.label_id(label))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def wrap(self, label: str, fn):
        nid = self.label_id(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

@contextlib.contextmanager
def installed(recorder: Recorder, modules: Iterable):
    """Wrap each public function defined in `modules` under every attribute
    of `modules` that refers to it. Spans are labelled module.function,
    module being the last part of the defining module's name."""
    modules = list(modules)
    wrappers: Dict[int, object] = {}
    for m in modules:
        for attr, fn in vars(m).items():
            if (inspect.isfunction(fn) and fn.__module__ == m.__name__
                    and not attr.startswith("_")):
                label = f"{m.__name__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = recorder.wrap(label, fn)
    saved = []
    for m in modules:
        for attr, fn in list(vars(m).items()):
            if id(fn) in wrappers:
                saved.append((m, attr, fn))
                setattr(m, attr, wrappers[id(fn)])
    try:
        yield recorder
    finally:
        for m, attr, fn in saved:
            setattr(m, attr, fn)


def write(path, recorders: Dict[str, Recorder]) -> None:
    """Write spans gzip-compressed, one per line: phase, id, parent id,
    label, start and end in nanoseconds since the phase's first span."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("phase\tid\tparent\tlabel\tstart_ns\tend_ns\n")
        for phase, rec in recorders.items():
            t0 = rec.start[0] if len(rec) else 0
            for i in range(len(rec)):
                out.write(f"{phase}\t{i}\t{rec.parent[i]}\t"
                          f"{rec.labels[rec.name[i]]}\t{rec.start[i] - t0}\t"
                          f"{rec.end[i] - t0}\n")


def self_times(rec: Recorder) -> array:
    """Each span's duration minus the part of it that its children cover.

    Children arrive in start order, so their union is accumulated in one
    pass by remembering how far each parent is already covered.
    """
    n = len(rec)
    start, end, parent = rec.start, rec.end, rec.parent
    covered = array("q", bytes(8 * n))
    reach = array("q", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def within(rec: Recorder, label: str) -> bytearray:
    """Flags the spans labelled `label` and every span below one."""
    flags = bytearray(len(rec))
    if label not in rec.labels:
        return flags
    nid, name, parent = rec.labels.index(label), rec.name, rec.parent
    for i in range(len(rec)):
        p = parent[i]
        if name[i] == nid or (p >= 0 and flags[p]):
            flags[i] = 1
    return flags


def layer_self_ns(rec: Recorder, selfs: array, layer: str,
                  under: str = "") -> int:
    """Self time of the spans of one layer (module), optionally only those
    at or below spans labelled `under`."""
    ids = {i for i, lab in enumerate(rec.labels)
           if lab.split(".", 1)[0] == layer}
    flags = within(rec, under) if under else None
    name = rec.name
    return sum(selfs[i] for i in range(len(rec))
               if name[i] in ids and (flags is None or flags[i]))


def durations_ns(rec: Recorder, label: str) -> List[int]:
    if label not in rec.labels:
        return []
    nid = rec.labels.index(label)
    return [rec.end[i] - rec.start[i] for i in range(len(rec))
            if rec.name[i] == nid]


def count_under(rec: Recorder, label: str, under: str) -> int:
    """Spans labelled `label` at or below a span labelled `under`."""
    if label not in rec.labels:
        return 0
    flags, nid = within(rec, under), rec.labels.index(label)
    return sum(1 for i in range(len(rec)) if rec.name[i] == nid and flags[i])
