"""Spans recorded around calls into chemovir's public functions.

A span is (name, parent, start, end, ok, pid): ``parent`` is the index of
the span that was open when this one started (-1 for none), ``start`` and
``end`` are ``time.perf_counter`` readings, ``ok`` is false when the call
raised and ``pid`` names the process that made the call.  Spans are kept
in memory and written out when the benchmark ends.

Functions are wrapped at the module attribute their caller reads:
``stepper`` imported ``helmholtz_solve`` by name, so the attribute to
replace is ``stepper.helmholtz_solve``, not ``discretization``'s.

Sweep workers are forked after the wrappers are installed, so they record
spans too.  A worker notices that it runs in another process, drops the
spans it inherited, and appends its own to a spool file each time its
outermost span closes; ``take`` merges the spool files.  perf_counter
reads CLOCK_MONOTONIC, which all processes share, so worker spans sit on
the parent's time line.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import os
import time

import numpy as np

# (module, attribute) pairs replaced by traced wrappers.  chemovir calls
# the first group itself; the benchmark calls the second.
PATCHES = (
    ("stepper", "step"),
    ("stepper", "helmholtz_solve"),
    ("stepper", "compute_record"),
    ("sweep", "run"),
    ("sweep", "classify_boundedness"),
    ("cli", "run"),
    ("cli", "load_config"),
    ("cli", "write_snapshot"),
    ("cli", "write_diagnostics_csv"),
    ("stepper", "run"),
    ("sweep", "run_sweep"),
    ("cli", "main"),
    ("grid", "read_snapshot"),
)

# the span the benchmark opens around its own in-trace checks; its time is
# subtracted from the self time of the span it sits in
CHECK_SPAN = "bench.check"

SPAN_DTYPE = np.dtype([("name", "i4"), ("parent", "i8"), ("start", "f8"),
                       ("end", "f8"), ("ok", "?"), ("pid", "i8")])


def span_name(function) -> str:
    """``<module>.<function>`` of the module that defines the function."""
    return f"{function.__module__.rsplit('.', 1)[-1]}.{function.__name__}"


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, spool_dir: str):
        self.names: list[str] = []
        self._spool_dir = spool_dir
        self._owner = self._pid = os.getpid()
        self._check_id = self.name_id(CHECK_SPAN)
        self._reset()

    def _reset(self, fork_parent: int = -1):
        self._name, self._parent, self._start, self._end, self._ok = [], [], [], [], []
        self._stack: list[int] = []
        self._flushed = 0
        self._fork_parent = fork_parent

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        if os.getpid() != self._pid:
            # a forked worker: the inherited spans belong to the parent, and
            # the span open at the fork becomes the parent of this worker's roots
            self._pid = os.getpid()
            self._reset(self._stack[-1] if self._stack else -1)
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._ok.append(False)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int, ok: bool):
        self._end[index] = time.perf_counter()
        self._ok[index] = ok
        self._stack.pop()
        if not self._stack and self._pid != self._owner:
            self._spool()

    def _records(self, start: int) -> np.ndarray:
        records = np.empty(len(self._name) - start, dtype=SPAN_DTYPE)
        records["name"] = self._name[start:]
        records["parent"] = self._parent[start:]
        records["start"] = self._start[start:]
        records["end"] = self._end[start:]
        records["ok"] = self._ok[start:]
        records["pid"] = self._pid
        return records

    def _spool(self):
        records = self._records(self._flushed)
        # a worker's local parent p is written as -(p + 2); its roots carry
        # the parent-process index of the span open at the fork
        local = records["parent"] >= 0
        records["parent"] = np.where(local, -(records["parent"] + 2), self._fork_parent)
        with open(os.path.join(self._spool_dir, f"spans-{self._pid}.bin"), "ab") as handle:
            records.tofile(handle)
        self._flushed = len(self._name)

    def wrap(self, function, observer=None):
        """A traced stand-in for ``function``.

        ``observer(args, result)`` runs after each successful call, inside
        a CHECK_SPAN span so that its time is not charged to the caller.
        """
        name_id = self.name_id(span_name(function))

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            ok = False
            try:
                result = function(*args, **kwargs)
                ok = True
            finally:
                self._close(index, ok)
            if observer is not None:
                check = self._open(self._check_id)
                try:
                    observer(args, result)
                finally:
                    self._close(check, True)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict, observers: dict | None = None):
        """Replace every PATCHES attribute by a traced wrapper, then restore it.

        ``modules`` maps the short module names of PATCHES to the imported
        modules; ``observers`` maps (module, attribute) to an observer.
        """
        observers = observers or {}
        saved = []
        try:
            for module_name, attribute in PATCHES:
                module = modules[module_name]
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute,
                        self.wrap(original, observers.get((module_name, attribute))))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def take(self) -> np.ndarray:
        """Every span recorded since the last take, the workers' included.

        Call it with no span open.  The spool files are deleted.
        """
        parts = [self._records(0)]
        total = len(parts[0])
        for path in sorted(glob.glob(os.path.join(self._spool_dir, "spans-*.bin"))):
            records = np.fromfile(path, dtype=SPAN_DTYPE)
            os.remove(path)
            local = records["parent"] <= -2
            records["parent"][local] = total - records["parent"][local] - 2
            parts.append(records)
            total += len(records)
        self._reset()
        return np.concatenate(parts)


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children in one process run one after another; the roots of two sweep
    workers overlap, so covered time is the union of the child intervals.
    """
    start, end = spans["start"].tolist(), spans["end"].tolist()
    parent = spans["parent"]
    covered = [0.0] * len(spans)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((spans["start"][children], parent[children]))]
    group, reach = -1, 0.0
    for child, owner in zip(order.tolist(), parent[order].tolist()):
        if owner != group:
            group, reach = owner, start[owner]
        lo, hi = max(start[child], reach), min(end[child], end[owner])
        if hi > lo:
            covered[owner] += hi - lo
            reach = hi
    return spans["end"] - spans["start"] - np.asarray(covered)
