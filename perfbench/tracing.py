"""Spans recorded from outside the library by wrapping otmel's public functions.

``wrapped(tracer)`` replaces every binding of a public ``otmel`` function
(the same function object imported into several modules is wrapped at each
of them) and the public methods of ``Scorer`` on the class. Leaving the
block restores every binding and verifies that no wrapper is left behind,
so a traced round cannot leak into an untraced one in the same process.

Spans are kept in memory as flat arrays and summarised or written out only
after the measured work has finished.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
import types
from array import array

import numpy as np

PACKAGE = "otmel"
# Classes whose public methods are wrapped on the class itself.
WRAPPED_CLASSES = ("matching.Scorer",)

_WRAPPED_MARK = "__perfbench_original__"


def _sinkhorn_probe(args, kwargs, plan):
    return (plan.iterations_used, plan.converged, plan.achieved_marginal_error, plan.n, plan.m)


def _read_probe(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Span name -> function of (args, kwargs, return value) whose result is kept
# with the span: the counts the library reports only through return values.
PROBES = {
    "ot.sinkhorn": _sinkhorn_probe,
    "data_io.read_feature_file": _read_probe,
}


class Tracer:
    """Collects spans: name, start, end and parent of every wrapped call.

    Each thread keeps its own stack of open spans. A span that opens on a
    thread with an empty stack (a worker of ``rank_all``'s pool) takes as
    parent the innermost open span of the thread that created the tracer,
    which is blocked waiting for that worker.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name_id, probe, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner and stack is not owner else -1
        with self._lock:
            sid = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        if probe is not None:
            self.info[sid] = probe(args, kwargs, result)
        return result

    def arrays(self):
        """(name_of, parent, start, end) as numpy arrays."""
        return (
            np.array(self.name_of, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
        )

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file."""
        name_of, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_of=name_of,
            parent=parent,
            start=start,
            end=end,
        )


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"


def _is_public_function(attr: str, value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and not attr.startswith("_")
        and (value.__module__ == PACKAGE or value.__module__.startswith(PACKAGE + "."))
    )


def _owners() -> list:
    """The otmel modules, and the classes whose methods are wrapped."""
    owners = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    for qualified in WRAPPED_CLASSES:
        module_name, cls_name = qualified.rsplit(".", 1)
        owners.append(getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name))
    return owners


def _bindings():
    """Every (owner, attribute, function) that binds a public otmel function."""
    return [
        (owner, attr, value)
        for owner in _owners()
        for attr, value in list(vars(owner).items())
        if _is_public_function(attr, value)
    ]


def leaked_wrappers() -> list[str]:
    """Bindings in the otmel package that still hold a tracing wrapper."""
    return [
        f"{owner.__qualname__ if isinstance(owner, type) else owner.__name__}.{attr}"
        for owner in _owners()
        for attr, value in list(vars(owner).items())
        if hasattr(value, _WRAPPED_MARK)
    ]


def _make_wrapper(tracer: Tracer, fn):
    name = _span_name(fn)
    name_id = tracer.name_id(name)
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name_id, probe, fn, args, kwargs)

    setattr(wrapper, _WRAPPED_MARK, fn)
    return wrapper


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Route every public otmel function through ``tracer`` inside the block."""
    leaked = leaked_wrappers()
    if leaked:
        raise RuntimeError(f"otmel is already wrapped: {leaked}")
    replaced = []
    wrappers = {}
    try:
        for owner, attr, fn in _bindings():
            wrapper = wrappers.get(fn)
            if wrapper is None:
                wrapper = wrappers[fn] = _make_wrapper(tracer, fn)
            setattr(owner, attr, wrapper)
            replaced.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)
        wrong = [attr for owner, attr, fn in replaced if vars(owner)[attr] is not fn]
        leaked = leaked_wrappers()
        if wrong or leaked:
            raise RuntimeError(f"tracing wrappers were not restored: {wrong + leaked}")


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of the intervals its children cover.

    Children may come from several threads and overlap; overlapping time
    is subtracted once.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent, np.int64)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current = -1
    seg_start = seg_end = 0.0
    for i in order.tolist():
        p = int(parent[i])
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        if p != current:
            if current >= 0:
                covered[current] += seg_end - seg_start
            current, seg_start, seg_end = p, lo, max(lo, hi)
        elif lo > seg_end:
            covered[current] += seg_end - seg_start
            seg_start, seg_end = lo, max(lo, hi)
        else:
            seg_end = max(seg_end, hi)
    if current >= 0:
        covered[current] += seg_end - seg_start
    return (end - start) - covered


def pooled_hit_ratio(names, name_of, parent) -> float:
    """Share of ``Scorer.pooled`` lookups that did not call ``pooled_pair``.

    Returns 0.0 when no lookup was made.
    """
    name_of = np.asarray(name_of, np.int64)
    parent = np.asarray(parent, np.int64)
    try:
        pooled = names.index("matching.Scorer.pooled")
    except ValueError:
        return 0.0
    lookups = int(np.count_nonzero(name_of == pooled))
    if lookups == 0:
        return 0.0
    misses = 0
    if "matching.pooled_pair" in names:
        pair = names.index("matching.pooled_pair")
        pair_parents = parent[name_of == pair]
        misses = int(np.count_nonzero(name_of[pair_parents[pair_parents >= 0]] == pooled))
    return (lookups - misses) / lookups


def under(name_of, parent, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor_id`` among their ancestors."""
    name_of = np.asarray(name_of, np.int64)
    parent = np.asarray(parent, np.int64)
    inside = np.zeros(len(name_of), bool)
    # Parents are recorded before their children, so one forward pass works.
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and (inside[p] or name_of[p] == ancestor_id):
            inside[i] = True
    return inside
