"""Span tracing from the benchmark's own files.

A :class:`Tracer` keeps spans in memory as flat records ``(name id,
parent span, start, end)`` in one ``array('d')`` plus named counters.
Written out, a process's spans are one *chunk*: raw records appended to
``<trace>.spans`` and one JSON line in ``<trace>`` holding the run id,
the process id, the span names, the counters and where its records
start in the ``.spans`` file.  :func:`install`
replaces public functions and methods of the program with wrappers
that open a span around each call and update counters from the call's
arguments and result; the returned :class:`Installation` puts every
original back.  Nothing in the program is edited: the wrappers live
here and are set as attributes at run time.

Three call shapes are handled: plain calls, generator functions (the
simulator's processes, each resume of which becomes one span, because
their work runs when the engine resumes them, not when they are
called) and coroutines that do not suspend in the middle (the server's
request dispatch).

A span's *self time* is its duration minus the time covered by its
child spans; children of one span never overlap because spans nest
along one call stack.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Floats per span record: name id, parent index (-1 for none), start, end.
RECORD = 4

#: Hooks of one wrapped function: ``before(args)`` returns a token and
#: ``after(tracer, args, result, token)`` updates counters.
Before = Callable[[tuple], object]
After = Callable[["Tracer", tuple, object, object], None]


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, names: Sequence[str], run_id: str) -> None:
        self.names = list(names)
        self.ids = {name: index for index, name in enumerate(self.names)}
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, name: str) -> int:
        """Open a span named ``name`` under the innermost open span."""
        index = len(self.spans) // RECORD
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((self.ids[name], parent, time.perf_counter(), 0.0))
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index``, which must be the innermost open span."""
        self.spans[index * RECORD + 3] = time.perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        """Drop every span and counter (in place: wrappers hold references)."""
        del self.spans[:]
        self.stack.clear()
        self.counters.clear()
        self.pid = os.getpid()

    def write(self, path: str) -> None:
        """Append this process's chunk to ``path`` and ``path + ".spans"``."""
        with open(path + ".spans", "ab") as records:
            offset = records.tell()
            self.spans.tofile(records)
        header = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "names": self.names,
            "counters": dict(self.counters),
            "spans_file": os.path.basename(path) + ".spans",
            "offset": offset,
            "values": len(self.spans),
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_call(tracer: Tracer, name: str, fn, before: Optional[Before], after: Optional[After]):
    # Tracer.begin/end inlined: a traced fig9 comparison makes about two
    # million wrapped calls, so every attribute lookup saved counts.
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter
    name_id = tracer.ids[name]

    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = len(spans) // RECORD
        spans.extend((name_id, stack[-1] if stack else -1, clock(), 0.0))
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[index * RECORD + 3] = clock()
            stack.pop()
        if after is not None:
            after(tracer, args, result, token)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, before: Optional[Before], after: Optional[After]):
    def resumes(generator):
        sent = None
        while True:
            index = tracer.begin(name)
            try:
                yielded = generator.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.end(index)
            sent = yield yielded

    def wrapper(*args, **kwargs):
        if after is not None:
            after(tracer, args, None, before(args) if before is not None else None)
        return resumes(fn(*args, **kwargs))

    return wrapper


def _wrap_coroutine(tracer: Tracer, name: str, fn, before: Optional[Before], after: Optional[After]):
    async def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = tracer.begin(name)
        try:
            result = await fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result, token)
        return result

    return wrapper


_SHAPES = {"call": _wrap_call, "generator": _wrap_generator, "coroutine": _wrap_coroutine}


@dataclass(frozen=True)
class Site:
    """One function to wrap: ``owner.attr`` becomes a span named ``span``."""

    owner: object
    attr: str
    span: str
    shape: str = "call"
    before: Optional[Before] = None
    after: Optional[After] = None


class Installation:
    """Wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._originals: List[Tuple[object, str, object]] = []

    def wrap(self, tracer: Tracer, site: Site) -> None:
        original = vars(site.owner)[site.attr]
        wrapped = _SHAPES[site.shape](tracer, site.span, original, site.before, site.after)
        self._originals.append((site.owner, site.attr, original))
        setattr(site.owner, site.attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def install(tracer: Tracer, sites: Sequence[Site]) -> Installation:
    """Wrap every site; the caller must call ``restore()`` on the result."""
    installation = Installation()
    try:
        for site in sites:
            installation.wrap(tracer, site)
    except BaseException:
        installation.restore()
        raise
    return installation


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(records: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(duration, self time)`` of each span in an ``(n, RECORD)`` array.

    Self time is the duration minus the summed durations of the span's
    direct children.  A span still open (end 0) counts as empty.
    """
    start, end = records[:, 2], records[:, 3]
    duration = np.where(end > 0, end - start, 0.0)
    parents = records[:, 1].astype(np.int64)
    covered = np.zeros(len(records))
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], duration[has_parent])
    return duration, duration - covered


@dataclass
class Profile:
    """Per-span-name totals and counters summed over every chunk of a run."""

    self_s: Dict[str, float]
    total_s: Dict[str, float]
    counters: Dict[str, float]
    #: Per root name: (summed root duration, summed self time of the
    #: layer spans that run inside those roots).
    roots: Dict[str, Tuple[float, float]]

    def coverage(self, root: str) -> float:
        """Share of ``root`` spans' time that is self time of layer spans.

        Time in code no layer span wraps counts as uncovered, even when
        some other (non-layer) span encloses it.
        """
        duration, covered = self.roots.get(root, (0.0, 0.0))
        return covered / duration if duration > 0 else 0.0


def _layer_time_in(records: np.ndarray, own: np.ndarray, root_id: int, layer_ids: Sequence[int]) -> float:
    """Summed self time of layer spans that start inside a ``root_id`` span.

    Spans of one chunk come from one process and nest along one call
    stack, so root spans do not overlap and a span lies inside the root
    whose interval holds its start.
    """
    roots = records[records[:, 0] == root_id]
    if not len(roots):
        return 0.0
    order = np.argsort(roots[:, 2])
    starts, ends = roots[order, 2], roots[order, 3]
    start = records[:, 2]
    slot = np.searchsorted(starts, start, side="right") - 1
    inside = (slot >= 0) & (start < ends[np.maximum(slot, 0)])
    inside &= np.isin(records[:, 0], layer_ids)
    return float(own[inside].sum())


def profile(
    chunks: Sequence[Dict[str, object]],
    roots: Sequence[str] = (),
    layer_names: Sequence[str] = (),
) -> Profile:
    """Aggregate chunks (as read by :func:`read_chunks`) into a :class:`Profile`.

    Coverage of each of ``roots`` counts the self time of the spans named
    in ``layer_names``.
    """
    result = Profile({}, {}, {}, {})
    for chunk in chunks:
        names = chunk["names"]
        records = np.asarray(chunk["records"]).reshape(-1, RECORD)
        for name, value in chunk["counters"].items():  # type: ignore[union-attr]
            result.counters[name] = result.counters.get(name, 0) + value
        if not len(records):
            continue
        duration, own = self_times(records)
        ids = records[:, 0].astype(np.int64)
        width = len(names)  # type: ignore[arg-type]
        self_sum = np.bincount(ids, weights=own, minlength=width)
        total_sum = np.bincount(ids, weights=duration, minlength=width)
        present = np.bincount(ids, minlength=width) > 0
        for index, name in enumerate(names):  # type: ignore[arg-type]
            if present[index]:
                result.self_s[name] = result.self_s.get(name, 0.0) + float(self_sum[index])
                result.total_s[name] = result.total_s.get(name, 0.0) + float(total_sum[index])
        layer_ids = [names.index(name) for name in layer_names if name in names]  # type: ignore[union-attr,operator]
        for root in roots:
            if root not in names:  # type: ignore[operator]
                continue
            root_id = names.index(root)  # type: ignore[union-attr]
            spent = float(duration[ids == root_id].sum())
            covered = _layer_time_in(records, own, root_id, layer_ids)
            before = result.roots.get(root, (0.0, 0.0))
            result.roots[root] = (before[0] + spent, before[1] + covered)
    return result


def read_chunks(path: str) -> List[Dict[str, object]]:
    """Every chunk of a trace file, each with its span ``records`` loaded."""
    with open(path, encoding="utf-8") as handle:
        chunks = [json.loads(line) for line in handle if line.strip()]
    for chunk in chunks:
        chunk["records"] = np.fromfile(
            os.path.join(os.path.dirname(path), chunk["spans_file"]),
            dtype=np.float64,
            count=int(chunk["values"]),
            offset=int(chunk["offset"]),
        )
    return chunks
