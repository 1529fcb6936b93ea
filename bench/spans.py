"""In-memory span tracer that wraps fefetsim's layer-boundary functions.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the traced pass runs, written out once at the end, and reduced afterwards:
a span's self time is its duration minus the durations of its direct
children, and a layer's self time is the sum over the spans that belong
to it.  Nothing inside ``src/`` is changed; the tracer replaces module
attributes for the duration of a ``with`` block and puts the originals
back on exit.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

#: span name of the work the tracer itself does between program calls
HOOK = "trace.hook"


@dataclass
class SpanLog:
    """Flat span storage: one entry per call, parents by index (-1 = root)."""

    names: list[str] = field(default_factory=list)
    name_ids: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    #: per-span facts a hook recorded, keyed by span index
    notes: dict[int, dict] = field(default_factory=dict)

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def arrays(self):
        """(name_ids, parents, durations) as numpy arrays."""
        ends = np.frombuffer(self.ends, dtype=np.float64)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        return (np.frombuffer(self.name_ids, dtype=np.int32),
                np.frombuffer(self.parents, dtype=np.int32), ends - starts)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64))


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    n = len(durations)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=durations[has_parent],
                        minlength=n)
    return durations - child


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class Summary:
    """Reductions of a span log that the per-layer metrics are built from."""

    log: SpanLog
    ids: np.ndarray
    parents: np.ndarray
    durations: np.ndarray
    self_s: np.ndarray

    @classmethod
    def of(cls, log: SpanLog) -> "Summary":
        ids, par, dur = log.arrays()
        return cls(log, ids, par, dur, self_times(par, dur))

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.log.names:
            return np.zeros(len(self.ids), dtype=bool)
        return self.ids == self.log.names.index(name)

    def outermost(self, name: str) -> np.ndarray:
        """Indices of `name` spans whose parent is not itself a `name` span
        (recursive calls are part of the outer call)."""
        mask = self._mask(name)
        idx = np.nonzero(mask)[0]
        par = self.parents[idx]
        nested = (par >= 0) & mask[np.maximum(par, 0)]
        return idx[~nested]

    def calls(self, name: str) -> int:
        return int(len(self.outermost(name)))

    def seconds(self, name: str) -> float:
        return float(self.durations[self.outermost(name)].sum())

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        per_name = np.bincount(self.ids, weights=self.self_s,
                               minlength=len(self.log.names))
        for nid, name in enumerate(self.log.names):
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + float(per_name[nid])
        return out


class Tracer:
    """Context manager that swaps `target` attributes for span-recording
    wrappers and restores the originals on exit.

    `targets` is a list of (owner, attribute, span name, hooks) where
    owner is a module or class and hooks is a dict that may hold
    ``before(args, kwargs) -> ctx`` and ``after(ctx, args, kwargs, result,
    span_index)``.  Hook work runs inside a ``trace.hook`` span so that it
    is charged to the tracer, not to the layer that called the function.
    """

    def __init__(self, targets, clock=time.perf_counter,
                 log: SpanLog | None = None):
        self.targets = targets
        self.clock = clock
        self.log = log if log is not None else SpanLog()
        #: hooks that failed on an argument or result they did not expect
        self.hook_errors = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._hook_id = self.log.name_id(HOOK)

    # span recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        log = self.log
        idx = len(log.name_ids)
        log.name_ids.append(nid)
        log.parents.append(self._stack[-1])
        log.ends.append(0.0)
        self._stack.append(idx)
        log.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.log.ends[idx] = self.clock()
        self._stack.pop()

    def _run_hook(self, hook, *args):
        idx = self._open(self._hook_id)
        try:
            return hook(*args)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError):
            # a hook reads program objects; if their shape changed, lose the
            # count rather than the traced run
            self.hook_errors += 1
            return None
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hooks: dict):
        nid = self.log.name_id(name)
        before, after = hooks.get("before"), hooks.get("after")
        notes = self.log.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = self._run_hook(before, args, kwargs) if before else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                notes.setdefault(idx, {})["error"] = type(exc).__name__
                raise
            self._close(idx)
            if after:
                self._run_hook(after, ctx, args, kwargs, result, idx)
            return result

        return traced

    # installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, hooks in self.targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hooks))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
