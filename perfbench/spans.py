"""Outside-in tracer for the per-layer run.

The tracer wraps public library functions from outside: for each traced
function it replaces every binding of that function object in every loaded
thermoflux module (so `thermoflux.extraction.injection_feasible` is wrapped
as well as `thermoflux.typeclass.injection_feasible`).  Library code is not
edited.  A traced name that no longer exists is skipped, so its metrics are
absent rather than the run failing.

Each call records one span: name, start, end, parent span, op id and whether
it raised.  Spans are kept in flat arrays in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ROOT = "op"  # name of the span the benchmark opens around each operation


@dataclass(frozen=True)
class Traced:
    layer: str
    module: str
    name: str
    # probe(args, kwargs, result) -> {count name: value} for counts measured at
    # this boundary; tag(args, kwargs, result) -> label splitting self time.
    probe: Optional[Callable] = None
    tag: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


class Tracer:
    def __init__(self):
        self.names: list = [ROOT]
        self._ids = {ROOT: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("i")
        self.raised = array("b")
        self.tags: dict = {}  # span index -> tag
        self.counts: dict = {}  # (key, count) -> list of values
        self._stack: list = []
        self._op = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        idx = self._open(0)
        try:
            result = fn()
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    def _wrap(self, spec: Traced, func: Callable) -> Callable:
        name_id = self._ids.setdefault(spec.key, len(self.names))
        if name_id == len(self.names):
            self.names.append(spec.key)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if spec.probe is not None:
                for count, value in spec.probe(args, kwargs, result).items():
                    tracer.counts.setdefault((spec.key, count), []).append(value)
            if spec.tag is not None:
                tracer.tags[idx] = spec.tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", spec.name)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, specs) -> list:
        """Wrap every spec whose function exists; return the keys wrapped."""
        modules = [m for n, m in list(sys.modules.items()) if n == "thermoflux" or n.startswith("thermoflux.")]
        wrapped = []
        for spec in specs:
            home = sys.modules.get(spec.module)
            func = getattr(home, spec.name, None) if home is not None else None
            if func is None or not callable(func):
                continue
            wrapper = self._wrap(spec, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, func))
            wrapped.append(spec.key)
        return wrapped

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._patches):
            setattr(mod, attr, func)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it: the covered time is the sum of the children's durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered
