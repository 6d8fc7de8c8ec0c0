"""Span tracing of pelab's public functions, installed from outside the program.

`Tracer.install` wraps every public function defined in pelab's five modules
(plus `FieldState.__post_init__` and the sweep's per-cell worker) and puts
each wrapper into every pelab namespace that holds the original, because
names such as `laplacian` and `run` are imported into several modules.  A
span is (name, start, end, parent, thread, aux); spans are kept per thread in
flat arrays until `save`.  `aux` carries the state-shape id for the step
functions and the bytes written for `write_snapshot`.

`Spans` reads the saved spans back and derives self times, counts and the
containment counts the per-layer metrics need.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from array import array

import numpy as np

MODULES = ("grid", "potentials", "solver", "diagnostics", "cli")
STEPS = ("solver.step_diffusion", "solver.step_coupled", "solver.step_scalar")


class _Buffers:
    def __init__(self):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.aux = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.shapes: dict[tuple, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Buffers] = []

    def _buffers(self) -> _Buffers:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffers()
            self._threads.append(buf)
        return buf

    def _shape_id(self, state) -> int:
        shape = tuple(state.values.shape)
        sid = self.shapes.get(shape)
        if sid is None:
            with self._lock:  # sweep cells step on several threads
                sid = self.shapes.setdefault(shape, len(self.shapes))
        return sid

    def wrap(self, name: str, fn, aux=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffers()
            idx = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.aux.append(0)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            buf.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                buf.stack.pop()
            if aux is not None:
                buf.aux[idx] = aux(args)
            return result

        return traced

    def install(self) -> None:
        import pelab.cli  # noqa: F401  (loads every module below)
        import pelab.grid

        namespaces = [m for k, m in sys.modules.items()
                      if k == "pelab" or k.startswith("pelab.")]
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"pelab.{short}"]
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") or attr == "_run_cell"
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    aux = None
                    if name in STEPS:
                        aux = lambda args: self._shape_id(args[0])  # noqa: E731
                    elif name == "grid.write_snapshot":
                        aux = lambda args: os.stat(args[0]).st_size  # noqa: E731
                    replaced[id(fn)] = self.wrap(name, fn, aux)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(ns, attr, replaced[id(value)])
        fs = pelab.grid.FieldState
        fs.__post_init__ = self.wrap("grid.FieldState", fs.__post_init__)

    def save(self, path: str) -> None:
        cols = {k: [] for k in ("names", "starts", "ends", "parents", "aux", "thread")}
        offset = 0
        for t, buf in enumerate(self._threads):
            n = len(buf.starts)
            parents = np.asarray(buf.parents)
            parents[parents >= 0] += offset
            cols["parents"].append(parents)
            for k in ("names", "starts", "ends", "aux"):
                cols[k].append(np.asarray(getattr(buf, k)))
            cols["thread"].append(np.full(n, t, dtype=np.int32))
            offset += n
        arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        shapes = sorted(self.shapes.items(), key=lambda kv: kv[1])
        meta = {"names": self.names, "shapes": [list(s) for s, _ in shapes]}
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


class Spans:
    """Saved spans with derived durations and self times."""

    def __init__(self, path):
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            self.name_of = meta["names"]
            self.shapes = [tuple(s) for s in meta["shapes"]]
            self.names = z["names"].astype(np.int64)
            self.starts = z["starts"].astype(float)
            self.ends = z["ends"].astype(float)
            self.parents = z["parents"].astype(np.int64)
            self.aux = z["aux"].astype(np.int64)
            self.thread = z["thread"].astype(np.int64)
        self.dur = self.ends - self.starts
        child = np.zeros_like(self.dur)
        has = self.parents >= 0
        np.add.at(child, self.parents[has], self.dur[has])
        self.self_time = self.dur - child
        self._ids = {n: i for i, n in enumerate(self.name_of)}

    def select(self, *names: str) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.names, ids)

    def calls(self, *names: str) -> int:
        return int(self.select(*names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.select(*names)].sum())

    def total_s(self, *names: str) -> float:
        return float(self.dur[self.select(*names)].sum())

    def contained(self, inner: str, outer: str) -> int:
        """Number of `inner` spans inside the extent of `outer` spans on the same thread."""
        inner_m, outer_m = self.select(inner), self.select(outer)
        count = 0
        for t in np.unique(self.thread[outer_m]):
            starts = np.sort(self.starts[inner_m & (self.thread == t)])
            for s, e in zip(self.starts[outer_m & (self.thread == t)],
                            self.ends[outer_m & (self.thread == t)]):
                count += int(np.searchsorted(starts, e) - np.searchsorted(starts, s))
        return count
