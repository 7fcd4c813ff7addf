"""In-memory span tracing of the stablecond layers, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end and the
span that was open when it started.  Names a module imported from another
(``from .specfun import gauss_2f1`` in ``potential`` and ``checks``) are
replaced too, so every call site is seen.  Spans live in flat integer
arrays until ``save`` writes them out.

A few boundaries also record a work count per span (draws, points), and
``sample_increment`` counts rows of its output that are not finite.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "stablecond"
LAYERS = ("specfun", "geometry", "simulate", "potential", "condition", "cli",
          "checks")


def _rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


# span name -> work count of one call, from its arguments
_WORK = {
    "simulate.sample_increment":
        lambda a, k: int(k.get("size", a[3] if len(a) > 3 else None) or 1),
    "geometry.in_target_many": lambda a, k: _rows(a[0]),
    "geometry.euclidean_distance_to_shell_many": lambda a, k: _rows(a[1]),
    "potential.sphere_harmonic_many": lambda a, k: _rows(a[1]),
    "potential.plane_harmonic_many": lambda a, k: _rows(a[1]),
}


class Tracer:
    """Records spans of wrapped calls; one tracer per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("q")
        self.nonfinite_draws = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        # the recording is inlined and its lookups bound to locals: this
        # wrapper runs around every call of the hottest functions
        nid = self._name_id(name)
        work_of = _WORK.get(name)
        nonfinite = name == "simulate.sample_increment"
        name_ids, parents, works = self.name_id, self.parent, self.work
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work_of is not None:
                works[idx] = work_of(args, kwargs)
            if nonfinite and not np.isfinite(np.sum(out)):
                bad = ~np.isfinite(np.atleast_2d(out)).all(axis=1)
                self.nonfinite_draws += int(bad.sum())
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every traced module in place."""
        if self._saved:
            return
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                   for m in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") \
                        or home not in modules:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{home}.{obj.__name__}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass to ``summary`` to select a range."""
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict:
        """Per span name: calls, total and self nanoseconds, work count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so children never overlap each other.  Total
        time leaves out spans directly inside a span of the same name, so
        recursion is not counted twice.
        """
        nid = np.array(self.name_id[lo:hi], dtype=np.int64)
        dur = (np.array(self.end[lo:hi], dtype=np.int64)
               - np.array(self.start[lo:hi], dtype=np.int64))
        par = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        work = np.array(self.work[lo:hi], dtype=np.int64)
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside],
                            minlength=len(dur))
        self_ns = dur - child
        outer = np.ones(len(dur), dtype=bool)
        outer[inside] = nid[par[inside]] != nid[inside]
        out = {}
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        tot = np.bincount(nid[outer], weights=dur[outer], minlength=n_names)
        slf = np.bincount(nid, weights=self_ns, minlength=n_names)
        wrk = np.bincount(nid, weights=work, minlength=n_names)
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "total_ns": float(tot[i]),
                             "self_ns": float(slf[i]), "work": int(wrk[i])}
        return out

    def save(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            **{key: np.array(getattr(self, attr), dtype=np.int64)
               for key, attr in (("name_id", "name_id"), ("start_ns", "start"),
                                 ("end_ns", "end"), ("parent", "parent"),
                                 ("work", "work"))})
