"""Span tracer for the hartogs package, installed from outside the source.

Every public function of the traced modules (a name without a leading
underscore, defined in that module) is replaced by a timing wrapper at
every module binding that refers to it, so ``hartogs.kernels.gauss_2f1``
and ``hartogs.specfun.gauss_2f1`` both record.  Public classes record
their constructor.  ``verify.run_suite`` records one span per suite,
named ``verify.<suite>``.  No source file is edited; ``uninstall``
restores every original binding.

The three tensor integrators also count their grid points, n1*n2*m^2 per
call, computed from the rule they were given (or the default rule, with
HARTOGS_QUAD_ORDER scrubbed from the environment).

A span is (name, start, end, parent).  Spans stay in memory in flat
arrays until ``dump`` writes them out; the run is single-threaded, so the
parent is simply the innermost span still open.
"""

import contextlib
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = (
    "specfun",
    "geometry",
    "coeffspace",
    "kernels",
    "quadrature",
    "projections",
    "isometries",
    "verify",
    "cli",
)

# argument position of the rule, and the default rule's (n1, n2, m)
GRID_FUNCTIONS = {
    "quadrature.integrate_mu": (2, (64, 64, 65)),
    "quadrature.integrate_bidisc": (2, (64, 64, 65)),
    "quadrature.integrate_tau": (1, (48, 48, 40)),
}


def grid_points(label, args, kwargs):
    position, default = GRID_FUNCTIONS[label]
    rule = kwargs.get("rule", args[position] if len(args) > position else None)
    if rule is None:
        n1, n2, m = default
    elif hasattr(rule, "u_nodes"):
        n1, n2, m = rule.u_nodes.size, rule.v_nodes.size, rule.angular
    else:
        n1, n2, m = rule.r1_nodes.size, rule.r2_nodes.size, rule.angular
    return n1 * n2 * m * m


def _public_objects(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo = []
        self.counters = {"quadrature.grid_points": 0}

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_grid(self, fn, label):
        inner = self.wrap(fn, label)

        def traced(*args, **kwargs):
            self.counters["quadrature.grid_points"] += grid_points(label, args, kwargs)
            return inner(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_suite(self, fn):
        def traced(name, *args, **kwargs):
            idx = self._open(self._intern(f"verify.{name}"))
            try:
                return fn(name, *args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, package="hartogs"):
        """Wrap every public function and constructor of the traced modules."""
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in _public_objects(mod):
                label = f"{short}.{name}"
                if inspect.isclass(obj):
                    had = "__init__" in vars(obj)
                    self._undo.append((obj, "__init__", obj.__dict__.get("__init__"), had))
                    init = obj.__init__
                    obj.__init__ = self.wrap(getattr(init, "__wrapped__", init), label)
                elif label == "verify.run_suite":
                    wrappers[id(obj)] = self._wrap_run_suite(obj)
                elif label in GRID_FUNCTIONS:
                    wrappers[id(obj)] = self._wrap_grid(obj, label)
                else:
                    wrappers[id(obj)] = self.wrap(obj, label)
        # rebind at every module binding, including names imported with
        # ``from .specfun import gauss_2f1``
        for mod in mods + [sys.modules[package]]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((mod, attr, value, True))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, had in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def arrays(self):
        """The spans as numpy arrays: names, name ids, parents, start/end ns."""
        return (
            np.array(self.names, dtype=object),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def dump(self, path):
        names, nid, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=names.astype(str),
            name_id=nid,
            parent=parent,
            start_ns=start,
            end_ns=end,
            counters=json.dumps(self.counters),
        )


@contextlib.contextmanager
def traced(spans):
    """Record spans of the hartogs calls made inside the block into the
    file ``spans``; a no-op when it is None."""
    if spans is None:
        yield
        return
    tracer = Tracer()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        tracer.dump(spans)


def load(path):
    """(names, name_id, parent, start_ns, end_ns), counters of a dumped trace."""
    with np.load(path) as data:
        spans = (list(data["names"]), data["name_id"], data["parent"], data["start_ns"], data["end_ns"])
        return spans, json.loads(str(data["counters"]))


def summarize(names, name_id, parent, start, end):
    """Per-name calls, inclusive seconds, self seconds and span durations.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    dur = (end - start).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child
    out = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        out[name] = {
            "calls": int(np.count_nonzero(mask)),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_s[mask].sum()),
            "durations_s": dur[mask],
        }
    return out
