"""Outside tracer for fplab: wraps the public functions of each module from
the benchmark's side, so the program itself carries no tracing code.

Every public function and public method defined in a layer module is replaced
by a wrapper that records a span (name, start, end, parent).  Names a caller
bound with `from ... import` (for instance `build_field` in `fplab.suites` or
`symmetric_interval` in `fplab.energy`) are rebound to the same wrapper, so
those calls do not escape the trace.  Spans stay in memory until the run
ends; `summarize` turns them into self time and call counts per function and
per layer.  Pool workers forked after `install` record nothing: spans are
parent-only.
"""

import importlib
import inspect
import os
import sys
import time
from array import array

LAYERS = ("field", "sets", "energy", "geometry", "charsums", "bounds", "report", "suites", "cli")


class Tracer:
    """In-memory span recorder.  Span i is (names[i], starts[i], ends[i],
    parents[i]); parent -1 marks a root span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.active = True
        self._stack = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def spans(self):
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]


def _public(namespace):
    return [(k, v) for k, v in list(vars(namespace).items()) if not k.startswith("_")]


def install(tracer, package="fplab"):
    """Wrap every public function and method of the layer modules, then
    rebind every `from ... import` copy in the package.  Returns the sorted
    list of wrapped names (`layer.function`, `layer.Class.method`) and the
    rebound bindings (`module.name`)."""
    wrapped = {}  # id(original) -> (original, wrapper)
    names = []
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:
            continue  # a deleted module: its metrics read as missing
        for attr, obj in _public(mod):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                w = tracer.wrap(f"{layer}.{attr}", obj)
                wrapped[id(obj)] = (obj, w)
                setattr(mod, attr, w)
                names.append(f"{layer}.{attr}")
            elif inspect.isclass(obj):
                for mname, member in _public(obj):
                    qual = f"{layer}.{attr}.{mname}"
                    if inspect.isfunction(member):
                        setattr(obj, mname, tracer.wrap(qual, member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, mname, type(member)(tracer.wrap(qual, member.__func__)))
                    else:
                        continue
                    names.append(qual)
    rebound = []
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                rebound.append(f"{modname}.{attr}")
    # a forked pool worker inherits the wrappers; keep its spans out
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "active", False))
    return sorted(names), sorted(rebound)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(spans):
    """{name: [self_s, calls]} for every function and every layer."""
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        for key in (name, name.split(".", 1)[0]):
            acc = out.setdefault(key, [0.0, 0])
            acc[0] += own
            acc[1] += 1
    return out


def span_duration(spans, name):
    """Total duration of the spans with the given name."""
    return sum(end - start for n, start, end, _ in spans if n == name)
