"""In-process tracer for the per-layer run.

The tracer wraps the package's public functions where their callers look
them up (the attribute in every package module that holds the function)
and a fixed list of public methods on their classes. Nothing inside the
package changes; the wrappers are installed for a traced round and removed
again, so untraced rounds run the original code.

Three kinds of wrapper:

* span: records (name, id, parent id, start, end) in memory and adds its
  duration to the parent's child time, so self time is duration minus the
  part covered by child spans;
* leaf: the per-event counting scans, called millions of times on the
  discrete workload. Their time and calls are summed into the caller's span
  instead of one record each, which keeps memory bounded;
* count: calls (and an optional size) only, no timing; their cost stays in
  the caller's self time.

Private helpers (``_merged_plan``, ``_GroupSampler.draw``, the CLI chunk
workers) are never wrapped; their cost shows in the caller's self time.
Forked worker processes switch tracing off, so they are not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

PACKAGE = "mppcausal"
MODULES = ("trajectory", "compensator", "intervention", "simulate", "weights",
           "estimate", "oracle", "scenario", "cli")

LEAVES = {"trajectory.count_strictly_before", "trajectory.count_window"}

# (module, class, method, kind); intervention rules are listed per subclass
# because each defines its own ``events``
METHODS = (
    ("compensator", "CompensatorModel", "plan", "span"),
    ("compensator", "CompensatorModel", "mark_probs", "span"),
    ("compensator", "Predicate", "holds", "count"),
    ("trajectory", "Trajectory", "__init__", "count"),
    ("simulate", "RandomizerStream", "__init__", "span"),
    ("estimate", "OutcomeFunctional", "__call__", "span"),
    ("weights", "WeightPath", "at", "span"),
    ("intervention", "Static", "events", "span"),
    ("intervention", "Prevent", "events", "span"),
    ("intervention", "DelayedCopy", "events", "span"),
    ("intervention", "TriggeredAllocation", "events", "span"),
    ("intervention", "KernelAllocation", "events", "span"),
)

SIMULATORS = {"simulate.simulate_observed", "simulate.simulate_interventional",
              "simulate.simulate_joint"}


def _history_len(args, kwargs):
    return len(args[0].events)


def _events_arg_len(args, kwargs):
    events = args[2] if len(args) > 2 else kwargs["events"]
    return len(events)


# extra size counted per call, reported as ``Stat.size``
SIZES = {
    "trajectory.count_strictly_before": _history_len,
    "trajectory.count_window": _history_len,
    "trajectory.Trajectory.__init__": _events_arg_len,
}


class Stat:
    __slots__ = ("calls", "self_s", "size")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.size = 0


class Tracer:
    """Span store and per-name aggregates for one traced round."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self.active = False

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {n: Stat() for n in self.names}
        # flat records: name id, span id, parent id, start, end
        self.spans = array("d")
        self.leaf_by_parent: dict[tuple[str, str], list] = {}
        self.subjects: list[tuple[float, int]] = []  # (seconds, events)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        nid = self._intern(name)
        size = SIZES.get(name)
        simulator = name in SIMULATORS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][2] += d
                st = tracer.stats[name]
                st.calls += 1
                st.self_s += d - frame[2]
                tracer.spans.extend((nid, span_id, parent, t0, t1))
            if size is not None:
                tracer.stats[name].size += size(args, kwargs)
            if simulator:
                traj = result.observed if hasattr(result, "observed") else result[1]
                tracer.subjects.append((d, len(traj.events)))
            return result

        return wrapper

    def _leaf(self, name, fn):
        self._intern(name)
        size = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            d = perf_counter() - t0
            stack = tracer._stack
            parent = stack[-1][1] if stack else ""
            if stack:
                stack[-1][2] += d
            st = tracer.stats[name]
            st.calls += 1
            st.self_s += d
            if size is not None:
                st.size += size(args, kwargs)
            agg = tracer.leaf_by_parent.get((name, parent))
            if agg is None:
                agg = tracer.leaf_by_parent[(name, parent)] = [0, 0.0]
            agg[0] += 1
            agg[1] += d
            return result

        return wrapper

    def _count(self, name, fn):
        self._intern(name)
        size = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                st = tracer.stats[name]
                st.calls += 1
                if size is not None:
                    st.size += size(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every public function and listed method with a wrapper."""
        if self._patches:
            return
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = (self._leaf if name in LEAVES else self._span)(name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        for short, cls_name, meth, kind in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            wrap = {"span": self._span, "count": self._count}[kind]
            self._patch(cls, meth, wrap(name, fn))
        cli = modules["cli"]
        self._patch(cli, "ProcessPoolExecutor", self._pool(cli.ProcessPoolExecutor))

    def _pool(self, base):
        """Pool class whose lifetime, from creation to shutdown, is the span
        ``cli.pool_wait``: the parent only submits chunks and waits."""
        name = "cli.pool_wait"
        nid = self._intern(name)
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._frame = None
                if tracer.active:
                    span_id = tracer._next_id
                    tracer._next_id += 1
                    parent = tracer._stack[-1][0] if tracer._stack else 0
                    self._frame = [span_id, name, 0.0, parent, perf_counter()]
                    tracer._stack.append(self._frame)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    frame = self._frame
                    if frame is not None:
                        t1 = perf_counter()
                        tracer._stack.remove(frame)
                        d = t1 - frame[4]
                        if tracer._stack:
                            tracer._stack[-1][2] += d
                        st = tracer.stats[name]
                        st.calls += 1
                        st.self_s += d - frame[2]
                        tracer.spans.extend((nid, frame[0], frame[3], frame[4], t1))

        return TracedPool

    def _patch(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the columns, one
        line per span, then the leaf totals per (leaf, parent span name)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "id", "parent", "start", "end"]}))
            fh.write("\n")
            for i in range(0, len(self.spans), 5):
                nid, span_id, parent, t0, t1 = self.spans[i:i + 5]
                fh.write(f'["{self.names[int(nid)]}",{int(span_id)},{int(parent)},'
                         f"{t0!r},{t1!r}]\n")
            for (leaf, parent), (calls, secs) in sorted(self.leaf_by_parent.items()):
                fh.write(json.dumps({"leaf": leaf, "parent": parent, "calls": calls,
                                     "seconds": secs}))
                fh.write("\n")
