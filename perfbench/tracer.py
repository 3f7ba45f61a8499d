"""Span tracing installed from outside the program.

A :class:`Tracer` replaces public functions, methods and module
attributes with thin wrappers that time each call.  Nothing under
``src/`` is edited: :meth:`Tracer.uninstall` puts every original back.

Every wrapped call opens a frame on one stack.  When it returns, its
duration is added to its parent's ``child_ns``, so a layer's *self
time* is its duration minus the part covered by wrapped calls beneath
it.  Per-name aggregates (calls, inclusive and self nanoseconds) are
kept for every layer.  Whole span records (name, start, end, parent,
request id) are kept in memory for every layer except the per-step
ones named in ``Tracer.per_step``, which would otherwise grow
by hundreds of thousands of records per second; those are aggregated
only.  :meth:`Tracer.write` dumps the records at the end of a run.

A call into a layer that is already the innermost open frame (a
subclass ``step`` calling ``super().step``, a tee recorder forwarding
to its sinks) is not split into a second frame; its time stays with
the outer call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional


class Tracer:
    """Timing wrappers, a frame stack, span records and aggregates."""

    def __init__(self):
        self._stack: List[list] = []  # [name, start, child_ns, span_id]
        self._next_id = 0
        #: Kept span records: (id, name, start, end, parent, request, child_ns).
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Inclusive durations of the layers named in ``keep_durations``.
        self.durations: Dict[str, List[int]] = defaultdict(list)
        self.keep_durations: set = set()
        #: Layers called once per interpreted step or more: aggregated,
        #: never kept as span records.
        self.per_step: set = set()
        #: Work counters filled by result hooks (steps, classes, ...).
        self.counters: Dict[str, float] = defaultdict(float)
        #: The request id the spans being opened belong to (serve/attack).
        self.request: Optional[int] = None
        self._patches: List[tuple] = []

    # -- the per-call path ---------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: Optional[Callable] = None) -> Any:
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = [name, 0, 0, self._next_id]
        stack.append(frame)
        frame[1] = start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            child = frame[2]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child
            if stack:
                stack[-1][2] += duration
            if name in self.keep_durations:
                self.durations[name].append(duration)
            if name not in self.per_step:
                parent = stack[-1][3] if stack else None
                self.spans.append((frame[3], name, start, end, parent,
                                   self.request, child))
        if hook is not None:
            hook(self, result, args)
        return result

    def _wrapper(self, name, original, hook=None, name_of=None):
        tracer = self

        if name_of is None:
            def traced(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, hook)
        else:
            def traced(*args, **kwargs):
                return tracer.call(name_of(args[0]), original, args, kwargs,
                                   hook)
        return functools.update_wrapper(traced, original)

    # -- installing ----------------------------------------------------------

    def wrap_function(self, func: Callable, name: str,
                      namespaces: Iterable[Any],
                      hook: Optional[Callable] = None) -> int:
        """Replace ``func`` wherever a namespace binds it (its defining
        module and every module that imported it by name)."""
        wrapper = self._wrapper(name, func, hook)
        patched = 0
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is func:
                    self._patches.append((namespace, attr, value, True))
                    setattr(namespace, attr, wrapper)
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: {func!r} is bound nowhere")
        return patched

    def wrap_methods(self, targets: Iterable[tuple],
                     hook: Optional[Callable] = None) -> None:
        """Wrap ``(cls, attr, name)`` triples.  Every original is looked
        up before any class is patched, so an inherited method is wrapped
        around the base's own function, not around another wrapper.
        ``name`` may be a callable mapping ``self`` to a layer name."""
        resolved = [(cls, attr, name, getattr(cls, attr))
                    for cls, attr, name in targets]
        for cls, attr, name, original in resolved:
            own = attr in cls.__dict__
            if callable(name):
                wrapper = self._wrapper(None, original, hook, name_of=name)
            else:
                wrapper = self._wrapper(name, original, hook)
            self._patches.append((cls, attr, cls.__dict__.get(attr), own))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------------

    def tally(self) -> Counter:
        """Calls per layer and the work counters, as one Counter."""
        return Counter(self.calls) + Counter(self.counters)

    def self_us_per(self, name: str, per: float) -> float:
        return self.self_ns.get(name, 0) / per / 1e3 if per else 0.0

    def write(self, path: str) -> None:
        """Write the kept span records and the aggregates as JSON."""
        doc = {
            "spans": [
                {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "request": request,
                 "self_ns": end - start - child}
                for sid, name, start, end, parent, request, child in self.spans
            ],
            "layers": {
                name: {"calls": self.calls[name],
                       "total_ns": self.total_ns[name],
                       "self_ns": self.self_ns[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def repro_modules(extra: Iterable[Any] = ()) -> List[Any]:
    """Every loaded ``repro`` module plus ``extra`` namespaces."""
    mods = [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]
    return mods + list(extra)
