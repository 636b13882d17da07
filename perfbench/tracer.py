"""Spans around calls into ldpcontract, recorded from the benchmark's side.

A span is ``(id, parent, op, name, start, end)``: the operation index
ties the spans of one operation together, and the parent is the span
open on the calling thread, or, for a simulation worker thread, the span
open on the main thread that is waiting for it.  Spans stay in memory
and are written out once, when the traced pass ends.

Two kinds of wrapping:

* the benchmark's own call sites: every public function in the
  ``Lib`` namespaces the workloads call through;
* names the library looks up inside itself (``INNER``), patched in the
  module where the caller finds them, plus ``Channel.__post_init__``
  for validation.  A name a later change removes is reported as absent.

Self time is a span's duration minus the union of its children's
intervals, so overlapping worker-thread children are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import tracemalloc
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

MODULES = ("probability", "contraction", "mechanisms", "fisher", "minimax",
           "simulation", "rng", "serialize", "cli")

#: (module whose global is looked up, attribute, span name)
INNER = (
    ("mechanisms", "audit_ldp", "mechanisms.audit_ldp"),
    ("simulation", "stream", "rng.stream"),
    ("simulation", "hadamard_estimate", "mechanisms.hadamard_estimate"),
    ("simulation", "hadamard_response", "mechanisms.hadamard_response"),
    ("simulation", "simulate_bht", "simulation.simulate_bht"),
    ("cli", "emit_json", "serialize.emit_json"),
)


def _span_name(module: str, name: str):
    """Span name for a call site; some carry an argument so per-case costs separate."""
    base = f"{module}.{name}"
    if base == "contraction.eta_bruteforce":
        return lambda k, kind, *a, **kw: f"{base}.{kind.tag}"
    if base == "simulation.simulate_dist_estimation":
        return lambda cfg, *a, **kw: f"{base}.d{cfg.d}"
    if base == "cli.dispatch":
        return lambda argv, *a, **kw: f"cli.{argv[0]}.dispatch"
    return base


class Lib:
    """The public names of each ldpcontract module, as the workloads call them.

    Only names listed in a module's ``__all__`` are taken.
    """

    def __init__(self) -> None:
        self.modules = {m: importlib.import_module(f"ldpcontract.{m}") for m in MODULES}
        for m, mod in self.modules.items():
            setattr(self, m, SimpleNamespace(**{n: getattr(mod, n) for n in mod.__all__}))


class NullTracer:
    """Tracing off: a span is a plain call."""

    op = -1

    @staticmethod
    def span(_name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._main: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def _alloc_span(self, name: str, fn, *args, **kwargs):
        """A span with the peak of memory traced by tracemalloc during the call."""
        if tracemalloc.is_tracing():
            return self.span(name, fn, *args, **kwargs)
        tracemalloc.start()
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.alloc_peak[name] = max(self.alloc_peak[name], peak)

    def _wrap(self, name, fn, alloc: bool = False):
        record = self._alloc_span if alloc else self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return record(label, fn, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, name) -> None:
        if not hasattr(owner, attr):
            self.absent.append(name if isinstance(name, str) else attr)
            return
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, alloc=False))

    def install(self, lib: Lib) -> None:
        for m in MODULES:
            ns = getattr(lib, m)
            for attr, fn in list(vars(ns).items()):
                if inspect.isfunction(fn):
                    self._restore.append((ns, attr, fn))
                    setattr(ns, attr, self._wrap(_span_name(m, attr), fn,
                                                 alloc=(m, attr) == ("mechanisms", "audit_ldp")))
        for m, attr, name in INNER:
            self._patch(lib.modules[m], attr, name)
        self._patch(lib.probability.Channel, "__post_init__", "probability.Channel")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class SpanStats:
    """Counts, self times and wall times by span name, plus ancestry queries."""

    def __init__(self, spans: list[tuple]) -> None:
        self.by_id = {s[0]: s for s in spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _op, _name, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        for sid, _parent, _op, name, start, end in spans:
            inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
            self.calls[name] += 1
            self.wall_s[name] += end - start
            self.self_s[name] += (end - start) - _union_length([iv for iv in inside if iv[1] > iv[0]])

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.by_id.values() if s[3] == name]

    def direct(self, name: str) -> list[tuple]:
        """Spans called ``name`` made by a workload operation itself."""
        return [s for s in self.named(name)
                if s[1] is not None and self.by_id[s[1]][3] == "op"]

    def has_ancestor(self, span: tuple, prefix: str) -> bool:
        parent = span[1]
        while parent is not None:
            anc = self.by_id[parent]
            if anc[3].startswith(prefix):
                return True
            parent = anc[1]
        return False

    def count_under(self, name: str, ancestor_prefix: str) -> int:
        """Spans called ``name`` with an ancestor whose name starts with ``ancestor_prefix``."""
        return sum(self.has_ancestor(s, ancestor_prefix) for s in self.named(name))
