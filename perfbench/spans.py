"""Per-layer tracing installed from outside the library.

Nothing under ``src/`` knows about this module.  :func:`install_spans` replaces
each public function and method of the library's layer modules, at every place
it is bound (module globals, copies made by ``from ... import``, class
dictionaries), with a wrapper that records a span: name, start, end and
parent.  :func:`install_counters` instead counts constructions of the two
scalar types, which run millions of times and are too hot to span.  Counting
and spanning happen in separate passes so that neither distorts the other.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Library modules whose public callables are spanned; the layer of a span is
#: the last component of its module name.  ``scalars`` is counted instead.
SPANNED_MODULES = (
    "poly",
    "laurent",
    "ratfunc",
    "linalg",
    "rootsystem",
    "lie",
    "forms",
    "contact",
    "orbits",
    "sampling",
    "report",
    "cli",
)

#: Dunder methods that do arithmetic or serialization work; the rest
#: (``__hash__``, ``__bool__``, ``__setattr__``, ``__repr__``) are too trivial
#: to be worth a span and stay in their caller's self time.
SPANNED_DUNDERS = frozenset(
    (
        "__init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__neg__",
        "__pow__",
        "__truediv__",
        "__rtruediv__",
        "__eq__",
        "__str__",
    )
)

PACKAGE = "contactcheck"


class SpanRecorder:
    """Spans kept in flat arrays: 24 bytes each, written out at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def summary(self) -> Dict[str, float]:
        return summarize(
            [self.names[n] for n in self.name], self.start, self.end, self.parent
        )


def _callables(module) -> Iterable[Tuple[object, str, object, str]]:
    """Yield ``(owner, attribute, raw object, span name)`` to wrap in ``module``.

    Module-level public functions and the methods of public classes defined in
    ``module``; static methods are yielded raw so the caller can rewrap them.
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
            continue
        if isinstance(obj, type):
            for meth, raw in sorted(vars(obj).items()):
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(func) or isinstance(raw, (type, classmethod)):
                    continue
                if meth.startswith("_") and meth not in SPANNED_DUNDERS:
                    continue
                # ``__radd__ = __add__`` binds one function twice; name it once.
                yield obj, meth, raw, f"{layer}.{obj.__name__}.{func.__name__}"
        elif callable(obj):
            yield module, attr, obj, f"{layer}.{attr}"


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap every spanned callable wherever it is bound."""
    modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in SPANNED_MODULES]
    wrapped: Dict[int, Tuple[object, object]] = {}
    for module in modules:
        for owner, attr, raw, name in list(_callables(module)):
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if id(func) not in wrapped:
                wrapper = recorder.wrap(name, func)
                wrapped[id(func)] = (func, wrapper)
            wrapper = wrapped[id(func)][1]
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
    # Copies made by ``from module import name`` live in other modules' globals.
    for binder in [m for name, m in list(sys.modules.items()) if name.startswith(PACKAGE)]:
        for attr, obj in list(vars(binder).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(binder, attr, entry[1])


class ScalarCounter:
    """Exact construction counts of ``Fraction`` and ``GaussianRational``."""

    def __init__(self) -> None:
        self.fraction_new = 0
        self.gaussian_new = 0

    def counts(self) -> Dict[str, int]:
        return {
            "scalars.fraction_new": self.fraction_new,
            "scalars.gaussian_new": self.gaussian_new,
        }


def install_counters(counter: ScalarCounter) -> None:
    """Count every ``Fraction.__new__`` and ``GaussianRational.__init__`` call."""
    from contactcheck.scalars import GaussianRational

    fraction_new = Fraction.__new__
    gaussian_init = GaussianRational.__init__

    def counted_new(cls, *args, **kwargs):
        counter.fraction_new += 1
        return fraction_new(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counter.gaussian_new += 1
        gaussian_init(self, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)
    GaussianRational.__init__ = counted_init


def summarize(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, float]:
    """Aggregate spans into ``<name>.calls``, ``<name>.s`` and ``<layer>.self_s``.

    Span ``i`` is ``names[i]`` from ``starts[i]`` to ``ends[i]`` with parent
    index ``parents[i]`` (-1 for a root).  Spans are in start order, so a
    parent precedes its children.  A span's self time is its duration minus
    its children's durations.  A name's inclusive time counts only its
    outermost spans, so recursion is not counted twice.
    """
    child_time = [0.0] * len(names)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    open_stack: List[int] = []
    open_names: Dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(zip(names, starts, ends, parents)):
        while open_stack and open_stack[-1] != parent:
            open_names[names[open_stack.pop()]] -= 1
        duration = end - start
        self_key = f"{name.split('.', 1)[0]}.self_s"
        out[self_key] = out.get(self_key, 0.0) + duration - child_time[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if not open_names.get(name):
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        open_stack.append(i)
        open_names[name] = open_names.get(name, 0) + 1
    return out


#: Metric names whose span has another name; the rest are ``<span name>``.
SPAN_OF = {
    "poly.mul": "poly.MultiPoly.__mul__",
    "poly.gcd": "poly.poly_gcd",
    "laurent.mul": "laurent.LaurentPoly.__mul__",
    "ratfunc.new": "ratfunc.RationalFunction.__init__",
    "ratfunc.compose": "ratfunc.compose_rational",
    "rootsystem.build": "rootsystem.build_root_system",
    "lie.bracket": "lie.StructureConstants.bracket",
    "orbits.preserves_brackets": "orbits.AlgebraAutomorphism.preserves_brackets",
    "orbits.preserves_form": "orbits.AlgebraAutomorphism.preserves_form",
    "report.to_json": "report.Report.to_json",
}


def span_key(metric: str) -> str:
    """The summary key behind a per-layer metric, e.g. ``poly.gcd.s``."""
    stem, _, suffix = metric.rpartition(".")
    if suffix not in ("s", "calls"):
        return metric
    return f"{SPAN_OF.get(stem, stem)}.{suffix}"
