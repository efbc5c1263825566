"""In-memory span recorder that instruments a program from the outside.

The recorder wraps functions and methods of already-imported modules.
Each call to a wrapped function becomes one span ``(index, name, start,
end, parent)``, with nanosecond ``perf_counter`` stamps and the index of
the enclosing span (``-1`` at top level).  A span's self time is its
duration minus the durations of its direct children, so self times over
all spans add up to the wall covered by top-level spans.

Functions are usually imported by name (``from ..crypto.hashing import
fast_hash``), so replacing the attribute on the defining module alone
misses most callers.  :meth:`SpanRecorder.patch_function` therefore
rebinds every module attribute, and every default argument of a function
or method in the instrumented packages, that holds the original object.
Methods are patched once on their class; instances created afterwards
(including bound methods stored as callbacks) go through the wrapper.

Nothing is recorded until a ``patch_*`` method installs a wrapper, and
:meth:`SpanRecorder.uninstall` puts every original object back.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Any, Callable, Iterable, Optional


@dataclass
class SpanStats:
    """Aggregates of all spans that share one name."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    #: Calls whose parent span belongs to another group (calls "from outside").
    outer_calls: int = 0
    outer_inclusive_ns: int = 0
    #: Quantity recorded by a measuring wrapper (bytes encoded), outer calls only.
    outer_quantity: int = 0


@dataclass
class SpanSummary:
    """Per-name aggregates plus the wall the recorder observed."""

    stats: dict[str, SpanStats] = field(default_factory=dict)
    #: Inclusive time by (parent name, name) for direct children.
    child_ns: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Wall covered by top-level spans.
    covered_ns: int = 0

    def get(self, name: str) -> SpanStats:
        """Aggregates for ``name`` (zeros if it was never called)."""
        return self.stats.get(name, SpanStats())

    def total(self, names: Iterable[str], attribute: str) -> int:
        """Sum of one aggregate over several span names."""
        return sum(getattr(self.get(name), attribute) for name in names)

    def child_inclusive_ns(self, parent: str, name: str) -> int:
        """Inclusive time of ``name`` spans called directly from ``parent``."""
        return self.child_ns.get((parent, name), 0)

    def self_ns_by_prefix(self, prefix: str) -> int:
        """Self time of every span whose name starts with ``prefix``."""
        return sum(s.self_ns for name, s in self.stats.items() if name.startswith(prefix))

    def signature(self) -> dict[str, tuple[int, int, int]]:
        """Deterministic part of the summary: counts and quantities only."""
        return {
            name: (s.calls, s.outer_calls, s.outer_quantity)
            for name, s in sorted(self.stats.items())
        }


class SpanRecorder:
    """Wraps functions, records spans, and restores the originals."""

    def __init__(self, packages: tuple[str, ...]) -> None:
        #: Module-name prefixes whose attributes and defaults are rebound.
        self.packages = packages
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Closed spans: (index, name id, start ns, end ns, parent index).
        self.spans: list[tuple[int, int, int, int, int]] = []
        #: Quantities recorded by measuring wrappers, by span index.
        self.quantities: dict[int, int] = {}
        self._stack: list[tuple[int, int]] = []
        self._ids = itertools.count()
        self._restore: list[Callable[[], None]] = []
        #: Targets that could not be found or wrapped (a failed check).
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        """Intern a span name."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def clear(self) -> None:
        """Drop every recorded span (the patches stay installed)."""
        if self._stack:
            raise RuntimeError("cannot clear the recorder while a span is open")
        self.spans.clear()
        self.quantities.clear()
        self._ids = itertools.count()

    def wrap(self, function: Callable[..., Any], name: str | Callable[..., str], *,
             reentrant: bool = True,
             measure: Optional[Callable[[Any], int]] = None) -> Callable[..., Any]:
        """A wrapper that records one span per call of ``function``.

        ``name`` is the span name, or a callable that computes it from the
        call's positional arguments (its results are interned, so it should
        return a small set of names).  With ``reentrant=False`` a call made
        directly from a span of the same name (recursion) is not recorded.
        ``measure`` maps the return value to a quantity stored with the span.
        """
        fixed_id = self.name_id(name) if isinstance(name, str) else None
        name_ids: dict[str, int] = {}
        stack = self._stack
        spans = self.spans
        quantities = self.quantities
        recorder = self
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            name_id = fixed_id
            if name_id is None:
                computed = name(*args)
                name_id = name_ids.get(computed)
                if name_id is None:
                    name_id = name_ids[computed] = recorder.name_id(computed)
            if not reentrant and stack and stack[-1][1] == name_id:
                return function(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = next(recorder._ids)
            stack.append((index, name_id))
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name_id, start, end, parent))
            if measure is not None:
                quantities[index] = measure(result)
            return result

        return functools.update_wrapper(traced, function)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _modules(self) -> list[ModuleType]:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith(self.packages)
        ]

    def patch_function(self, module_name: str, attribute: str, wrapper_of: Callable[
            [Callable[..., Any]], Callable[..., Any]], label: str) -> None:
        """Replace every binding of ``module.attribute`` in the packages."""
        module = sys.modules.get(module_name)
        original = getattr(module, attribute, None) if module is not None else None
        # A generator function returns before its body runs, so a span
        # around the call would time nothing; its process resumes are traced.
        if original is None or inspect.isgeneratorfunction(original):
            self.missing.append(label)
            return
        wrapper = wrapper_of(original)
        for candidate in self._modules():
            for key, value in list(vars(candidate).items()):
                if value is original:
                    setattr(candidate, key, wrapper)
                    self._restore.append(
                        lambda m=candidate, k=key: setattr(m, k, original))
                elif isinstance(value, type) and value.__module__.startswith(self.packages):
                    self._rebind_defaults(vars(value).values(), original, wrapper)
                elif isinstance(value, FunctionType):
                    self._rebind_defaults([value], original, wrapper)

    def _rebind_defaults(self, functions: Iterable[Any], original: Any, wrapper: Any) -> None:
        for function in functions:
            function = getattr(function, "__func__", function)
            if not isinstance(function, FunctionType) or not function.__defaults__:
                continue
            defaults = function.__defaults__
            if any(value is original for value in defaults):
                function.__defaults__ = tuple(
                    wrapper if value is original else value for value in defaults
                )
                self._restore.append(
                    lambda f=function, d=defaults: setattr(f, "__defaults__", d))

    def patch_method(self, module_name: str, qualname: str, wrapper_of: Callable[
            [Callable[..., Any]], Callable[..., Any]], label: str) -> None:
        """Replace ``Class.method`` (plain, class or static method) once."""
        module = sys.modules.get(module_name)
        class_name, _, method_name = qualname.partition(".")
        owner = getattr(module, class_name, None) if module is not None else None
        raw = vars(owner).get(method_name) if isinstance(owner, type) else None
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(wrapper_of(raw.__func__))
        elif isinstance(raw, FunctionType) and not inspect.isgeneratorfunction(raw):
            replacement = wrapper_of(raw)
        else:
            self.missing.append(label)
            return
        setattr(owner, method_name, replacement)
        self._restore.append(lambda: setattr(owner, method_name, raw))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------
    def summarize(self, group_of: Callable[[str], str],
                  windows: Optional[list[tuple[int, int]]] = None) -> SpanSummary:
        """Fold the recorded spans into per-name aggregates.

        With ``windows`` (sorted, disjoint ``perf_counter_ns`` intervals
        opened and closed outside every span) only spans inside one of
        them count.  ``group_of(name)`` decides which spans count as calls
        "from outside": a span's ``outer_calls`` counts only calls whose
        parent span is of another group (or absent).
        """
        spans = self.spans
        if windows is not None:
            lows = [low for low, _high in windows]
            spans = [
                span for span in spans
                if (slot := bisect.bisect_right(lows, span[2]) - 1) >= 0
                and span[3] <= windows[slot][1]
            ]
        name_of = self.names
        groups = [group_of(name) for name in name_of]
        duration = {index: end - start for index, _name, start, end, _parent in spans}
        name_by_index = {index: name_id for index, name_id, _s, _e, _p in spans}
        children: dict[int, int] = {}
        summary = SpanSummary()
        for index, name_id, start, end, parent in spans:
            if parent < 0:
                summary.covered_ns += duration[index]
            else:
                children[parent] = children.get(parent, 0) + duration[index]
        for index, name_id, start, end, parent in spans:
            name = name_of[name_id]
            stats = summary.stats.get(name)
            if stats is None:
                stats = summary.stats[name] = SpanStats()
            stats.calls += 1
            stats.inclusive_ns += duration[index]
            stats.self_ns += duration[index] - children.get(index, 0)
            if parent >= 0:
                pair = (name_of[name_by_index[parent]], name)
                summary.child_ns[pair] = summary.child_ns.get(pair, 0) + duration[index]
            if parent < 0 or groups[name_by_index[parent]] != groups[name_id]:
                stats.outer_calls += 1
                stats.outer_inclusive_ns += duration[index]
                stats.outer_quantity += self.quantities.get(index, 0)
        return summary

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans as JSON: a name table plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = sorted(self.spans)
        with path.open("w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["index", "name", "start_ns", "end_ns", "parent", "quantity"],
                    "names": self.names,
                    "spans": [
                        [index, name_id, start, end, parent, self.quantities.get(index, 0)]
                        for index, name_id, start, end, parent in rows
                    ],
                },
                handle,
                separators=(",", ":"),
            )
