"""In-memory span tracer that wraps annkit's public callables from outside.

Nothing in the package is edited. :meth:`Tracer.install` replaces every public
function and every public method of a public class defined in one of the
traced layers (annkit modules) with a wrapper that records a span. A function
imported by name into other modules (``batch_scores`` in ``flat``, ``ivf``,
``lsh`` and ``rpforest``, say) is replaced in each of them, so every call site
is seen. :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, count, tag]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``count`` the work the call was
handed or returned (rows scored, candidates ranked, ...), ``tag`` whatever the
benchmark set as the current phase and family when the span opened.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# annkit modules traced as layers. ``wire`` (one call per encoded field) and
# ``data`` (input generation) are left out: their calls are too fine-grained
# to wrap without the wrapper dominating, and their time is charged to the
# self time of the layer that calls them. ``bench``, ``cli`` and
# ``evaluation`` are not driven by the benchmark.
LAYERS = (
    "distances",
    "base",
    "flat",
    "ivf",
    "sq",
    "lsh",
    "rpforest",
    "kmeans",
    "pq",
    "hnsw",
    "persist",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counted at a layer boundary, from the call's arguments or its result.
COUNTERS = {
    "distances.batch_scores": lambda a, kw, r: len(r),  # rows scored
    "base.make_result": lambda a, kw, r: len(_arg(a, kw, 1, "ids")),  # candidates ranked
    "sq.sq_decode_batch": lambda a, kw, r: len(r),  # codes decoded
    "pq.adc_scores": lambda a, kw, r: len(r),  # codes scored
    "kmeans.assign_to_centroids": lambda a, kw, r: (  # point x centroid pairs
        len(_arg(a, kw, 0, "points")) * len(_arg(a, kw, 1, "centroids"))
    ),
    "rpforest.candidate_rows": lambda a, kw, r: len(r),  # deduplicated candidates
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag: tuple = ()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0, tracer.tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        done: set[tuple[type, str]] = set()
        for layer in LAYERS:
            mod = sys.modules[f"annkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, mod.__name__, obj, done)
        # Replace each wrapped function wherever it was imported by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "annkit" or mod_name.startswith("annkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _install_methods(
        self, layer: str, mod_name: str, cls: type, done: set[tuple[type, str]]
    ) -> None:
        # Methods inherited from a private base in the same module
        # (``_FlatIndex.search``) belong to the layer too.
        for klass in cls.__mro__:
            if klass.__module__ != mod_name:
                continue
            for attr, member in list(vars(klass).items()):
                if attr.startswith("_") or (klass, attr) in done:
                    continue
                done.add((klass, attr))
                name = f"{layer}.{attr}"
                if isinstance(member, (classmethod, staticmethod)):
                    new = type(member)(self._wrap(name, member.__func__))
                elif inspect.isfunction(member) and not getattr(
                    member, "__isabstractmethod__", False
                ):
                    new = self._wrap(name, member)
                else:
                    continue  # properties, enum members, abstract methods
                self._patch(klass, attr, new)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- aggregates

    def self_times(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def aggregate(self, key=lambda span: span[0]) -> dict:
        """calls, self_ns and count summed per key(span)."""
        table: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "count": 0})
        for span, self_ns in zip(self.spans, self.self_times()):
            row = table[key(span)]
            row["calls"] += 1
            row["self_ns"] += self_ns
            row["count"] += span[4]
        return dict(table)

    def root_ns(self, phase: str) -> int:
        """Wall time covered by root spans opened in one phase."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0 and s[5][0] == phase)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "count", "phase", "family"],
            "spans": [s[:5] + list(s[5]) for s in self.spans],
        }
