"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each module attribute (or class attribute)
that a caller looks up when it enters a layer with a wrapper that times
the call, and ``uninstall()`` puts the originals back.  Several bindings
can feed one layer: ``search`` calls ``_exists_using_pair`` through its own
module namespace, ``cli`` calls ``extremal_min`` through its own, and so on,
so each of those bindings is wrapped.

Spans are aggregated per layer as they close (calls, inclusive time, self
time, and an outcome count), not kept one by one: the SDR kernel alone
closes about a million spans per pass.  Self time is a span's duration
minus the time of the wrapped calls made inside it.  A binding that a later
refactor removes is reported in ``absent`` and its layer reads zero; it
does not stop the run.
"""

from __future__ import annotations

import importlib
from time import perf_counter


# layer -> (bindings "module:attribute", outcome counted per call)
LAYERS = {
    "collection.anchored_detect": (
        ("search:_exists_using_pair", "collection:_exists_using_pair"),
        lambda r: 1 if r else 0,  # hit: a rainbow copy through the new edge exists
    ),
    "collection.sdr": (
        ("collection:assign_distinct_colors", "lemmas:assign_distinct_colors"),
        lambda r: 1 if r is None else 0,  # fail: Hall's condition fails
    ),
    "collection.matching_search": (
        ("collection:_matching_exists_with", "collection:_find_matching_witness"),
        None,
    ),
    "collection.detect": (
        (
            "collection:_exists",
            "collection:find_rainbow_copy",
            "lemmas:find_rainbow_copy",
            "cli:find_rainbow_copy",
        ),
        lambda r: 0 if r is None or r is False else 1,  # hit: a copy was found
    ),
    "collection.max_rainbow_matching": (("collection:max_rainbow_matching",), None),
    "lemmas.star_cover": (("lemmas:star_cover",), None),
    "lemmas.strong_color": (("lemmas:strong_color_exact",), None),
    "search.canonical_prefix": (
        ("search:_CollectionSearch.canonical_prefix",),
        lambda r: 0 if r else 1,  # reject: a smaller relabeling exists
    ),
    "search.dfs": (
        tuple(f"{module}:extremal_{mode}" for module in ("search", "cli") for mode in ("min", "sum", "prod"))
        + ("constructions:extremal_min", "constructions:extremal_sum"),
        lambda r: r.nodes,  # search nodes
    ),
    "search.orderly_check": (("search:_hits_pattern",), None),
    "graphcore.canonical": (("search:_canonical", "graphcore:_canonical"), None),
    "constructions.describe": (("constructions:describe",), None),
    "cli.verify": (("cli:main",), None),
}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "outcomes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.outcomes = 0


def _resolve(binding: str):
    """(owner object, attribute name) of "module:attr" or "module:Class.attr"."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module("rturan." + module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        # child time accumulated by each open span; the bottom entry is the caller
        self._open = [0.0]

    def reset(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._open = [0.0]

    def install(self):
        self.absent = []
        for layer, (bindings, outcome) in LAYERS.items():
            for binding in bindings:
                try:
                    owner, attr = _resolve(binding)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(binding)
                    continue
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, outcome))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn, outcome):
        tracer = self

        def traced(*args, **kwargs):
            stats = tracer.stats[layer]
            spans = tracer._open
            spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = spans.pop()
                spans[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if outcome is not None:
                stats.outcomes += outcome(result)
            return result

        return traced
