"""The benchmark's per-layer trace (bench/spans.py) wraps library names
given as "module:attr" strings.  A refactor that renames or removes one
leaves its layer reading zero without failing the run, so every binding
must still resolve, apart from the ones known to be absent."""

from pathlib import Path

from rturan import graphcore, search

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# bindings that no library module defines today
KNOWN_ABSENT = {"lemmas:assign_distinct_colors", "collection:_find_matching_witness"}


def _spans() -> dict:
    """bench/spans.py run from its source, so no bytecode cache is written
    next to it."""
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_trace_bindings_resolve():
    tracer = _spans()["Tracer"]()
    tracer.install()
    try:
        absent = set(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)


def test_canonical_cache_is_the_one_the_benchmark_clears():
    # bench/run.py clears this cache before each pass through
    # getattr(..., "cache_clear", lambda: None): a wrapper without it would
    # keep the forms of earlier passes and read as a faster turan workload
    assert callable(graphcore._canonical.cache_clear)
    assert search._canonical is graphcore._canonical
