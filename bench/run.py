"""rturan benchmark: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (``src/rturan`` and ``tests/helpers.py``
must be there).  The workload runs in this single-threaded process: passes
over its query list repeat until ``--seconds`` have elapsed, each pass
starting with an empty canonical-form cache, as a fresh CLI invocation
would.  Every answer is checked (``workloads.py``) and every pass must give
the same answers as the first.

``--trace 0`` prints the end-to-end metrics: the median pass time, the
median and 95th percentile over the queries of each query's median latency,
set-up time (median of three cold interpreters), peak RSS and the shares of
queries that were exact and that passed.  Times are scaled to the speed of
a reference machine by ``speed.py``, because the host's own speed drifts by
up to 25% from one stretch of seconds to the next; the raw wall times are in
the detail line.  ``--trace 1`` alternates plain and traced passes and prints
the per-layer metrics of the traced ones (``spans.py``), each per pass, plus
the wall-time overhead of tracing; both kinds of pass must give identical
answers and node counts.

The last stdout line is the result object; the line before it holds the
environment, the seed and each query's answer.  Exit code 0 means a result
was printed; a run whose answers are wrong still exits 0 with
``"correct": false``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3

# one cold interpreter: import the library, build the workload's inputs
_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import run
print(run.setup(sys.argv[2], int(sys.argv[3]))[1])
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "turan", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int):
    """Import the library and build the workload's queries.

    Returns the queries and the time taken, scaled to the reference speed.
    """
    with SpeedProbe() as probe:
        t0 = perf_counter()
        import workloads

        queries = workloads.WORKLOADS[workload].setup(seed)
        elapsed = perf_counter() - t0 - probe.spent
    return queries, elapsed * probe.factor()


def _cold_setup_s(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(BENCH), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Pass:
    """One timed pass over the query list.

    With a probe, ``latencies`` exclude the probe's own time and are scaled
    to the reference machine speed (``speed.py``), and ``seconds`` is their
    sum; ``wall_s`` is the plain wall time.
    """

    def __init__(self, queries, clear_cache, probe=None):
        self.latencies = []
        self.results = []
        self.errors = []
        windows = []
        clear_cache()
        with probe or contextlib.nullcontext():
            start = perf_counter()
            for q in queries:
                first, spent0 = (len(probe.samples), probe.spent) if probe else (0, 0.0)
                t0 = perf_counter()
                try:
                    result, error = q.call(), None
                except Exception as exc:  # a failing query is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
                if probe:
                    elapsed -= probe.spent - spent0
                    windows.append((first, len(probe.samples)))
                self.latencies.append(elapsed)
                self.results.append(result)
                self.errors.append(error)
            self.wall_s = perf_counter() - start
        self.seconds = self.wall_s
        if probe:
            self.latencies = [x * probe.factor(*w) for x, w in zip(self.latencies, windows)]
            self.seconds = sum(self.latencies)

    def summaries(self, queries):
        return [
            {"error": e} if e is not None else q.summary(r)
            for q, r, e in zip(queries, self.results, self.errors)
        ]


def _check(queries, first: Pass) -> list:
    """Per-query problem lists of the first pass."""
    problems = []
    for q, r, e in zip(queries, first.results, first.errors):
        if e is not None:
            problems.append([e])
            continue
        try:
            problems.append(q.check(r))
        except Exception as exc:
            problems.append([f"check raised {type(exc).__name__}: {exc}"])
    return problems


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for need in (ROOT / "src" / "rturan" / "__init__.py", ROOT / "tests" / "helpers.py"):
        if not need.is_file():
            print(f"bench: {need.relative_to(ROOT)} not found; run from a source checkout", file=sys.stderr)
            return 2
    if os.environ.get("RTURAN_BUDGET"):
        # default_budget() reads it, which would silently change the workloads
        print("bench: RTURAN_BUDGET is set; unset it, every budget here is pinned", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        import workloads
        from spans import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced only for constructions.describe_s
        queries = workloads.WORKLOADS[args.workload].setup(args.seed)
        tracer.uninstall()
        describe_s = tracer.stats["constructions.describe"].total_s
        tracer.reset()
    else:
        tracer = None
        queries, first_setup_s = setup(args.workload, args.seed)
        setup_samples = [first_setup_s]
        setup_samples += [_cold_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        import workloads

    canonical = getattr(workloads.graphcore, "_canonical", None)
    clear_cache = getattr(canonical, "cache_clear", lambda: None)

    plain: list[Pass] = []
    traced: list[Pass] = []
    cache_hits = cache_misses = 0
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        if not tracer:
            plain.append(Pass(queries, clear_cache, SpeedProbe()))
            continue
        # alternate which kind goes first, so that drift does not bias the overhead
        if len(plain) % 2 == 0:
            plain.append(Pass(queries, clear_cache))
        tracer.install()
        try:
            traced.append(Pass(queries, clear_cache))
        finally:
            tracer.uninstall()
        info = getattr(canonical, "cache_info", None)
        if info is not None:
            cache_hits += info().hits
            cache_misses += info().misses
        if len(plain) < len(traced):
            plain.append(Pass(queries, clear_cache))

    summaries = plain[0].summaries(queries)
    problems = _check(queries, plain[0])
    for other in plain[1:] + traced:
        for i, s in enumerate(other.summaries(queries)):
            if s != summaries[i]:
                problems[i].append(f"a later pass answered {s}, the first {summaries[i]}")
    for q, p in zip(queries, problems):
        for text in p:
            print(f"bench: {q.label}: {text}", file=sys.stderr)
    for q, s in zip(queries, summaries):
        seed_nodes = workloads.EXPECTED.get(args.workload, {}).get(q.label, {}).get("nodes")
        if isinstance(s, dict) and seed_nodes is not None and s.get("nodes") != seed_nodes:
            print(f"bench: {q.label}: {s.get('nodes')} nodes, {seed_nodes} at the seed", file=sys.stderr)
    if tracer:
        for binding in tracer.absent:
            print(f"bench: trace boundary {binding} absent; its layer reads 0", file=sys.stderr)

    passes = plain + traced
    failed_queries = sum(1 for p in problems if p)
    failed = sum(
        1 for p in passes for i, e in enumerate(p.errors) if e is not None or problems[i]
    )
    attempted = len(queries) * len(passes)
    exact = sum(1 for q, r, e in zip(queries, plain[0].results, plain[0].errors) if e is None and q.exact(r))

    print(
        json.dumps(
            {
                "workload": args.workload,
                "why": workloads.WORKLOADS[args.workload].why,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": _environment(),
                "pass_wall_s": {"plain": [p.wall_s for p in plain], "traced": [p.wall_s for p in traced]},
                "pass_scaled_s": [p.seconds for p in plain],
                "answers": [[q.label, s] for q, s in zip(queries, summaries)],
            }
        )
    )

    if tracer:
        metrics = _layer_metrics(tracer, len(traced), describe_s, cache_hits, cache_misses)
        metrics["trace.overhead_frac"] = _metric(
            statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in plain) - 1.0,
            "frac",
        )
    else:
        # every pass runs the same queries: take each query's median over the
        # passes, then the percentiles over the queries
        typical_ms = [statistics.median(p.latencies[i] for p in plain) * 1000.0 for i in range(len(queries))]
        metrics = {
            "solve_s": _metric(statistics.median(p.seconds for p in plain), "s"),
            "query_p50_ms": _metric(_quantile(typical_ms, 0.5), "ms"),
            "query_p95_ms": _metric(_quantile(typical_ms, 0.95), "ms"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
            "exact_frac": _metric(exact / len(queries), "frac"),
            "passed_frac": _metric(1.0 - failed_queries / len(queries), "frac"),
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _layer_metrics(tracer, passes: int, describe_s: float, cache_hits: int, cache_misses: int) -> dict:
    st = tracer.stats

    def calls(layer):
        return _metric(st[layer].calls / passes, "count")

    def self_s(layer):
        return _metric(st[layer].self_s / passes, "s")

    def frac(layer):
        s = st[layer]
        return _metric(s.outcomes / s.calls if s.calls else 0.0, "frac")

    dfs = st["search.dfs"]
    metrics = {}
    for layer, outcome in (
        ("collection.anchored_detect", "hit_frac"),
        ("collection.sdr", "fail_frac"),
        ("search.canonical_prefix", "reject_frac"),
        ("collection.matching_search", None),
        ("graphcore.canonical", None),
        ("search.orderly_check", None),
        ("collection.detect", "hit_frac"),
    ):
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.self_s"] = self_s(layer)
        if outcome:
            metrics[f"{layer}.{outcome}"] = frac(layer)
    lookups = cache_hits + cache_misses
    metrics["graphcore.canonical.cache_hit_frac"] = _metric(cache_hits / lookups if lookups else 0.0, "frac")
    metrics["search.nodes"] = _metric(dfs.outcomes / passes, "count")
    # per second of traced search time, which includes the tracing overhead
    metrics["search.nodes_per_s"] = _metric(dfs.outcomes / dfs.total_s if dfs.total_s else 0.0, "1/s")
    metrics["search.dfs_self_s"] = self_s("search.dfs")
    for layer in ("collection.max_rainbow_matching", "lemmas.star_cover", "lemmas.strong_color"):
        metrics[f"{layer}.self_s"] = self_s(layer)
    metrics["cli.verify.self_s"] = self_s("cli.verify")
    metrics["constructions.describe_s"] = _metric(describe_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
