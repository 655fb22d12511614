"""The three benchmark workloads: their inputs, their queries and the checks on each answer.

Every library call goes through a module attribute (``search.extremal_min``,
``collection.find_rainbow_copy``, ...) and never through a name imported
into this module, so the wrappers that ``spans.py`` installs on those
attributes see every call.

A workload's ``setup(seed)`` builds the query list.  The grids of ``search``
and ``turan`` are fixed; the seed drives only ``certify``'s random
collections.  Each query carries a zero-argument ``call`` (the timed part),
a ``summary`` of its answer (value, exact flag and nodes where they exist;
deterministic, so passes can be compared) and a ``check`` that returns a
list of problems with the answer, empty when it is correct.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from rturan import cli, collection, constructions, graphcore, lemmas, search  # noqa: E402


def _load_helpers():
    # loaded by path so that no other module named "tests" or "helpers" can shadow it
    spec = importlib.util.spec_from_file_location("rturan_bench_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


helpers = _load_helpers()
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass
class Query:
    label: str
    call: Callable[[], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any], list]
    exact: Callable[[Any], bool] = lambda result: True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]


# ---------------------------------------------------------------------
# search: exhaustive min/sum/prod searches and the search-backed verify suites

SEARCH_BUDGET = 200_000  # exact cases: every one finishes well inside it
N6_BUDGET = 20_000  # the n = 6 min cases are unsolved; they stop here
VERIFY_BUDGET = 1_000_000
VERIFY_SUITES = ("meshulam", "min-theorem", "sum-k3", "prod-matching", "sum-bipartite")


def _objective(mode: str, counts) -> int:
    if mode == "min":
        return min(counts)
    if mode == "sum":
        return sum(counts)
    prod = 1
    for c in counts:
        prod *= c
    return prod


def _extremal_query(mode: str, n: int, t: int, family_text: str, budget: int) -> Query:
    label = f"{mode} n={n} t={t} {family_text} budget={budget}"
    q = search.ExtremalQuery(mode, n, t, graphcore.parse_family(family_text), budget)
    expected = EXPECTED["search"][label]

    def call():
        return getattr(search, "extremal_" + mode)(q)

    def check(res) -> list:
        problems = []
        if res.exact and res.value != expected["value"]:
            problems.append(f"value {res.value}, the seed's exact value is {expected['value']}")
        w = res.witness
        if w is None or w.n != n or w.t != t:
            return problems + ["no witness on the query's host"]
        # the oracle shares no code with the library detector
        for f in q.family:
            if helpers.explicit_rainbow_oracle(w, f):
                problems.append(f"witness has a rainbow copy of {f!r}")
        got = _objective(mode, w.edge_counts())
        if (got < res.value) if mode == "min" else (got != res.value):
            problems.append(f"witness edge counts {w.edge_counts()} do not give {res.value}")
        return problems

    return Query(
        label,
        call,
        lambda res: {"value": res.value, "exact": res.exact, "nodes": res.nodes},
        check,
        lambda res: res.exact,
    )


def _verify_query(suite: str) -> Query:
    argv = ["verify", "--suite", suite, "--budget", str(VERIFY_BUDGET)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def summary(result):
        code, text = result
        return {"exit": code, "rows": [line.split()[-1] for line in text.splitlines()]}

    def check(result) -> list:
        # "boundary" rows pass, as the CLI itself treats them (exit 0)
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = summary(result)["rows"]
        if not rows or any(r not in ("match", "boundary") for r in rows):
            problems.append(f"row statuses {rows}")
        return problems

    return Query(f"verify --suite {suite}", call, summary, check)


def setup_search(seed: int) -> list:
    del seed  # fixed grid
    return [
        _extremal_query("min", 5, 3, "{K3}", SEARCH_BUDGET),
        _extremal_query("sum", 5, 4, "{K3}", SEARCH_BUDGET),
        _extremal_query("prod", 5, 3, "{P3}", SEARCH_BUDGET),
        _extremal_query("min", 6, 3, "{K3}", N6_BUDGET),
        _extremal_query("min", 6, 3, "{M3}", N6_BUDGET),
    ] + [_verify_query(s) for s in VERIFY_SUITES]


# ---------------------------------------------------------------------
# turan: plain Turan numbers by orderly generation

TURAN_BUDGET = 5_000_000  # extension attempts; far above what each case uses


def _closed_form(n: int, pattern: str) -> int:
    if pattern in ("K3", "K4"):  # Mantel / Turan: edges of the balanced (r-1)-partite graph
        parts = int(pattern[1]) - 1
        sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
        return (n * n - sum(s * s for s in sizes)) // 2
    if pattern == "P4":  # Faudree-Schelp: disjoint K_{k-1}'s plus one K_r, n = q(k-1) + r
        k = 4
        q, r = divmod(n, k - 1)
        return q * (k - 1) * (k - 2) // 2 + r * (r - 1) // 2
    if pattern == "K2,2" and n == 7:  # ex(7, C4) = 9, from the tabulated small values
        return 9
    raise KeyError((n, pattern))


def _turan_query(n: int, pattern: str) -> Query:
    f = graphcore.parse_pattern(pattern)
    expected = EXPECTED["turan"][f"ex({n},{pattern})"]["value"]
    closed = _closed_form(n, pattern)

    def check(value) -> list:
        problems = []
        if value != expected:
            problems.append(f"value {value}, the seed's value is {expected}")
        if value != closed:
            problems.append(f"value {value}, the closed form gives {closed}")
        return problems

    return Query(
        f"ex({n},{pattern})",
        lambda: search.turan_exact(n, f, TURAN_BUDGET),
        lambda value: {"value": value, "exact": True},
        check,
    )


def setup_turan(seed: int) -> list:
    del seed  # fixed grid
    return [_turan_query(7, "K3"), _turan_query(7, "K2,2"), _turan_query(7, "K4"), _turan_query(8, "P4")]


# ---------------------------------------------------------------------
# certify: one-shot detection, matchings and lemmas on larger hosts

MISS_N = 12
MISSES_PER_PATTERN = 8
# pattern, colors (one more than the nonempty ones, and equal to the pattern's
# edge count, so no rainbow copy can exist), edges per nonempty color
MISS_SPECS = (("P5", 4, 20), ("S4", 4, 20), ("M3", 3, 60))
POOL_COLLECTIONS = 13
STAR_COVERS = 12


def _witness_summary(w):
    return None if w is None else [list(w.vmap), list(w.cmap)]


def _free_query(cid: str, params: dict) -> Query:
    info = constructions.describe(cid, params)
    label = f"free {cid}[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]"
    if info.collection.edge_counts() != info.expected_counts:
        raise AssertionError(f"{label}: edge counts differ from the documented ones")
    return Query(
        label,
        lambda: collection.is_rainbow_free(info.collection, info.family),
        lambda free: free,
        lambda free: [] if free is True else ["a documented free construction has a rainbow copy"],
    )


def _one_empty_color(rng: random.Random, n: int, t: int, m: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    empty = rng.randrange(t)
    lists = [[] if c == empty else sorted(rng.sample(pairs, m)) for c in range(t)]
    return collection.Collection.from_edge_lists(n, lists)


def _miss_query(col, pattern: str) -> Query:
    f = graphcore.parse_pattern(pattern)
    nonempty = sum(1 for c in col.edge_counts() if c)
    if nonempty >= f.edge_count():
        raise AssertionError("a miss input must have fewer nonempty colors than pattern edges")
    # fewer nonempty colors than pattern edges: by pigeonhole there is no copy
    return Query(
        f"miss {pattern}",
        lambda: collection.find_rainbow_copy(col, f),
        _witness_summary,
        lambda w: [] if w is None else ["found a rainbow copy that cannot exist"],
    )


def _find_query(col, f) -> Query:
    def check(w) -> list:
        if w is None:
            return [] if not helpers.explicit_rainbow_oracle(col, f) else ["missed an existing copy"]
        try:
            w.validate(col)
        except ValueError as exc:
            return [f"invalid witness: {exc}"]
        return [] if w.pattern == f else ["witness for another pattern"]

    return Query(f"find {f!r}", lambda: collection.find_rainbow_copy(col, f), _witness_summary, check)


def _has_rainbow_matching(col, k: int) -> bool:
    """Brute force by color: each color gives one disjoint edge or none."""
    edges = [col.graph(c).edges() for c in range(1, col.t + 1)]

    def pick(c: int, used: int, need: int) -> bool:
        if need == 0:
            return True
        if col.t - c < need:
            return False
        for u, v in edges[c]:
            m = (1 << u) | (1 << v)
            if not used & m and pick(c + 1, used | m, need - 1):
                return True
        return pick(c + 1, used, need)

    return pick(0, 0, k)


def _matching_query(col) -> Query:
    def check(result) -> list:
        size, m = result
        try:
            m.validate(col)
        except ValueError as exc:
            return [f"invalid matching: {exc}"]
        if m.size != size:
            return ["size differs from the matching"]
        if _has_rainbow_matching(col, size + 1):
            return ["a larger rainbow matching exists"]
        return []

    return Query(
        "max_rainbow_matching",
        lambda: collection.max_rainbow_matching(col),
        lambda result: [result[0], [list(e) for e in result[1].edges], list(result[1].colors)],
        check,
    )


def _strong_oracle(col, i: int, s: int) -> bool:
    """Strong-color predicate from its definition, by brute force."""
    gi = [(1 << u) | (1 << v) for u, v in col.graph(i).edges()]
    if not gi:
        return False
    others = [c for c in range(1, col.t + 1) if c != i]
    edges = [
        (u, v)
        for u in range(col.n)
        for v in range(u + 1, col.n)
        if any(col.graph(c).has_edge(u, v) for c in others)
    ]
    for k in range(s + 1):
        for chosen in combinations(edges, k):
            used = 0
            for u, v in chosen:
                used |= (1 << u) | (1 << v)
            if used.bit_count() != 2 * k:
                continue
            rainbow = any(
                all(col.graph(c).has_edge(u, v) for (u, v), c in zip(chosen, colors))
                for colors in permutations(others, k)
            )
            if rainbow and all(m & used for m in gi):
                return False
    return True


def _strong_query(col, i: int) -> Query:
    return Query(
        f"strong_color_exact color={i} s=2",
        lambda: lemmas.strong_color_exact(col, i, 2),
        lambda strong: strong,
        lambda strong: [] if strong == _strong_oracle(col, i, 2) else ["disagrees with the definition"],
    )


def _star_query(col, v: int, p: int) -> Query:
    def check(sc) -> list:
        if sc.witness is not None:
            try:
                sc.witness.validate(col)
            except ValueError as exc:
                return [f"invalid star: {exc}"]
            ok = sc.witness.vmap[0] == v and sc.witness.pattern.edge_count() == p
            return [] if ok else ["witness is not an S_p at v"]
        if len(sc.cover) >= p or len(sc.exempt) >= p:
            return ["cover certificate too large"]
        cover = set(sc.cover)
        for u in range(col.n):
            if u == v or (min(u, v), max(u, v)) in cover:
                continue
            for c in col.colors_of(min(u, v), max(u, v)):
                if c not in sc.exempt:
                    return [f"color {c} on ({v},{u}) is neither exempt nor covered"]
        return []

    return Query(
        f"star_cover v={v} p={p}",
        lambda: lemmas.star_cover(col, v, p),
        lambda sc: [_witness_summary(sc.witness), [list(e) for e in sc.cover], list(sc.exempt)],
        check,
    )


def setup_certify(seed: int) -> list:
    rng = random.Random(seed)
    queries = [_free_query(cid, params) for cid, params in constructions.certification_grid()]
    for pattern, t, m in MISS_SPECS:
        for _ in range(MISSES_PER_PATTERN):
            queries.append(_miss_query(_one_empty_color(rng, MISS_N, t, m), pattern))
    pool = helpers.pattern_pool(helpers.ORACLE_PATTERNS)
    for k in range(POOL_COLLECTIONS):
        col = helpers.random_collection(rng, 12, 6, 0.1)
        queries += [_find_query(col, f) for f in pool]
        queries += [_matching_query(col), _strong_query(col, 1 + k % col.t)]
    for k in range(STAR_COVERS):
        # four colors cannot carry a rainbow S_5, so half the calls take the
        # Hall-deletion cover path; six colors usually give the star
        col = helpers.random_collection(rng, 15, 4 if k % 2 == 0 else 6, 0.35)
        queries.append(_star_query(col, rng.randrange(col.n), 5))
    return queries


# the same reasons as in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search",
            "Exact min/sum/prod searches, two budget-stopped n=6 min cases and five verify suites: "
            "search DFS, anchored detector, SDR kernel, canonical_prefix.",
            setup_search,
        ),
        Workload(
            "turan",
            "turan_exact by orderly generation, about 90% in graphcore._canonical; no colors, SDR or "
            "anchored detector, so detector changes should leave it unchanged.",
            setup_turan,
        ),
        Workload(
            "certify",
            "About 260 one-shot detections, matchings, strong colors and star covers on n=12..15 hosts: "
            "the detector and SDR of search, without its DFS or canonical forms.",
            setup_certify,
        ),
    )
}
