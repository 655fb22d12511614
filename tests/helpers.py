"""Shared test utilities: independent oracles and random instance generators.

The detector oracle here deliberately stays naive: it enumerates every
injective vertex embedding and every injective color assignment, so it
shares no code path with the library's matching-based detector.
"""

from __future__ import annotations

import random
from itertools import permutations
from types import SimpleNamespace

from rturan import Collection, Graph, parse_pattern


def explicit_rainbow_oracle(col: Collection, pattern: Graph) -> bool:
    """Brute force over embeddings x color injections."""
    if pattern.n > col.n:
        return False
    pedges = pattern.edges()
    held = colors_by_pair(col)
    for vmap in permutations(range(col.n), pattern.n):
        if not pedges:
            return True
        if not all(held[vmap[a]][vmap[b]] for a, b in pedges):
            continue
        for cmap in permutations(range(1, col.t + 1), len(pedges)):
            if all(c in held[vmap[a]][vmap[b]] for (a, b), c in zip(pedges, cmap)):
                return True
    return False


def colors_by_pair(col) -> list[list[set[int]]]:
    """held[a][b]: the colors c with ``col.graph(c).has_edge(a, b)`` (none
    for a = b), asked once per pair and color rather than per embedding."""
    graphs = [(c, col.graph(c)) for c in range(1, col.t + 1)]
    return [[{c for c, g in graphs if a != b and g.has_edge(a, b)} for b in range(col.n)] for a in range(col.n)]


def lex_greatest_sum_optimum(n: int, t: int, patterns) -> tuple[int, list[int]]:
    """The largest edge sum of a nested collection (color c holds the pairs
    of multiplicity at least c) with no rainbow copy of a pattern, and the
    lexicographically greatest multiplicity vector over the pairs in
    row-major order that attains it.

    Vectors are met in decreasing lexicographic order, each prefix checked by
    ``explicit_rainbow_oracle`` with the undecided pairs at 0.  Freeness
    survives deleting edges, so a prefix holding a rainbow copy has no free
    completion.  Only a larger sum replaces the best, so the vector kept is
    the first, and greatest, of the largest sum, and a prefix that cannot
    beat the best even with every later pair at t is passed over.  No
    library code runs: the collection is a plain view of the vector.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mult = dict.fromkeys(pairs, 0)
    colors = [SimpleNamespace(has_edge=lambda a, b, c=c: mult[min(a, b), max(a, b)] >= c) for c in range(t + 1)]
    view = SimpleNamespace(n=n, t=t, graph=colors.__getitem__)
    best = (-1, [])

    def grow(i: int, total: int):
        nonlocal best
        if total + t * (len(pairs) - i) <= best[0]:
            return
        if i == len(pairs):  # the check above left total > best
            best = (total, list(mult.values()))
            return
        for mu in range(t, -1, -1):
            mult[pairs[i]] = mu
            if not mu or not any(explicit_rainbow_oracle(view, f) for f in patterns):
                grow(i + 1, total + mu)
        mult[pairs[i]] = 0

    grow(0, 0)
    return best


def random_collection(rng: random.Random, n: int, t: int, p: float = 0.35) -> Collection:
    lists = []
    for _ in range(t):
        lists.append(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
    return Collection.from_edge_lists(n, lists)


def random_graph_rows(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def boosted_degree_collection(rng: random.Random, n: int, q: int) -> Collection:
    """Random collection where color i has at least i vertices of degree 2q-1."""
    t = rng.randint(q, q + 2)
    thr = 2 * q - 1
    lists = []
    for i in range(1, t + 1):
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.25
        }
        if i <= q:
            for h in rng.sample(range(n), i):
                others = [x for x in range(n) if x != h]
                rng.shuffle(others)
                for o in others[:thr]:
                    edges.add((min(h, o), max(h, o)))
        lists.append(sorted(edges))
    return Collection.from_edge_lists(n, lists)


SMALL_PATTERNS = ["K2", "P3", "P4", "S3", "M2", "K3"]
ORACLE_PATTERNS = ["K2", "P3", "P4", "P5", "S3", "S4", "M2", "M3", "K3", "K2,2", "E2", "E3"]


def pattern_pool(names) -> list[Graph]:
    return [parse_pattern(s) for s in names]
