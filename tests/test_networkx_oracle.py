"""Plain containment, rainbow detection and plain Turan numbers against networkx.

networkx shares no code with the library: its graph atlas lists every
graph on at most 7 vertices up to isomorphism, VF2 subgraph
monomorphism (``GraphMatcher.subgraph_is_monomorphic``) decides whether a
host holds a pattern, edges not necessarily induced, VF2
(``is_isomorphic``) whether two graphs are isomorphic, Hopcroft-Karp
(``bipartite.maximum_matching``) whether the edges of a copy take
distinct colors, and Edmonds' blossom algorithm as networkx implements it
(``max_weight_matching`` with ``maxcardinality=True``) the matching
number.  This file is kept apart from helpers.py, which the
benchmark loads, so that the benchmark never imports networkx.
"""

import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from rturan import (
    Collection,
    Graph,
    canonical_form,
    contains_subgraph,
    find_rainbow_copy,
    matching_number_at_least,
    parse_pattern,
    rainbow_copy_exists,
    turan_exact,
    turan_extremal,
)
from rturan.collection import _exists_through_vertex, _plan

nx = pytest.importorskip("networkx")
from networkx.algorithms import bipartite  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match  # noqa: E402

ISOLATED = Graph.from_edges(4, [(0, 1), (1, 2)])  # P3 plus an isolated vertex


def _nx(g: Graph, anchor: int | None = None):
    """g as a networkx graph; with an anchor, node attribute ``a`` marks it."""
    h = nx.Graph()
    h.add_nodes_from((v, {"a": v == anchor}) for v in range(g.n))
    h.add_edges_from(g.edges())
    return h


def _holds(host, pattern) -> bool:
    return GraphMatcher(host, pattern).subgraph_is_monomorphic()


@cache
def _atlas(n: int) -> list:
    """The atlas graphs on n vertices, most edges first."""
    return sorted((g for g in nx.graph_atlas_g() if len(g) == n), key=lambda g: -g.number_of_edges())


def _atlas_ex(n: int, pattern) -> int:
    """ex(n, pattern) from the atlas: the most edges of an n-vertex graph
    with no copy, C(n, 2) when the pattern has more than n vertices."""
    return next(g.number_of_edges() for g in _atlas(n) if not _holds(g, pattern))


@pytest.mark.parametrize("name", ["K3", "K4", "P4", "P5", "K2,2", "S3", "M2", "M3", "P3+K1"])
def test_turan_numbers_match_the_graph_atlas(name):
    pattern = ISOLATED if name == "P3+K1" else parse_pattern(name)
    f = _nx(pattern)
    for n in range(1, 8):
        value, g = turan_extremal(n, pattern)
        assert value == turan_exact(n, pattern) == _atlas_ex(n, f), n
        assert (g.n, g.edge_count()) == (n, value) and not _holds(_nx(g), f), n


PATTERNS = [parse_pattern(s) for s in ("K2", "P3", "P4", "P5", "S3", "M2", "M3", "K3", "K2,2", "E3")] + [
    ISOLATED,
    Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # the paw
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_plain_containment_matches_networkx(seed):
    # G(n, p) hosts up to n = 30, past the brute-force oracle's n = 6
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    p = rng.random() * min(1.0, 6 / n)  # mean degree up to 6: hosts both with and without copies
    host = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    pattern = rng.choice(PATTERNS)
    assert contains_subgraph(host, pattern) == _holds(_nx(host), _nx(pattern))
    anchor = rng.randrange(n)
    anchored = _nx(host, anchor)
    match = categorical_node_match("a", False)
    through = any(
        GraphMatcher(anchored, _nx(pattern, w), node_match=match).subgraph_is_monomorphic() for w in range(pattern.n)
    )
    assert _exists_through_vertex(host.adj, _plan(pattern), anchor) is through


def _nx_rainbow(col: Collection, pattern: Graph) -> bool:
    """Some VF2 monomorphism of the pattern into the union of the colors
    whose image edges take distinct colors, decided by a maximum matching
    between those edges and the colors."""
    colors = {}  # host edge -> the colors holding it
    for c in range(1, col.t + 1):
        for e in col.graph(c).edges():
            colors.setdefault(e, []).append(c)
    union = nx.Graph()
    union.add_nodes_from(range(col.n))
    union.add_edges_from(colors)
    pedges = pattern.edges()
    seen = set()
    for mono in GraphMatcher(union, _nx(pattern)).subgraph_monomorphisms_iter():
        at = {w: v for v, w in mono.items()}  # pattern vertex -> host vertex
        image = tuple(sorted(tuple(sorted((at[a], at[b]))) for a, b in pedges))
        if image in seen:
            continue
        seen.add(image)
        sides = nx.Graph()
        sides.add_nodes_from(("edge", i) for i in range(len(image)))
        sides.add_edges_from((("edge", i), ("color", c)) for i, e in enumerate(image) for c in colors[e])
        matched = bipartite.maximum_matching(sides, top_nodes=[("edge", i) for i in range(len(image))])
        if len(matched) == 2 * len(image):
            return True
    return False


def test_rainbow_detection_matches_networkx():
    # seeded collections up to n = 12, past the brute-force oracle's n = 6,
    # sparse enough per color that copies are found and missed alike
    rng = random.Random(29)
    found = {True: 0, False: 0}
    for _ in range(200):
        n, t = rng.randint(1, 12), rng.randint(1, 5)
        p = rng.random() * min(1.0, 4 / n)
        col = Collection.from_edge_lists(
            n, [[(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p] for _ in range(t)]
        )
        pattern = rng.choice(PATTERNS)
        expected = _nx_rainbow(col, pattern)
        got = find_rainbow_copy(col, pattern)
        assert (got is not None) == expected == rainbow_copy_exists(col, pattern), (n, t, pattern)
        if got is not None:
            got.validate(col)
        found[expected] += 1
    assert min(found.values()) >= 50, found


def _from_nx(h) -> Graph:
    return Graph.from_edges(len(h), list(h.edges()))


def test_canonical_forms_match_networkx_isomorphism():
    # Regular graphs give degree refinement nothing to split, so their forms
    # rest on individualization.  Each is paired with a random relabelling
    # and with a copy under a few degree-preserving edge swaps: same degree
    # sequence, isomorphic or not.
    rng = random.Random(17)
    kinds = {True: 0, False: 0}
    for _ in range(40):
        d = rng.choice((3, 4, 5))
        n = rng.randrange(8, 31, 2) if d % 2 else rng.randrange(8, 31)
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
        perm = list(range(n))
        rng.shuffle(perm)
        swapped = nx.double_edge_swap(g.copy(), nswap=rng.randint(1, 3), max_tries=1000, seed=rng.randrange(2**32))
        for h in (nx.relabel_nodes(g, dict(enumerate(perm))), swapped):
            assert sorted(deg for _, deg in h.degree()) == sorted(deg for _, deg in g.degree())
            same = nx.is_isomorphic(g, h)
            assert (canonical_form(_from_nx(g)) == canonical_form(_from_nx(h))) is same, (d, n)
            kinds[same] += 1
    assert min(kinds.values()) >= 30, kinds


def test_matching_number_matches_networkx():
    # seeded G(n, p) up to n = 30, sparse enough that many leave vertices
    # unmatched; disjoint odd cliques, which each leave one vertex unmatched
    # and make the blossoms; and stars, whose matching number is 1
    rng = random.Random(31)
    hosts = []
    for _ in range(150):
        n = rng.randint(1, 30)
        p = rng.random() * min(1.0, 4 / n)
        hosts.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for sizes in ((3, 3), (5, 7), (9, 9), (1, 3, 5, 7, 9), (11, 13), (15, 15), (3,) * 10):
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        edges = [(a + u, a + v) for a, k in zip(starts, sizes) for u in range(k) for v in range(u + 1, k)]
        hosts.append(Graph.from_edges(sum(sizes), edges))
    hosts += [Graph.star(r) for r in (1, 2, 10, 29)]
    short = 0
    for g in hosts:
        nu = len(nx.max_weight_matching(_nx(g), maxcardinality=True))
        assert matching_number_at_least(g, nu) and not matching_number_at_least(g, nu + 1), g
        short += 2 * nu + 1 < g.n  # two or more vertices unmatched
    assert short >= 50, short
