"""Differential tests of the detection engine against brute force.

Random collections (n <= 6, t <= 4) come from seeds that Hypothesis draws,
derandomized, so every run checks the same inputs.  The rainbow oracles
are helpers.explicit_rainbow_oracle and _copy_through below; the plain
oracle tries every injective vertex map against the drawn edge set; the
color-assignment oracle tries every injective color map.  None of them
shares code with the engine.
"""

import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from rturan import Collection, Graph, contains_subgraph, matching_number_at_least, parse_pattern
from rturan.collection import _ColorMatching, _exists_through_vertex, _exists_using_pair

from helpers import explicit_rainbow_oracle

PATTERNS = [parse_pattern(s) for s in ("K2", "P3", "P4", "P5", "S3", "M2", "K3", "K2,2")] + [
    Graph.from_edges(4, [(0, 3), (1, 2)]),  # a perfect matching not labelled as M2
    Graph.from_edges(4, [(0, 1), (1, 2)]),  # P3 plus an isolated vertex
    # arcs in several orbits under a nontrivial automorphism group
    Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # the paw
    Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)]),  # P4 relabelled
]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def _with_edge(col: Collection, u: int, v: int, color: int, present: bool) -> Collection:
    lists = [set(col.graph(c).edges()) for c in range(1, col.t + 1)]
    (lists[color - 1].add if present else lists[color - 1].discard)((u, v))
    return Collection.from_edge_lists(col.n, [sorted(e) for e in lists])


def _copy_through(col: Collection, pattern: Graph, u: int, v: int, color) -> bool:
    """Brute force: a rainbow copy with some pattern edge on uv, in ``color``
    unless that is None."""
    pedges = pattern.edges()
    for vmap in permutations(range(col.n), pattern.n):
        on_uv = [{vmap[a], vmap[b]} == {u, v} for a, b in pedges]
        if not any(on_uv):
            continue
        for cmap in permutations(range(1, col.t + 1), len(pedges)):
            if all(col.graph(c).has_edge(vmap[a], vmap[b]) for (a, b), c in zip(pedges, cmap)) and any(
                hit and color in (None, c) for hit, c in zip(on_uv, cmap)
            ):
                return True
    return False


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_anchored_detector_matches_oracle(seed):
    rng = random.Random(seed)
    pattern = rng.choice(PATTERNS)
    # mostly hosts big enough to hold a copy; one color short now and then
    n, t = rng.randint(pattern.n, 6), rng.randint(pattern.edge_count() - 1, 4) or 1
    col = Collection.from_edge_lists(n, [_random_edges(rng, n) for _ in range(t)])
    edges = [(u, v, c) for c in range(1, t + 1) for u, v in col.graph(c).edges()]
    rng.shuffle(edges)

    def anchored(col, u, v, color):
        pair = rng.choice([(u, v), (v, u)])
        return _exists_using_pair(col.n, col.t, col.color_table(), col.union_rows(), pattern, pair, color)

    # against the definition: copies using uv in color c, or in any color;
    # pairs in several colors first, where the forced color matters
    for u, v, c in sorted(edges, key=lambda e: -len(col.colors_of(e[0], e[1])))[:3]:
        assert anchored(col, u, v, c) == _copy_through(col, pattern, u, v, c)
        assert anchored(col, u, v, None) == _copy_through(col, pattern, u, v, None)

    # the incremental rule of the searches: strip colored edges until no copy
    # is left, then put one (uv, c) back; the result minus (uv, c), and minus
    # uv in every color, is free, so it has a copy exactly when one runs
    # through (uv, c)
    stripped = []
    while explicit_rainbow_oracle(col, pattern):
        u, v, c = edges.pop()
        col = _with_edge(col, u, v, c, False)
        stripped.append((u, v, c))
    anywhere = [(u, v, c) for u in range(n) for v in range(u + 1, n) for c in range(1, t + 1)]
    u, v, c = rng.choice(stripped or anywhere)
    col = _with_edge(col, u, v, c, True)
    has_copy = explicit_rainbow_oracle(col, pattern)
    assert anchored(col, u, v, c) == has_copy
    assert anchored(col, u, v, None) == has_copy


def test_lone_rainbow_copy_is_found_through_every_edge_and_vertex():
    # the host is the pattern itself, edge i alone in color i: its copies
    # are its automorphisms, so each arc and vertex orbit must be searched
    for pattern in PATTERNS:
        edges = pattern.edges()
        col = Collection.from_edge_lists(pattern.n, [[e] for e in edges])
        table, union = col.color_table(), col.union_rows()
        for c, (u, v) in enumerate(edges, start=1):
            for pair in ((u, v), (v, u)):
                assert _exists_using_pair(pattern.n, col.t, table, union, pattern, pair, c)
        for anchor in range(pattern.n):  # the vertex check is plain: the pattern is its own host
            assert _exists_through_vertex(pattern.adj, pattern, anchor)


def _brute_contains(n: int, edges, pattern: Graph, through: int | None = None) -> bool:
    """A copy of the pattern among the edges, using vertex ``through`` if set."""
    edge_set = set(edges)
    pedges = pattern.edges()
    return any(
        (through is None or through in m) and all((min(m[a], m[b]), max(m[a], m[b])) in edge_set for a, b in pedges)
        for m in permutations(range(n), pattern.n)
    )


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_plain_containment_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    edges = _random_edges(rng, n)
    pattern = rng.choice(PATTERNS + [parse_pattern("E3")])
    host = Graph.from_edges(n, edges)
    assert contains_subgraph(host, pattern) == _brute_contains(n, edges, pattern)
    anchor = rng.randrange(n)
    through = _brute_contains(n, edges, pattern, anchor)
    assert _exists_through_vertex(host.adj, pattern, anchor) == through
    for k in range(1, 4):
        assert matching_number_at_least(host, k) == _brute_contains(n, edges, Graph.matching(k))


COLORS = 6


def _assignable(masks) -> bool:
    """Brute force: the items take pairwise distinct colors of their masks."""
    return any(
        all(m >> c & 1 for m, c in zip(masks, colors)) for colors in permutations(range(COLORS), len(masks))
    )


# a push of a color mask over 6 colors, or a backtrack dropping 1-3 items
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2**COLORS - 1)),
        st.tuples(st.just("drop"), st.integers(1, 3)),
    ),
    max_size=40,
)


@SETTINGS
@given(OPS)
def test_incremental_color_matching_matches_brute_force(ops):
    sdr = _ColorMatching()
    held: list[int] = []  # the masks the kernel should hold, oldest first
    for op, arg in ops:
        if op == "push":
            # at most 6 items fit, so the push after them is the 7th and fails
            assert sdr.push(arg) == _assignable(held + [arg])
            if _assignable(held + [arg]):
                held.append(arg)
        else:
            del held[max(len(held) - arg, 0):]
            sdr.truncate(len(held))
        # the live assignment: one held color per item, from its own mask
        assert sdr.masks == held
        assert len(sdr.bits) == len(held)
        assert len(set(sdr.bits)) == len(held)
        assert all(b.bit_count() == 1 and b & m for b, m in zip(sdr.bits, held))
        assert sdr.held == sum(sdr.bits)
