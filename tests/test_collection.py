"""Collection codec, rainbow detection, matchings, and the nesting transform."""

import random
from itertools import permutations

import pytest

from rturan import (
    Collection,
    FormatError,
    Graph,
    PatternFamily,
    RainbowMatching,
    RainbowWitness,
    RangeError,
    codec_read,
    codec_write,
    find_rainbow_copy,
    rainbow_copy_exists,
    is_rainbow_free,
    max_rainbow_matching,
    meshulam_collection,
    nest_transform,
    parse_pattern,
)

from rturan.collection import _plan, lexmin_distinct_colors

from helpers import explicit_rainbow_oracle, pattern_pool, random_collection

FAM = lambda *names: PatternFamily.from_graphs([parse_pattern(s) for s in names])
# perfect matchings not labelled as M2 (edge i = (2i, 2i+1))
RELABELLED_M2 = [Graph.from_edges(4, [(0, 3), (1, 2)]), Graph.from_edges(4, [(0, 2), (1, 3)])]


# -- codec ---------------------------------------------------------------


def test_codec_round_trip(tmp_path):
    col = meshulam_collection(5, 2, 3)
    path = tmp_path / "mesh.rcol"
    codec_write(col, str(path))
    assert codec_read(str(path)) == col


def test_codec_round_trip_random(tmp_path):
    rng = random.Random(42)
    for i in range(25):
        col = random_collection(rng, rng.randint(1, 8), rng.randint(1, 5))
        path = tmp_path / f"c{i}.rcol"
        codec_write(col, str(path))
        assert codec_read(str(path)) == col
        # writing is byte-stable
        first = path.read_bytes()
        codec_write(col, str(path))
        assert path.read_bytes() == first


def _write(tmp_path, text):
    p = tmp_path / "bad.rcol"
    p.write_text(text)
    return str(p)


def test_codec_loop_edge_is_format_error(tmp_path):
    p = _write(tmp_path, "rcol 1\nn 5\nt 1\ncolor 1\n4 4\nend\n")
    with pytest.raises(FormatError) as err:
        codec_read(p)
    assert err.value.line == 5


def test_codec_vertex_out_of_range(tmp_path):
    p = _write(tmp_path, "rcol 1\nn 3\nt 1\ncolor 1\n0 3\nend\n")
    with pytest.raises(RangeError):
        codec_read(p)


def test_codec_color_above_t(tmp_path):
    p = _write(tmp_path, "rcol 1\nn 3\nt 1\ncolor 1\ncolor 2\nend\n")
    with pytest.raises(RangeError):
        codec_read(p)


@pytest.mark.parametrize(
    "body",
    [
        "rcol 2\nn 3\nt 1\ncolor 1\nend\n",
        "rcol 1\nn 3\nt 1\ncolor 1\n0 1\n0 1\nend\n",  # duplicate edge
        "rcol 1\nn 3\nt 1\ncolor 1\n1 0\nend\n",  # order
        "rcol 1\nn 3\nt 2\ncolor 1\nend\n",  # missing color 2
        "rcol 1\nn 3\nt 1\ncolor 1\n",  # missing end
        "rcol 1\nn 3\nt 1\ncolor 1\nend\nx\n",  # content after end
        "rcol 1\nn 3\nt 1\n0 1\ncolor 1\nend\n",  # edge before header
        "rcol 1\nn \u00b2\nt 1\ncolor 1\nend\n",  # non-ASCII digit in n
        "rcol 1\nn 3\nt \u00b9\ncolor 1\nend\n",  # non-ASCII digit in t
        "rcol 1\nn 12\nt 1\ncolor 1\n+0 1_1\nend\n",  # int() would read (0, 11)
    ],
)
def test_codec_rejects_malformed(tmp_path, body):
    with pytest.raises(FormatError):
        codec_read(_write(tmp_path, body))


# -- detection -----------------------------------------------------------


def test_detect_needs_distinct_colors():
    tri = [(0, 1), (0, 2), (1, 2)]
    one = Collection.from_edge_lists(3, [tri])
    assert find_rainbow_copy(one, parse_pattern("K3")) is None
    three = Collection.from_edge_lists(3, [tri, tri, tri])
    w = find_rainbow_copy(three, parse_pattern("K3"))
    assert w is not None
    w.validate(three)
    # 21 edges: a matching that large would exceed the 30-vertex cap
    single = Collection([Graph.complete(7)])
    assert find_rainbow_copy(single, Graph.complete(7)) is None
    assert not rainbow_copy_exists(single, Graph.complete(7))
    assert is_rainbow_free(single, FAM("K7"))
    full = Collection([Graph.complete(7)] * 21)
    w = find_rainbow_copy(full, Graph.complete(7))
    assert w.vmap == tuple(range(7)) and w.cmap == tuple(range(1, 22))
    w.validate(full)


def test_detect_single_color_triangle_never_rainbow():
    col = Collection.from_edge_lists(3, [[(0, 1), (0, 2), (1, 2)], [], []])
    assert find_rainbow_copy(col, parse_pattern("K3")) is None


def test_detect_empty_collection():
    col = Collection.from_edge_lists(3, [[], [], []])
    assert find_rainbow_copy(col, parse_pattern("K2")) is None


def test_detect_edgeless_pattern_by_vertex_count():
    col = Collection.from_edge_lists(3, [[], []])
    assert find_rainbow_copy(col, parse_pattern("E3")) is not None
    assert find_rainbow_copy(col, parse_pattern("E4")) is None
    assert not is_rainbow_free(col, FAM("E1"))


def _lexmin_rainbow_copy(col, pat):
    """Brute force: the least (vmap, cmap) over all rainbow copies, or None."""
    pedges = pat.edges()
    best = None
    for vmap in permutations(range(col.n), pat.n):
        if not all(
            any(col.graph(c).has_edge(vmap[a], vmap[b]) for c in range(1, col.t + 1))
            for a, b in pedges
        ):
            continue
        for cmap in permutations(range(1, col.t + 1), len(pedges)):
            if all(
                col.graph(c).has_edge(vmap[a], vmap[b])
                for (a, b), c in zip(pedges, cmap)
            ):
                cand = (vmap, cmap)
                if best is None or cand < best:
                    best = cand
    return best


def test_witness_is_lexicographically_smallest():
    rng = random.Random(99)
    pats = pattern_pool(["K2", "P3", "M2", "K3", "S3"]) + RELABELLED_M2
    # 3-matchings: M3 takes the pair-subset path, the relabelled one the embedding
    three = pattern_pool(["M3"]) + [Graph.from_edges(6, [(0, 5), (1, 3), (2, 4)])]
    # the 120 small draws come first, as they always have
    draws = [
        (lambda: (random_collection(rng, rng.randint(2, 5), rng.randint(1, 3)), rng.choice(pats)), 120),
        (lambda: (random_collection(rng, 6, 3), rng.choice(three)), 40),
    ]
    for draw, wanted in draws:
        checked = 0
        while checked < wanted:
            col, pat = draw()
            w = find_rainbow_copy(col, pat)
            best = _lexmin_rainbow_copy(col, pat)
            if best is None:
                assert w is None
            else:
                assert w is not None and (w.vmap, w.cmap) == best
                checked += 1


def test_meshulam_collection_detection():
    col = meshulam_collection(6, 2, 3)
    assert is_rainbow_free(col, FAM("M3"))
    assert not is_rainbow_free(col, FAM("M2"))


def test_detector_matches_oracle_quick():
    rng = random.Random(2024)
    pats = pattern_pool(["K2", "P3", "P4", "S3", "M2", "K3", "E2"]) + RELABELLED_M2
    for _ in range(200):
        col = random_collection(rng, rng.randint(2, 6), rng.randint(1, 4))
        pat = rng.choice(pats)
        got = find_rainbow_copy(col, pat)
        assert (got is not None) == explicit_rainbow_oracle(col, pat)
        assert rainbow_copy_exists(col, pat) == (got is not None)
        if got is not None:
            got.validate(col)


ORBIT_PATTERNS = {
    s: parse_pattern(s) for s in ("K2", "P3", "P4", "P5", "S3", "S4", "M2", "K3", "K4", "K2,2", "K2,3")
}
ORBIT_PATTERNS["paw"] = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
ORBIT_PATTERNS["P4-relabelled"] = Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)])


@pytest.mark.parametrize("pattern", ORBIT_PATTERNS.values(), ids=ORBIT_PATTERNS.keys())
def test_plan_keeps_one_seed_per_automorphism_orbit(pattern):
    edges = {frozenset(e) for e in pattern.edges()}
    group = [
        p for p in permutations(range(pattern.n)) if {frozenset((p[a], p[b])) for a, b in edges} == edges
    ]
    arcs = [(a, b) for a, b in pattern.edges()] + [(b, a) for a, b in pattern.edges()]
    arc_orbits = {frozenset((p[a], p[b]) for p in group) for a, b in arcs}
    vertex_orbits = {frozenset(p[v] for p in group) for v in range(pattern.n)}

    plan = _plan(pattern)
    kept_arcs = [(a, b) for a, b, _ in plan.anchored]
    kept_vertices = [v for v, _, _ in plan.seeded]
    assert [need for _, need, _ in plan.seeded] == [pattern.degree(v) for v in kept_vertices]
    assert len(kept_arcs) == len(arc_orbits)
    assert len(kept_vertices) == len(vertex_orbits)
    assert {(p[a], p[b]) for p in group for a, b in kept_arcs} == set(arcs)
    assert {p[v] for p in group for v in kept_vertices} == set(range(pattern.n))


# -- maximum rainbow matching ---------------------------------------------


def test_max_matching_examples():
    empty = Collection.from_edge_lists(4, [[], []])
    size, m = max_rainbow_matching(empty)
    assert size == 0 and m.size == 0

    col = Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)]])
    size, m = max_rainbow_matching(col)
    assert size == 2
    m.validate(col)

    mesh = meshulam_collection(6, 2, 3)
    size, m = max_rainbow_matching(mesh)
    assert size == 2
    m.validate(mesh)


def test_max_matching_against_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        col = random_collection(rng, rng.randint(2, 6), rng.randint(1, 4))
        size, m = max_rainbow_matching(col)
        m.validate(col)
        # brute force: all vertex-disjoint edge sets with injective colors
        pairs = [
            (u, v)
            for u in range(col.n)
            for v in range(u + 1, col.n)
            if col.colors_of(u, v)
        ]
        best = 0

        def grow(idx, used, chosen):
            nonlocal best
            if len(chosen) > best:
                for cmap in permutations(range(1, col.t + 1), len(chosen)):
                    if all(col.graph(c).has_edge(u, v) for (u, v), c in zip(chosen, cmap)):
                        best = len(chosen)
                        break
            for j in range(idx, len(pairs)):
                u, v = pairs[j]
                if used & ((1 << u) | (1 << v)):
                    continue
                grow(j + 1, used | (1 << u) | (1 << v), chosen + [pairs[j]])

        grow(0, 0, [])
        assert size == best


def test_max_matching_witness_is_the_documented_one():
    # the least sorted pair tuple of maximum size, then its least injective
    # colors; every rainbow matching is enumerated here with no library kernel
    rng = random.Random(25)
    for _ in range(150):
        col = random_collection(rng, rng.randint(2, 6), rng.randint(1, 4), rng.choice((0.2, 0.4, 0.7)))
        pairs = [(u, v) for u in range(col.n) for v in range(u + 1, col.n) if col.colors_of(u, v)]

        def least_colors(chosen):
            for cmap in permutations(range(1, col.t + 1), len(chosen)):  # lexicographic
                if all(col.graph(c).has_edge(u, v) for (u, v), c in zip(chosen, cmap)):
                    return cmap
            return None

        matchings = [()]

        def grow(idx, used, chosen):
            for j in range(idx, len(pairs)):
                u, v = pairs[j]
                if not used >> u & 1 and not used >> v & 1 and least_colors(chosen + (pairs[j],)):
                    matchings.append(chosen + (pairs[j],))
                    grow(j + 1, used | 1 << u | 1 << v, chosen + (pairs[j],))

        grow(0, 0, ())
        top = max(len(m) for m in matchings)
        edges = min(m for m in matchings if len(m) == top)
        size, witness = max_rainbow_matching(col)
        assert (size, witness.edges, witness.colors) == (top, edges, least_colors(edges)), col


# -- nesting ---------------------------------------------------------------


def test_nest_examples():
    col = Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)]])
    out = nest_transform(col)
    assert out.graph(1).edges() == [(0, 1), (2, 3)]
    assert out.graph(2).edge_count() == 0

    col = Collection.from_edge_lists(3, [[(0, 1)], [], [(0, 1)]])
    out = nest_transform(col)
    assert out.colors_of(0, 1) == [1, 2]

    nested = Collection.from_edge_lists(4, [[(0, 1), (1, 2)], [(0, 1)]])
    assert nest_transform(nested) == nested


def test_nest_preserves_multiplicity_and_freeness():
    rng = random.Random(13)
    fam = FAM("K3", "M2")
    for _ in range(200):
        col = random_collection(rng, rng.randint(2, 6), rng.randint(1, 4))
        out = nest_transform(col)
        for u in range(col.n):
            for v in range(u + 1, col.n):
                assert len(col.colors_of(u, v)) == len(out.colors_of(u, v))
        for i in range(1, col.t):
            gi, gj = out.graph(i), out.graph(i + 1)
            assert all((gi.adj[v] | gj.adj[v]) == gi.adj[v] for v in range(col.n))
        if is_rainbow_free(col, fam):
            assert is_rainbow_free(out, fam)


def test_rainbow_matching_validation_rejects_bad():
    col = Collection.from_edge_lists(4, [[(0, 1), (0, 3)], [(2, 3)]])
    RainbowMatching(((0, 1), (2, 3)), (1, 2)).validate(col)
    for edges, colors, message in [
        (((0, 1), (1, 2)), (1, 2), "not vertex-disjoint"),  # shared vertex
        (((0, 0),), (1,), "not vertex-disjoint"),  # loop
        (((-1, 0),), (1,), "leave the host vertex set"),  # -1 must not read as vertex 3
        (((0, 4),), (1,), "leave the host vertex set"),
        (((0, 1), (2, 3)), (1,), "length mismatch"),
        (((0, 1), (2, 3)), (1, 1), "colors not injective"),  # repeated color
        (((0, 1),), (3,), r"color 3 outside 1\.\.2"),
        (((0, 1),), (2,), r"edge \(0, 1\) missing from color 2"),  # wrong color
    ]:
        with pytest.raises(ValueError, match=message):
            RainbowMatching(edges, colors).validate(col)


def test_rainbow_witness_validation_rejects_bad():
    col = Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)], [(1, 2)]])
    p3 = parse_pattern("P3")
    assert p3.edges() == [(0, 1), (1, 2)]
    RainbowWitness(p3, (0, 1, 2), (1, 3)).validate(col)
    for vmap, cmap, message in [
        ((0, 1), (1, 3), "vmap does not cover the pattern vertices"),
        ((0, 1, 1), (1, 3), "vmap not injective"),
        ((0, 1, 4), (1, 3), "vmap leaves the host vertex set"),
        ((0, 1, 2), (1,), "length mismatch"),
        ((0, 1, 2), (1, 1), "colors not injective"),
        ((0, 1, 2), (1, 4), r"color 4 outside 1\.\.3"),
        ((0, 1, 2), (3, 1), r"edge \(0, 1\) missing from color 3"),
    ]:
        with pytest.raises(ValueError, match=message):
            RainbowWitness(p3, vmap, cmap).validate(col)


@pytest.mark.parametrize("bad", [0, -1, True, 1.0, 3])
def test_graph_takes_only_int_colors_in_range(bad):
    # graph(0) and graph(-1) read color t through negative indexing, and
    # graph(True) color 1, unless the color is checked
    col = Collection.from_edge_lists(3, [[(0, 1)], [(1, 2)]])
    with pytest.raises(ValueError, match=rf"color {bad} outside 1\.\.2"):
        col.graph(bad)


@pytest.mark.parametrize("u, v", [(0, 5), (-1, 0), (2, -3), (True, 2), (0, 1.0)])
def test_colors_of_takes_only_host_vertices(u, v):
    col = Collection.from_edge_lists(3, [[(0, 1)], [(1, 2)]])
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        col.colors_of(u, v)
    assert col.colors_of(1, 2) == [2]


@pytest.mark.parametrize(
    "edges, colors, message",
    [
        (((True, 2),), (1,), "leave the host vertex set"),
        (((1.0, 2),), (1,), "leave the host vertex set"),
        (((1, 2),), (True,), r"color True outside 1\.\.2"),
    ],
)
def test_rainbow_matching_takes_only_int_vertices_and_colors(edges, colors, message):
    col = Collection.from_edge_lists(3, [[(1, 2)], [(0, 1)]])
    RainbowMatching(((1, 2),), (1,)).validate(col)
    with pytest.raises(ValueError, match=message):
        RainbowMatching(edges, colors).validate(col)


@pytest.mark.parametrize(
    "vmap, cmap, message",
    [
        ((0, True, 2), (1, 2), "vmap leaves the host vertex set"),
        ((0, 1.0, 2), (1, 2), "vmap leaves the host vertex set"),
        ((0, 1, 2), (True, 2), r"color True outside 1\.\.2"),
    ],
)
def test_rainbow_witness_takes_only_int_vertices_and_colors(vmap, cmap, message):
    col = Collection.from_edge_lists(3, [[(0, 1)], [(1, 2)]])
    p3 = parse_pattern("P3")
    RainbowWitness(p3, (0, 1, 2), (1, 2)).validate(col)
    with pytest.raises(ValueError, match=message):
        RainbowWitness(p3, vmap, cmap).validate(col)


def test_lexmin_distinct_colors_is_least_item_by_item_or_none():
    # item 0 cannot keep color 1, which item 1 needs; masks [1, 1] share
    # their one color, so no assignment exists
    assert lexmin_distinct_colors([0b11, 0b01]) == (2, 1)
    assert lexmin_distinct_colors([0b11, 0b110]) == (1, 2)
    assert lexmin_distinct_colors([1, 1]) is None
