"""Pattern parsing, canonical labeling, derived families, bipartitions."""

import copy
import dataclasses
import hashlib
import pickle
import random
from itertools import combinations, permutations

import pytest

from rturan import (
    Collection,
    Graph,
    NotBipartite,
    ParseError,
    SizeError,
    PatternFamily,
    are_isomorphic,
    bipartition_min_class,
    canonical_form,
    contains_subgraph,
    family_covering,
    family_deleted_independent,
    matching_number_at_least,
    minimum_vertex_cover,
    parse_family,
    parse_pattern,
)

from helpers import random_graph_rows


# -- parsing -----------------------------------------------------------


def test_parse_basic_shapes():
    k3 = parse_pattern("K3")
    assert k3.n == 3 and k3.edge_count() == 3
    m2 = parse_pattern("M2")
    assert m2.n == 4 and m2.edge_count() == 2
    assert m2.has_edge(0, 1) and m2.has_edge(2, 3)
    sm = parse_pattern("S3+2M")
    assert sm.n == 8 and sm.edge_count() == 5
    assert all(sm.has_edge(0, leaf) for leaf in (1, 2, 3))
    assert sm.has_edge(4, 5) and sm.has_edge(6, 7)


def test_parse_fixed_labelings():
    s4 = parse_pattern("S4")
    assert s4.degree(0) == 4  # center is vertex 0
    kab = parse_pattern("K2,3")
    assert kab.n == 5 and kab.edge_count() == 6
    assert not kab.has_edge(0, 1) and not kab.has_edge(2, 3)
    p5 = parse_pattern("P5")
    assert p5.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    e4 = parse_pattern("E4")
    assert e4.n == 4 and e4.edge_count() == 0


@pytest.mark.parametrize(
    "bad", ["", "K", "Q3", "K0", "M0", "S0", "P0", "E0", "K3,", "S3+0M", "k3", "K3 ", "K-1"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_pattern(bad)


def test_parse_rejects_oversized():
    with pytest.raises(SizeError):
        parse_pattern("K31")
    with pytest.raises(SizeError):
        parse_pattern("M16")


NINES = "9" * 20


@pytest.mark.parametrize("text", [f"{form}{NINES}" for form in "KEMPS"] + [f"S3+{NINES}M", f"K2,{NINES}"])
def test_parse_rejects_an_oversized_numeral_before_building(text):
    # a numeral above the vertex cap raises at once instead of building its edge list
    with pytest.raises(SizeError):
        parse_pattern(text)


def test_parse_family():
    fam = parse_family("{K3,M2}")
    assert len(fam) == 2
    fam = parse_family("{K2,2,P4}")  # a comma before a digit continues K<a>,<b>
    assert fam.members == (parse_pattern("P4"), parse_pattern("K2,2"))
    with pytest.raises(ParseError):
        parse_family("{K3,}")
    with pytest.raises(ParseError):
        parse_family("K3,M2")
    with pytest.raises(ParseError):
        parse_family("{}")


# -- graph invariants --------------------------------------------------


def test_graph_validates_invariants():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # loops
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])  # bit beyond n-1
    with pytest.raises(SizeError):
        Graph(31, [0] * 31)
    p3, p4 = parse_pattern("P3"), parse_pattern("P4")
    for bad in ([0, 1, 0, 1], [0, 1, 2], [0, 1, 2, 4], [3, 2, 1, 0, 4]):
        with pytest.raises(ValueError, match="permutation"):
            p4.relabel(bad)  # not a permutation of 0..3
    for g, bad in ((p3, [0, 0]), (p4, [0, 7]), (p4, [-1, 2])):
        with pytest.raises(ValueError, match="distinct vertices"):
            g.induced(bad)
    assert p4.relabel([3, 2, 1, 0]) == p4 and p4.induced([2, 1, 0]) == p3


def test_graph_is_immutable_value():
    g = parse_pattern("K3")
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == Graph.complete(3)
    assert hash(g) == hash(Graph.complete(3))


# (its fields, make a value, make an equal one by another route, make a different one, its repr)
VALUES = {
    "graph": (
        ("n", "adj"),
        lambda: parse_pattern("P3"),
        lambda: Graph.from_edges(3, [(1, 2), (0, 1)]),
        lambda: Graph.path(4),
        "Graph(n=3, edges=[(0, 1), (1, 2)])",
    ),
    "collection": (
        ("graphs", "n", "t", "_table"),
        lambda: Collection.from_edge_lists(3, [[(0, 1)], [(0, 1), (1, 2)]]),
        lambda: Collection([Graph.from_edges(3, [(0, 1)]), parse_pattern("P3")]),
        lambda: Collection.from_edge_lists(3, [[(0, 1), (1, 2)], [(0, 1)]]),
        "Collection(n=3, t=2, edges=(1, 2))",
    ),
    "family": (
        ("members",),
        lambda: parse_family("{K3,M2}"),
        lambda: PatternFamily.from_graphs([Graph.complete(3), Graph.matching(2), parse_pattern("K3")]),
        lambda: parse_family("{K3}"),
        "PatternFamily([Graph(n=4, edges=[(0, 1), (2, 3)]), Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)])])",
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_value_types_are_immutable_and_compare_by_value(kind):
    fields, make, same, other, text = VALUES[kind]
    value = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == same() and hash(value) == hash(same())
    assert value != other() and value != repr(value)
    assert repr(value) == text


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_value_types_refuse_every_assignment_and_round_trip(kind):
    # a field name and a name that is not a field raise the same error
    fields, make, same, _, _ = VALUES[kind]
    value = make()
    for name in (fields[0], "color"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == same() and hash(copied) == hash(value) and repr(copied) == repr(value)


def test_collection_color_table_keeps_equality_and_hash():
    _, make, same, _, _ = VALUES["collection"]
    col = make()
    before = hash(col)
    assert col.color_table()[0][1] == 0b11
    assert hash(col) == before and col == same()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Collection([]), ValueError, "collection needs at least one color"),
        (lambda: Collection([Graph.edgeless(2), Graph.edgeless(3)]), ValueError, "all graphs must share"),
        (lambda: PatternFamily([]), ValueError, "family needs at least one member"),
        (lambda: Graph(3, [0, 0]), ValueError, "expected 3 adjacency rows, got 2"),
        (lambda: Graph(2, [0b10, 0]), ValueError, "asymmetric adjacency between 0 and 1"),
        (lambda: Graph.from_edges(3, [(1, 1)]), ValueError, r"loop \(1,1\)"),
        (lambda: Graph.from_edges(3, [(0, 3)]), ValueError, r"edge \(0,3\) outside 0..2"),
        (lambda: Graph(0, []), SizeError, "vertex count 0 outside 1..30"),
        (lambda: Graph(31, [0] * 31), SizeError, "vertex count 31 outside 1..30"),
        (lambda: Graph.complete(-1), SizeError, "vertex count -1 outside 1..30"),
        (lambda: Graph.complete_bipartite(-1, 3), SizeError, "part sizes -1 and 3 must not be negative"),
        (lambda: Graph.complete_bipartite(2, -1), SizeError, "part sizes 2 and -1 must not be negative"),
        (lambda: parse_pattern("P3").induced([]), ValueError, "induced subgraph needs at least one vertex"),
        # a bool end is no vertex although 0 <= True < n; a float one is no index
        (lambda: Graph.from_edges(3, [(True, 2)]), ValueError, r"edge \(True,2\) outside 0..2"),
        (lambda: Graph.from_edges(3, [(1.0, 2)]), ValueError, r"edge \(1.0,2\) outside 0..2"),
        # sizes: True would count as 1, a float would reach range() or a list repeat
        (lambda: Graph.star(True), ValueError, "graph sizes must be ints, got True"),
        (lambda: Graph.complete_bipartite(True, 1), ValueError, "graph sizes must be ints, got True, 1"),
        (lambda: Graph.matching(1.0), ValueError, "graph sizes must be ints, got 1.0"),
        (lambda: Graph.path(2.0), ValueError, "graph sizes must be ints, got 2.0"),
        (lambda: Graph.star_plus_matching(2, True), ValueError, "graph sizes must be ints, got 2, True"),
        (lambda: Graph.from_edges(2.0, []), ValueError, "graph sizes must be ints, got 2.0"),
    ],
)
def test_value_type_constructor_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: g.has_edge(-1, 1), r"pair \(-1,1\) outside 0..2"),  # read vertex 2's row
        (lambda g: g.has_edge(2, -3), r"pair \(2,-3\) outside 0..2"),  # negative shift count
        (lambda g: g.has_edge(0, 5), r"pair \(0,5\) outside 0..2"),  # answered False
        (lambda g: g.has_edge(True, 2), r"pair \(True,2\) outside 0..2"),
        (lambda g: g.degree(-1), "vertex -1 outside 0..2"),  # read vertex 2's row
        (lambda g: g.degree(5), "vertex 5 outside 0..2"),  # IndexError
        (lambda g: g.degree(1.0), "vertex 1.0 outside 0..2"),
        (lambda g: family_covering(g, True), "p=True is not an int"),  # taken as 1
        (lambda g: family_covering(g, 1.5), "p=1.5 is not an int"),
        (lambda g: matching_number_at_least(g, True), "k=True is not an int"),  # taken as 1
    ],
)
def test_graph_queries_take_int_vertices_and_sizes_only(call, message):
    with pytest.raises(ValueError, match=message):
        call(Graph.path(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Graph.path(3).induced([0.5]),
        lambda: Graph.path(3).induced([1.0, 2]),
        lambda: Graph.path(3).induced([True, 2]),
        lambda: Graph.path(3).relabel([0.0, 2.0, 1.0]),
        lambda: Graph.path(2).relabel([True, False]),
    ],
)
def test_relabel_and_induced_take_int_vertices_only(call):
    # floats equal to ints and bools pass range and permutation checks
    with pytest.raises(ValueError, match="distinct vertices|permutation"):
        call()


def test_graph_checks_its_field_types():
    for n, rows in ((2.0, [0, 0]), (2, [0.0, 0]), (2, [False, False])):
        with pytest.raises(ValueError, match="vertex count and rows must be ints"):
            Graph(n, rows)
    with pytest.raises(ValueError, match="must be ints"):
        Graph.edgeless(True)


def test_collection_checks_its_field_types():
    with pytest.raises(ValueError, match="collection colors must be Graphs"):
        Collection([1, 2])
    with pytest.raises(ValueError, match="collection colors must be Graphs"):
        Collection([Graph.edgeless(2), "K2"])


def test_pattern_family_checks_its_field_types():
    with pytest.raises(ValueError, match="family members must be Graphs"):
        PatternFamily(("K3",))
    with pytest.raises(ValueError, match="family members must be Graphs"):
        PatternFamily([Graph.complete(3), None])


def test_relabel_and_induced_match_edge_sets():
    # induced subsets are unsorted and rarely a prefix of 0..n-1
    rng = random.Random(0x1D)
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_graph_rows(rng, n, rng.choice([0.2, 0.5, 0.8]))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1}
        perm = rng.sample(range(n), n)
        h = g.relabel(perm)
        assert h.n == n
        assert {(u, v) for u in range(n) for v in range(u + 1, n) if h.adj[u] >> v & 1} == {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        }
        vs = rng.sample(range(n), rng.randint(1, n))
        pos = {v: i for i, v in enumerate(sorted(vs))}
        h = g.induced(vs)
        assert h.n == len(vs)
        assert {(u, v) for u in range(h.n) for v in range(u + 1, h.n) if h.adj[u] >> v & 1} == {
            (pos[u], pos[v]) for u, v in edges if u in pos and v in pos
        }


# -- canonical labeling ------------------------------------------------


# sha256 over canonical_form of every labelled graph on 1..5 vertices (1,099
# graphs), then, for 400 seeded random graphs on 6..15 vertices, the form and
# the rows of one random relabel and one random induced subgraph
PINNED_FORMS_SHA256 = "726b5fff44228a6a6e5fbb7b7234a4cb0a29b7f7d16fde29019bf5a45e6d1a20"


def test_canonical_forms_relabel_and_induced_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            digest.update(canonical_form(Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])))
    rng = random.Random(0xF0F0)
    for _ in range(400):
        n = rng.randint(6, 15)
        g = random_graph_rows(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = rng.sample(range(n), n)
        vs = rng.sample(range(n), rng.randint(1, n))
        digest.update(canonical_form(g))
        digest.update(repr((g.relabel(perm).adj, g.induced(vs).adj)).encode())
    assert digest.hexdigest() == PINNED_FORMS_SHA256


def test_canonical_respects_isomorphism_500_pairs():
    rng = random.Random(0xC0FFEE)
    for _ in range(500):
        n = rng.randint(1, 9)
        g = random_graph_rows(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_separates_degree_distinguished_500_pairs():
    rng = random.Random(0xBEEF)
    done = 0
    while done < 500:
        n = rng.randint(2, 9)
        g = random_graph_rows(rng, n, 0.4)
        h = random_graph_rows(rng, n, 0.4)
        if sorted(g.degree(v) for v in range(n)) == sorted(h.degree(v) for v in range(n)):
            continue
        assert canonical_form(g) != canonical_form(h)
        done += 1


def test_canonical_agrees_with_brute_force_on_all_4_vertex_graphs():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    graphs = []
    for mask in range(64):
        graphs.append(Graph.from_edges(4, [e for i, e in enumerate(pairs) if mask >> i & 1]))

    def brute_iso(g, h):
        return any(g.relabel(p).adj == h.adj for p in permutations(range(4)))

    for g in graphs[::3]:
        for h in graphs[::5]:
            assert brute_iso(g, h) == (canonical_form(g) == canonical_form(h))


def _brute_isomorphic(n, a, b):
    """Permutation brute force on raw adjacency rows (no library code)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if a[u] >> v & 1]
    if len(edges) != sum(bin(r).count("1") for r in b) // 2:
        return False
    return any(all(b[p[u]] >> p[v] & 1 for u, v in edges) for p in permutations(range(n)))


def test_canonical_counts_graphs_up_to_isomorphism():
    # OEIS A000088: unlabelled graphs on n = 1..6 vertices
    for n, classes in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        pairs = list(combinations(range(n), 2))
        forms = {
            canonical_form(Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))
            for mask in range(1 << len(pairs))
        }
        assert len(forms) == classes, n


def test_canonical_agrees_with_brute_force_on_degree_equal_pairs():
    # h is g after 0 or 6 tried degree-preserving double-edge swaps and a relabelling,
    # so degree sequences always agree and only the structure can tell
    rng = random.Random(0xD15C)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(5, 7)
        g = random_graph_rows(rng, n, rng.choice([0.3, 0.5]))
        rows = list(g.adj)
        for _ in range(rng.choice((0, 6, 6, 6))):
            edges = [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]
            if len(edges) < 2:
                break
            (a, b), (c, d) = rng.sample(edges, 2)
            if len({a, b, c, d}) < 4 or rows[a] >> d & 1 or rows[c] >> b & 1:
                continue
            for u, v in ((a, b), (c, d)):
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            for u, v in ((a, d), (c, b)):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, rows).relabel(perm)
        assert sorted(g.degree(v) for v in range(n)) == sorted(h.degree(v) for v in range(n))
        iso = _brute_isomorphic(n, g.adj, h.adj)
        assert (canonical_form(g) == canonical_form(h)) == iso
        outcomes[iso] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_large_legal_patterns_parse_and_canonicalize():
    # patterns up to the 30-vertex cap with large symmetric cells
    for text, members in (
        ("{M15}", 1),
        ("{P30}", 1),
        ("{S9+10M}", 1),
        ("{K15,15}", 1),
        ("{M7,P15}", 2),
    ):
        assert len(parse_family(text)) == members, text
    m15 = parse_pattern("M15")
    perm = list(range(30))
    random.Random(15).shuffle(perm)
    assert canonical_form(m15.relabel(perm)) == canonical_form(m15)


def test_canonical_handles_symmetric_families():
    assert are_isomorphic(Graph.complete(12), Graph.complete(12).relabel(list(range(11, -1, -1))))
    a = Graph.complete_bipartite(5, 7)
    perm = list(range(12))
    random.Random(3).shuffle(perm)
    assert are_isomorphic(a, a.relabel(perm))
    assert not are_isomorphic(parse_pattern("K3"), parse_pattern("P3"))
    assert not are_isomorphic(parse_pattern("E2"), parse_pattern("E3"))


# -- derived families --------------------------------------------------


def test_family_deleted_independent_examples():
    fam = family_deleted_independent(parse_pattern("K3"))
    assert {(g.n, g.edge_count()) for g in fam} == {(3, 3), (2, 1)}

    fam = family_deleted_independent(parse_pattern("K2"))
    # deleting one endpoint leaves one vertex; deleting both is not independent
    assert {(g.n, g.edge_count()) for g in fam} == {(2, 1), (1, 0)}

    fam = family_deleted_independent(parse_pattern("M2"))
    # isolated vertices are stripped from edge-bearing members
    assert {(g.n, g.edge_count()) for g in fam} == {(4, 2), (2, 1), (2, 0)}


def test_family_deleted_contains_every_deletion_result():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        f = random_graph_rows(rng, n, 0.45)
        if f.edge_count() == 0:
            continue
        fam = family_deleted_independent(f)
        keys = {canonical_form(g) for g in fam}
        for size in range(n):
            for vs in combinations(range(n), size):
                mask = sum(1 << v for v in vs)
                if any(f.adj[v] & mask for v in vs):
                    continue
                keep = [v for v in range(n) if v not in vs]
                if not keep:
                    continue
                sub = f.induced(keep)
                if sub.edge_count() > 0:
                    touched = [v for v in range(sub.n) if sub.adj[v]]
                    sub = sub.induced(touched)
                else:
                    sub = Graph.edgeless(sub.n)
                assert canonical_form(sub) in keys


def _deletion_results(f: Graph) -> set[bytes]:
    """Canonical forms of f minus each independent vertex set, by brute
    force, edge-bearing results stripped of isolated vertices."""
    keys = set()
    for size in range(f.n):
        for vs in combinations(range(f.n), size):
            mask = sum(1 << v for v in vs)
            if any(f.adj[v] & mask for v in vs):
                continue
            sub = f.induced([v for v in range(f.n) if v not in vs])
            if sub.edge_count() > 0:
                sub = sub.induced([v for v in range(sub.n) if sub.adj[v]])
            keys.add(canonical_form(sub))
    return keys


def test_family_deleted_holds_exactly_the_deletion_results():
    # both directions: every member is f minus some independent set, and
    # every such deletion is a member; all graphs on up to 5 vertices, then
    # random ones on 6 and 7
    graphs = []
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1, 1 << len(pairs)):
            graphs.append(Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    rng = random.Random(17)
    graphs += [random_graph_rows(rng, rng.randint(6, 7), 0.45) for _ in range(30)]
    for f in graphs:
        if f.edge_count() == 0:
            continue
        members = [canonical_form(g) for g in family_deleted_independent(f)]
        assert len(set(members)) == len(members)
        assert set(members) == _deletion_results(f), f


def test_family_covering_examples():
    fam = family_covering(parse_pattern("P4"), 1)
    assert len(fam) == 1 and fam.members[0] == Graph.complete(2)

    fam = family_covering(parse_pattern("P4"), 2)
    assert {(g.n, g.edge_count()) for g in fam} == {(2, 1), (2, 0)}

    fam = family_covering(parse_pattern("S3"), 1)
    assert {(g.n, g.edge_count()) for g in fam} == {(1, 0)}

    with pytest.raises(ValueError, match="p must be at least 1"):
        family_covering(parse_pattern("P3"), 0)
    with pytest.raises(ValueError, match="pattern must have at least one edge"):
        family_covering(parse_pattern("E3"), 1)


def test_family_covering_clique_exactly_when_no_small_cover():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 7)
        f = random_graph_rows(rng, n, 0.4)
        if f.edge_count() == 0:
            continue
        p = rng.randint(1, 3)
        fam = family_covering(f, p)
        expects_clique = minimum_vertex_cover(f) > p
        is_clique = len(fam) == 1 and fam.members[0] == Graph.complete(p + 1)
        if expects_clique:
            assert is_clique
        else:
            assert all(g.n <= p for g in fam)


def test_family_members_pairwise_non_isomorphic():
    fam = PatternFamily.from_graphs(
        [parse_pattern("K3"), Graph.complete(3).relabel([2, 0, 1]), parse_pattern("M2")]
    )
    assert len(fam) == 2
    keys = [canonical_form(g) for g in fam]
    assert len(set(keys)) == len(keys)


# -- bipartitions ------------------------------------------------------


def test_bipartition_examples():
    assert bipartition_min_class(parse_pattern("K3,3")) == 3
    assert bipartition_min_class(parse_pattern("P4")) == 2
    with pytest.raises(NotBipartite) as err:
        bipartition_min_class(parse_pattern("K3"))
    cyc = err.value.odd_cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3


def test_bipartition_matches_brute_force():
    rng = random.Random(5)

    def brute(f):
        best = None
        for bits in range(1 << f.n):
            if all(
                (bits >> u & 1) != (bits >> v & 1) for u, v in f.edges()
            ):
                size = min(bin(bits).count("1"), f.n - bin(bits).count("1"))
                best = size if best is None else min(best, size)
        return best

    checked = 0
    while checked < 60:
        n = rng.randint(1, 8)
        f = random_graph_rows(rng, n, 0.3)
        expected = brute(f)
        if expected is None:
            with pytest.raises(NotBipartite):
                bipartition_min_class(f)
        else:
            assert bipartition_min_class(f) == expected
        checked += 1


def test_odd_cycle_evidence_is_genuine():
    rng = random.Random(77)
    found = 0
    while found < 30:
        f = random_graph_rows(rng, rng.randint(3, 8), 0.5)
        try:
            bipartition_min_class(f)
        except NotBipartite as err:
            cyc = err.odd_cycle
            assert len(cyc) % 2 == 1
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert f.has_edge(a, b)
            found += 1


# sha256 over bipartition_min_class of every labelled graph on 1..6 vertices
# (33,867 graphs, 28,263 of them not bipartite); the breadth-first
# two-colouring gave the same digest, with another odd cycle in 10,509 graphs
PINNED_BIPARTITION_SHA256 = "8a251defc4c4882e5fc7bfa6bb6cfda5b132c206d99bea3881ec5369e1cb073d"


def test_bipartition_is_pinned_on_every_small_labelled_graph():
    digest = hashlib.sha256()
    odd = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
            try:
                digest.update(b"%d," % bipartition_min_class(g))
            except NotBipartite as err:
                cyc = err.odd_cycle
                assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc) >= 3, (g, cyc)
                assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])), (g, cyc)
                digest.update(b"odd,")
                odd += 1
    assert odd == 28_263
    assert digest.hexdigest() == PINNED_BIPARTITION_SHA256


# -- plain subgraph utilities -----------------------------------------


def test_contains_subgraph_basics():
    assert contains_subgraph(Graph.complete(5), parse_pattern("K3"))
    assert not contains_subgraph(Graph.complete_bipartite(3, 3), parse_pattern("K3"))
    assert contains_subgraph(Graph.complete_bipartite(2, 2), parse_pattern("P4"))
    assert contains_subgraph(Graph.complete(4), parse_pattern("E3"))
    assert not contains_subgraph(Graph.complete(2), parse_pattern("E3"))
    # 16 or more edges: a matching that large would exceed the 30-vertex cap
    assert contains_subgraph(Graph.complete(7), Graph.complete(7))
    assert contains_subgraph(Graph.complete_bipartite(5, 5), Graph.complete_bipartite(4, 4))
    assert contains_subgraph(Graph.star(20), Graph.star(16))
    assert contains_subgraph(Graph.path(20), Graph.path(17))


def test_matching_number():
    assert matching_number_at_least(Graph.complete(6), 3)
    assert not matching_number_at_least(Graph.complete(5), 3)
    assert not matching_number_at_least(Graph.star(7), 2)
    assert matching_number_at_least(parse_pattern("P5"), 2)
    assert not matching_number_at_least(Graph.complete(7), 10**9)
    # 30 vertices, the largest legal host; two odd cliques leave one vertex each unmatched
    assert matching_number_at_least(Graph.path(30), 15)
    assert not matching_number_at_least(Graph.star(29), 2)
    k7 = Graph.complete(7).edges()
    assert not matching_number_at_least(Graph.from_edges(14, k7 + [(u + 7, v + 7) for u, v in k7]), 7)
    # no edges at all is a matching of every size k <= 0, in any graph
    for g in (Graph.from_edges(1, []), Graph.from_edges(4, []), Graph.star(7), Graph.complete(30)):
        assert matching_number_at_least(g, 0)
        assert matching_number_at_least(g, -1)
        assert matching_number_at_least(g, -(10**9))



def test_relabel_needs_each_vertex_once():
    # as many distinct labels as vertices is not enough: the list has a fourth entry
    with pytest.raises(ValueError, match="permutation"):
        Graph.path(3).relabel([0, 1, 2, 0])
