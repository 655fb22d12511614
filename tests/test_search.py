"""Exact Turan numbers and the three extremal searches against references."""

import random
import sys
from itertools import permutations, product
from math import comb, factorial

import pytest
from helpers import ORACLE_PATTERNS, explicit_rainbow_oracle, lex_greatest_sum_optimum

from rturan import (
    Collection,
    ExtremalQuery,
    Graph,
    PatternFamily,
    extremal_min,
    extremal_prod,
    extremal_sum,
    is_rainbow_free,
    parse_pattern,
    turan_exact,
    turan_extremal,
    are_isomorphic,
    canonical_form,
    claimed_value,
    contains_subgraph,
    parse_family,
)
from rturan.graphcore import _from_canonical
from rturan.search import _Budget, _edge_floor, _turan_family

FAM = lambda *names: PatternFamily.from_graphs([parse_pattern(s) for s in names])
Q = ExtremalQuery


# -- plain Turan numbers -----------------------------------------------


def test_turan_anchor_values():
    assert turan_exact(5, parse_pattern("K3")) == 6  # Mantel floor(25/4)
    assert turan_exact(4, parse_pattern("M2")) == 3
    for n in (2, 5, 8):
        assert turan_exact(n, parse_pattern("K2")) == 0
    assert turan_exact(4, parse_pattern("K3")) == 4
    assert turan_exact(7, parse_pattern("K3")) == 12


def test_turan_witness_is_extremal_and_free():
    for name, n in (("K3", 6), ("M2", 6), ("P4", 7), ("S3", 8)):
        f = parse_pattern(name)
        value, g = turan_extremal(n, f)
        assert g.n == n and g.edge_count() == value
        assert not contains_subgraph(g, f)


def test_turan_matches_direct_enumeration():
    rng = random.Random(17)
    pats = [parse_pattern(s) for s in ("K3", "M2", "P3", "P4", "S2", "S3", "K2,2")]
    pairs_cache = {}
    for _ in range(25):
        n = rng.randint(1, 5)
        f = rng.choice(pats)
        pairs = pairs_cache.setdefault(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)]
        )
        best, forms = 0, set()
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if not contains_subgraph(g, f):
                if g.edge_count() > best:
                    best, forms = g.edge_count(), set()
                if g.edge_count() == best:
                    forms.add(canonical_form(g))
        assert turan_exact(n, f) == best
        # the extremal class of least canonical form, relabelled to it
        assert turan_extremal(n, f)[1] == _from_canonical(min(forms)), (n, f)


# turan_extremal returns the extremal class of least canonical form,
# relabelled to that form; these graphs (and the .rcol bytes built from
# them) must not change when the generation's internals do.
PINNED_EXTREMAL_ROWS = {
    (7, "K3"): (112, 112, 112, 112, 15, 15, 15),
    (7, "K2,2"): (24, 80, 40, 37, 67, 76, 50),
    (7, "K4"): (120, 120, 120, 103, 103, 31, 31),
    (8, "P4"): (2, 1, 192, 48, 40, 24, 132, 68),
    (7, "M3"): (96, 96, 96, 96, 96, 95, 63),
    (6, "S2"): (32, 16, 8, 4, 2, 1),
}


def test_turan_extremal_graphs_are_pinned():
    for (n, name), rows in PINNED_EXTREMAL_ROWS.items():
        value, g = turan_extremal(n, parse_pattern(name))
        assert g.adj == rows, (n, name)
        assert value == g.edge_count()


def test_turan_extremal_graph_is_its_canonical_relabelling():
    for name, n in (("K3", 6), ("M2", 6), ("P4", 7), ("S3", 8), ("K2,2", 7), ("M3", 8), ("K4", 9)):
        g = turan_extremal(n, parse_pattern(name))[1]
        assert _from_canonical(canonical_form(g)) == g, (name, n)


# ex(n, members) for n = 1..8, recorded from generation without the edge floor
EX_BY_N = {
    ("K2",): (0, 0, 0, 0, 0, 0, 0, 0),
    ("P3",): (0, 1, 1, 2, 2, 3, 3, 4),
    ("P4",): (0, 1, 3, 3, 4, 6, 6, 7),
    ("P5",): (0, 1, 3, 6, 6, 7, 9, 12),
    ("S3",): (0, 1, 3, 4, 5, 6, 7, 8),
    ("S4",): (0, 1, 3, 6, 7, 9, 10, 12),
    ("M2",): (0, 1, 3, 3, 4, 5, 6, 7),
    ("M3",): (0, 1, 3, 6, 10, 10, 11, 13),
    ("K3",): (0, 1, 2, 4, 6, 9, 12, 16),
    ("K2,2",): (0, 1, 3, 4, 6, 7, 9, 11),
    ("E2",): (0, -1, -1, -1, -1, -1, -1, -1),
    ("E3",): (0, 1, -1, -1, -1, -1, -1, -1),
    ("K3", "M2"): (0, 1, 2, 3, 4, 5, 6, 7),
    ("K3", "P4"): (0, 1, 2, 3, 4, 5, 6, 7),
    ("K2,2", "P4"): (0, 1, 3, 3, 4, 6, 6, 7),
    ("S3", "M3"): (0, 1, 3, 4, 5, 6, 6, 6),
    ("K3", "E4"): (0, 1, 2, -1, -1, -1, -1, -1),
}


def test_edge_floor_never_changes_a_value():
    # the floor only skips graphs too sparse to lie under an extremal one
    assert {names[0] for names in EX_BY_N if len(names) == 1} == set(ORACLE_PATTERNS)
    for names, values in EX_BY_N.items():
        members = [parse_pattern(s) for s in names]
        for n, value in enumerate(values, 1):
            assert _turan_family(n, members, _Budget(10**7))[0] == value, (names, n)
            assert max(value, 0) >= _edge_floor(n, members), (names, n)
    # an edgeless member that fits leaves no free graph; one too big never bites
    assert _edge_floor(4, [parse_pattern("E4")]) == 0
    assert _edge_floor(3, [parse_pattern("E4")]) == 3
    assert _edge_floor(5, [parse_pattern("K6")]) == 10


def test_turan_closed_forms_at_nine_to_twelve():
    for n in (9, 10, 11, 12):
        assert turan_exact(n, parse_pattern("K3")) == n * n // 4  # Mantel
        thirds = [n // 3 + (i < n % 3) for i in range(3)]
        assert turan_exact(n, parse_pattern("K4")) == (n * n - sum(p * p for p in thirds)) // 2
        assert turan_exact(n, parse_pattern("M3")) == max(comb(5, 2), comb(2, 2) + 2 * (n - 2))
        q, r = divmod(n, 3)  # Faudree-Schelp: disjoint triangles plus a K_r
        assert turan_exact(n, parse_pattern("P4")) == 3 * q + comb(r, 2)


def test_turan_edge_cases():
    assert turan_exact(3, parse_pattern("E4")) == 3  # pattern cannot fit
    assert turan_exact(4, parse_pattern("E4")) == -1  # nothing avoids it
    with pytest.raises(ValueError):
        turan_exact(13, parse_pattern("K3"))


# -- acceptance-grid values (fast rows; full set in test_acceptance) ----


def test_min_examples():
    assert extremal_min(Q("min", 4, 2, FAM("M2"))).value == 3
    assert extremal_min(Q("min", 4, 3, FAM("K3", "M2"))).value == 3
    assert extremal_min(Q("min", 3, 2, FAM("M2"))).value == 3  # M2 cannot embed


def test_sum_examples():
    assert extremal_sum(Q("sum", 4, 3, FAM("K3"))).value == 12
    assert extremal_sum(Q("sum", 5, 3, FAM("K3"))).value == 20
    assert extremal_sum(Q("sum", 5, 2, FAM("P3"))).value == 10


def test_prod_examples():
    assert extremal_prod(Q("prod", 4, 2, FAM("M2"))).value == 9
    assert extremal_prod(Q("prod", 4, 3, FAM("M2"))).value == 27
    assert extremal_prod(Q("prod", 3, 2, FAM("E1"))).value == 0


def test_infeasible_family_conventions():
    r = extremal_min(Q("min", 4, 2, FAM("E1")))
    assert r.value == -1 and r.witness is None and r.exact
    r = extremal_sum(Q("sum", 4, 2, FAM("E1")))
    assert r.value == 0 and r.witness is None
    r = extremal_prod(Q("prod", 4, 2, FAM("E1")))
    assert r.value == 0 and r.witness is None
    # an edgeless member that fits the host is answered without a node
    for fn, mode, value in ((extremal_min, "min", -1), (extremal_sum, "sum", 0), (extremal_prod, "prod", 0)):
        r = fn(Q(mode, 4, 2, FAM("E2")))
        assert (r.value, r.witness, r.nodes, r.exact) == (value, None, 0, True), mode


def test_unconstrained_family_shortcut():
    # members needing more colors or vertices than available never bite
    r = extremal_sum(Q("sum", 3, 2, FAM("K3")))  # K3 needs 3 colors
    assert r.value == 6 and r.witness.edge_counts() == (3, 3)
    r = extremal_min(Q("min", 5, 3, FAM("M3")))  # M3 needs 6 vertices
    assert r.value == 10
    # K5 does not fit on 4 vertices: two complete graphs, without a node
    for fn, mode, value in ((extremal_min, "min", 6), (extremal_sum, "sum", 12), (extremal_prod, "prod", 36)):
        r = fn(Q(mode, 4, 2, FAM("K5")))
        assert (r.value, r.witness.edge_counts(), r.nodes, r.exact) == (value, (6, 6), 0, True), mode


# -- reference enumeration agreement ------------------------------------


def _reference_all_collections(n, t, members):
    """No-pruning, no-symmetry sweep over every collection.

    Returns (best_min, best_sum, best_prod) over rainbow-free collections,
    where freeness is checked per deduplicated embedding with an explicit
    injective color assignment search.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    P = len(pairs)
    pidx = {p: i for i, p in enumerate(pairs)}

    member_embeddings = []
    edgeless_hit = False
    from itertools import permutations as perms

    for f in members:
        if f.edge_count() == 0:
            if f.n <= n:
                edgeless_hit = True
            continue
        if f.n > n:
            continue
        seen = set()
        for vmap in perms(range(n), f.n):
            es = frozenset(
                pidx[(min(vmap[a], vmap[b]), max(vmap[a], vmap[b]))]
                for a, b in f.edges()
            )
            seen.add(es)
        member_embeddings.append([sorted(es) for es in seen])

    def sdr(masks, idx, used):
        if idx == len(masks):
            return True
        m = masks[idx] & ~used
        while m:
            low = m & -m
            if sdr(masks, idx + 1, used | low):
                return True
            m ^= low
        return False

    best_min = best_sum = best_prod = None
    for combo in product(range(1 << P), repeat=t):
        if edgeless_hit:
            break
        pair_colors = [0] * P
        for ci, g in enumerate(combo):
            for p in range(P):
                if g >> p & 1:
                    pair_colors[p] |= 1 << ci
        free = True
        for embeddings in member_embeddings:
            for es in embeddings:
                masks = [pair_colors[p] for p in es]
                if all(masks) and sdr(masks, 0, 0):
                    free = False
                    break
            if not free:
                break
        if not free:
            continue
        counts = [bin(g).count("1") for g in combo]
        s = sum(counts)
        mn = min(counts)
        pr = 1
        for c in counts:
            pr *= c
        best_min = mn if best_min is None else max(best_min, mn)
        best_sum = s if best_sum is None else max(best_sum, s)
        best_prod = pr if best_prod is None else max(best_prod, pr)
    return best_min, best_sum, best_prod


FAMILIES = ("{M2}", "{K3}", "{K3,M2}", "{P3}")


@pytest.mark.parametrize("famtext", FAMILIES)
def test_pruned_search_agrees_with_reference(famtext):
    from rturan import parse_family

    fam = parse_family(famtext)
    for n in range(1, 5):
        for t in range(1, 4):
            ref_min, ref_sum, ref_prod = _reference_all_collections(n, t, fam.members)
            got_min = extremal_min(Q("min", n, t, fam))
            got_sum = extremal_sum(Q("sum", n, t, fam))
            got_prod = extremal_prod(Q("prod", n, t, fam))
            if ref_min is None:
                assert got_min.value == -1 and got_sum.value == 0 and got_prod.value == 0
            else:
                assert got_min.value == ref_min, (famtext, n, t)
                assert got_sum.value == ref_sum, (famtext, n, t)
                assert got_prod.value == ref_prod, (famtext, n, t)


# -- result invariants ---------------------------------------------------


def test_witnesses_are_free_and_attain_value():
    cases = [
        ("min", 4, 3, FAM("K3", "M2")),
        ("sum", 5, 3, FAM("K3")),
        ("prod", 4, 3, FAM("M2")),
        ("min", 5, 2, FAM("M2")),
        ("sum", 4, 2, FAM("P3")),
    ]
    for mode, n, t, fam in cases:
        fn = {"min": extremal_min, "sum": extremal_sum, "prod": extremal_prod}[mode]
        res = fn(Q(mode, n, t, fam))
        assert res.exact
        assert is_rainbow_free(res.witness, fam)
        counts = res.witness.edge_counts()
        if mode == "min":
            assert min(counts) >= res.value
        elif mode == "sum":
            assert sum(counts) == res.value
        else:
            pr = 1
            for c in counts:
                pr *= c
            assert pr == res.value


def test_min_value_nonincreasing_in_colors():
    for fam in (FAM("M2"), FAM("K3", "M2")):
        prev = None
        for t in (2, 3, 4):
            v = extremal_min(Q("min", 4, t, fam)).value
            if prev is not None:
                assert v <= prev
            prev = v


def test_results_are_deterministic_across_runs():
    for fn, mode in ((extremal_min, "min"), (extremal_sum, "sum"), (extremal_prod, "prod")):
        a = fn(Q(mode, 4, 3, FAM("K3", "M2")))
        b = fn(Q(mode, 4, 3, FAM("K3", "M2")))
        assert a.value == b.value and a.nodes == b.nodes
        assert a.witness == b.witness


# Value, node count and witness edge lists of fast searches.  A change that
# only speeds a search up keeps all three; a change to pruning may only lower
# the node count.  Sum witnesses are those of the exhaustive search without
# the multiplicity caps: the lexicographically greatest optimal multiplicity
# vector, which is never below its image under a swap of two adjacent
# vertices, so the lex-leader rules of the sum search cut only other
# branches.  Without those rules the sum rows take 2,732, 283, 179, 7,889
# and 236,700 nodes.  Min witnesses are the Turan seed's graph whenever the
# seed is optimal.
PINNED_SEARCHES = {
    ("prod", 5, 3, "P3"): (8, 2418, [[(0, 3), (1, 2)]] * 3),
    ("sum", 5, 4, "K3"): (24, 265, [[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]] * 4),
    ("min", 5, 3, "P3"): (2, 2324, [[(1, 4), (2, 3)]] * 3),
    ("min", 5, 3, "M2"): (4, 1923, [[(0, 4), (1, 4), (2, 4), (3, 4)]] * 3),
    ("prod", 4, 3, "K3"): (64, 853, [[(0, 2), (0, 3), (1, 2), (1, 3)]] * 3),
    ("prod", 6, 2, "M2"): (25, 63560, [[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]] * 2),
    ("sum", 5, 3, "P4"): (20, 88, [[(u, v) for u in range(5) for v in range(u + 1, 5)]] * 2 + [[]]),
    ("sum", 5, 3, "M2"): (12, 53, [[(0, 1), (0, 2), (0, 3), (0, 4)]] * 3),
    ("sum", 6, 3, "K3"): (30, 622, [[(u, v) for u in range(6) for v in range(u + 1, 6)]] * 2 + [[]]),
    ("prod", 5, 3, "K3"): (216, 45238, [[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]] * 3),
    ("min", 5, 3, "K3"): (6, 8047, [[(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]] * 3),
    ("sum", 7, 3, "K3"): (42, 4702, [[(u, v) for u in range(7) for v in range(u + 1, 7)]] * 2 + [[]]),
}


def test_search_node_counts_are_pinned():
    fns = {"min": extremal_min, "sum": extremal_sum, "prod": extremal_prod}
    for (mode, n, t, name), (value, nodes, edges) in PINNED_SEARCHES.items():
        res = fns[mode](Q(mode, n, t, FAM(name)))
        got = (res.value, res.nodes, [g.edges() for g in res.witness.graphs])
        assert res.exact and got == (value, nodes, edges), (mode, n, t, name)


# Anchored detector calls and node counts of searches at the detector's
# guards: min and prod check only members with at most k edges while color
# k fills; sum checks only members that fit the table's nonempty colors and
# refreshes only caps near the newest pair, and below a pair's first
# multiplicity only the caps that fell.  Without the guards the first four
# searches make 4,328, 29,559, 10,126 and 2,687 calls; refreshing every
# ball cap at every multiplicity, the sum searches make 1,578 and 933.
# Without the lex-leader rules the sum searches make 21,396 calls in 7,889
# nodes and 9,842 in 2,732.
DETECTOR_CALLS = {
    ("min", 5, 3, "K3", None): (1_110, 8_047),
    ("prod", 5, 3, "K3", None): (17_791, 45_238),
    ("min", 6, 3, "M3", 20_000): (555, 20_001),
    ("sum", 6, 3, "K3", None): (1_176, 622),
    ("sum", 5, 4, "K3", None): (759, 265),
}


def test_detector_runs_only_where_a_rainbow_copy_fits(monkeypatch):
    import rturan.search as search

    real = search._exists_using_pair
    calls = []

    def counting(n, t, table, union, f, pair, color):
        colors = 0
        for row in table:
            for cell in row:
                colors |= cell
        assert colors.bit_count() >= f.edge_count(), (f.edges(), table)
        calls.append(f)
        return real(n, t, table, union, f, pair, color)

    monkeypatch.setattr(search, "_exists_using_pair", counting)
    fns = {"min": extremal_min, "sum": extremal_sum, "prod": extremal_prod}
    for (mode, n, t, name, budget), pinned in DETECTOR_CALLS.items():
        calls.clear()
        res = fns[mode](Q(mode, n, t, FAM(name), budget=budget))
        assert (len(calls), res.nodes) == pinned, (mode, n, t, name)


@pytest.mark.parametrize("famtext", FAMILIES + ("{P4}", "{M3}"))
def test_sum_witness_is_the_lex_greatest_optimum(famtext):
    # the sum DFS meets multiplicity vectors in decreasing lexicographic
    # order and keeps the first optimum; its lex-leader rules never cut it
    fam = parse_family(famtext)
    for n, t in ((4, 1), (4, 2), (4, 3), (5, 2)):
        value, vector = lex_greatest_sum_optimum(n, t, fam.members)
        res = extremal_sum(Q("sum", n, t, fam))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        nested = [[p for p, mu in zip(pairs, vector) if mu >= c] for c in range(1, t + 1)]
        assert (res.value, [g.edges() for g in res.witness.graphs]) == (value, nested), (n, t)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sum_witness_is_its_own_lex_leader(n):
    # no vertex relabeling makes the witness's multiplicity vector greater
    perms = _pair_images(n)
    for famtext in FAMILIES + ("{P4}", "{M3}"):
        for t in (2, 3):
            graphs = extremal_sum(Q("sum", n, t, parse_family(famtext))).witness.graphs
            vector = [sum(g.has_edge(u, v) for g in graphs) for u in range(n) for v in range(u + 1, n)]
            for images in perms:
                image = [0] * len(vector)
                for i, mu in enumerate(vector):
                    image[images[i]] = mu
                assert vector >= image, (famtext, n, t, vector, image)


def test_sum_k3_reaches_the_paper_value_at_six_and_seven():
    for n in (6, 7):
        res = extremal_sum(Q("sum", n, 3, FAM("K3")))
        assert res.exact and res.value == claimed_value("sum.k3", {"n": n, "s": 3}), n


def _nested_collection(n, t, mult):
    return Collection.from_edge_lists(n, [[p for p, m in mult.items() if m >= c] for c in range(1, t + 1)])


def _exact_cap(n, t, mult, pair, members):
    """Largest multiplicity up to t at which pair joins the nested table
    without a rainbow copy, by the brute-force oracle."""
    for mu in range(t, 0, -1):
        col = _nested_collection(n, t, {**mult, pair: mu})
        if not any(explicit_rainbow_oracle(col, f) for f in members):
            return mu
    return 0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_sum_cap_falls_only_near_the_new_pair(n):
    # the cap of a pair j falls after p takes a multiplicity only if j has
    # an endpoint within max(v(F) - 3, 0) of p in the union graph
    from rturan.search import _ball, _refresh_radius

    rng = random.Random(1400 + n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ends = {(u, v): 1 << u | 1 << v for u, v in pairs}
    names = ["K3", "P3", "P4", "S3", "K2,2"] + (["K4"] if n <= 5 else [])
    falls = apart = 0  # apart: falls of pairs sharing no vertex with p
    for _ in range({4: 60, 5: 60, 6: 40, 7: 30}[n]):
        members = [f for f in map(parse_pattern, rng.sample(names, rng.randint(1, 2))) if f.n <= n]
        if not members:
            continue
        most = max(f.edge_count() for f in members)
        t = rng.randint(most, max(most, 4))
        radius = _refresh_radius(members)
        assert radius == max(max(f.n - 3, 0) for f in members)  # no pattern here has an isolated vertex
        mult = {}
        for pair in rng.sample(pairs, rng.randint(0, len(pairs) - 2)):
            cap = _exact_cap(n, t, mult, pair, members)
            if cap:
                mult[pair] = rng.randint(1, cap)
        later = [q for q in pairs if q not in mult]
        p = rng.choice(later)
        cap = _exact_cap(n, t, mult, p, members)
        if not cap:
            continue
        union = list(_nested_collection(n, t, mult).union_rows())
        near = _ball(union, ends[p], radius)
        after = {**mult, p: rng.randint(1, cap)}
        for j in later:
            if j != p and _exact_cap(n, t, after, j, members) < _exact_cap(n, t, mult, j, members):
                falls += 1
                apart += not ends[j] & ends[p]
                assert near & ends[j], ([f.edges() for f in members], mult, p, j)
    assert falls >= 10 and apart >= 1, (falls, apart)


def test_disconnected_member_refreshes_every_cap():
    from rturan.search import _refresh_radius

    assert _refresh_radius(FAM("M2").members) is None
    assert _refresh_radius(FAM("K3", "M2").members) is None
    assert _refresh_radius(FAM("K3", "P4").members) == 1
    # a cap falls across components: j = 23 loses its cap once p = 01 has multiplicity 2
    for members in (FAM("M2").members, FAM("K3", "M2").members):
        assert _exact_cap(4, 2, {}, (2, 3), members) == 2
        assert _exact_cap(4, 2, {(0, 1): 2}, (2, 3), members) == 0


def _random_free_table(rng, n, t, pairs, members):
    """A random nested free multiplicity map, grown pair by pair under exact caps."""
    mult = {}
    for pair in rng.sample(pairs, rng.randint(0, len(pairs) - 2)):
        cap = _exact_cap(n, t, mult, pair, members)
        if cap:
            mult[pair] = rng.randint(1, cap)
    return mult


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sum_caps_only_rise_as_the_new_pair_falls(n):
    # the table with p at mu - 1 is the table at mu less one color of p, so
    # every later cap at mu - 1 is at least its cap at mu, and never above
    # its cap without p
    rng = random.Random(1500 + n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    families = [FAM("K3"), FAM("P3"), FAM("P4"), FAM("K2,2"), FAM("K3", "M2")]
    rises = 0
    for _ in range({4: 30, 5: 20, 6: 8}[n]):
        members = [f for f in rng.choice(families).members if f.n <= n]
        t = rng.randint(max(f.edge_count() for f in members), 4)
        mult = _random_free_table(rng, n, t, pairs, members)
        later = [q for q in pairs if q not in mult]
        p = rng.choice(later)
        without = {j: _exact_cap(n, t, mult, j, members) for j in later if j != p}
        prev = None
        for mu in range(t, 0, -1):
            caps = {j: _exact_cap(n, t, {**mult, p: mu}, j, members) for j in without}
            for j, cap in caps.items():
                assert cap <= without[j], (mult, p, mu, j)
                if prev is not None:
                    assert cap >= prev[j], (mult, p, mu, j)
                    rises += cap > prev[j]
            prev = caps
    assert rises >= 5, rises


class _CapCheckingBudget(_Budget):
    """A budget whose every step, taken at a sum node, checks the node's
    caps (every pair from idx on) against the brute-force caps of the
    nested table the searcher holds."""

    def __init__(self, searcher):
        super().__init__(10**7)
        self.searcher, self.checked = searcher, 0

    def step(self):
        super().step()
        node = sys._getframe(1).f_locals  # the sum DFS frame: idx and its caps
        s = self.searcher
        mult = {(u, v): s.table[u][v].bit_count() for u, v in s.pairs if s.table[u][v]}
        for j in range(node["idx"], s.P):
            assert node["caps"][j] == _exact_cap(s.n, s.t, mult, s.pairs[j], s.members), (mult, j)
            self.checked += 1


@pytest.mark.parametrize("famtext", ["{K3}", "{P3}", "{P4}", "{K3,M2}"])
def test_sum_search_caps_are_exact_at_every_node(famtext):
    from rturan import parse_family
    from rturan.search import _CollectionSearch, _search_sum, _split_family

    fam = parse_family(famtext)
    for n, t in ((4, 3), (5, 2), (5, 3)):
        s = _CollectionSearch(n, t, _split_family(fam, n, t)[1], _Budget(1))
        s.budget = budget = _CapCheckingBudget(s)  # _search_sum reads it when it starts
        _search_sum(s)
        assert s.best == extremal_sum(Q("sum", n, t, fam)).value
        assert budget.checked >= budget.used


# Run under ``python -O``: each answer check must raise although asserts are off.
_WRONG_ANSWERS = """
import rturan.lemmas as lemmas
import rturan.search as search
from rturan import Collection, Graph, PatternFamily, parse_pattern

def caught(call):
    try:
        call()
    except AssertionError as exc:
        print("caught:", exc)

real = search._search_sum
def overstated(s):
    real(s)
    s.best += 1
search._search_sum = overstated
fam = PatternFamily.from_graphs([parse_pattern("K3")])
caught(lambda: search.extremal_sum(search.ExtremalQuery("sum", 4, 3, fam)))
search._from_canonical = lambda form: Graph.edgeless(5)
caught(lambda: search.turan_exact(5, parse_pattern("K3")))
class NoMatching(lemmas._ColorMatching):
    def push(self, mask):
        self.masks.append(mask)
        self.bits.append(0)
        return False
lemmas._ColorMatching = NoMatching
caught(lambda: lemmas.star_cover(Collection([Graph.star(2)] * 2), 0, 3))
"""


def test_answer_checks_survive_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rturan

    env = dict(os.environ, PYTHONPATH=str(Path(rturan.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_ANSWERS], env=env, capture_output=True, text=True, check=True
    )
    caught = [line for line in out.stdout.splitlines() if line.startswith("caught:")]
    assert len(caught) == 3, out.stdout + out.stderr
    assert "does not attain sum" in caught[0]
    assert "below its certified floor" in caught[1]
    assert "star cover" in caught[2]


def test_min_erdos_gallai_value_at_n6():
    # ex(n, M_{s+1}) = max(C(2s+1, 2), C(s, 2) + s(n - s)) (Erdos-Gallai); min
    # is at least it (t copies of an extremal graph) and the search proves equality
    n, s = 6, 2
    value = max(comb(2 * s + 1, 2), comb(s, 2) + s * (n - s))
    res = extremal_min(Q("min", n, 3, FAM("M3")))
    assert res.exact and res.value == value == 10
    assert min(res.witness.edge_counts()) >= value
    assert not explicit_rainbow_oracle(res.witness, parse_pattern("M3"))


def test_min_budget_stop_inside_the_turan_seed():
    res = extremal_min(Q("min", 6, 3, FAM("K3"), budget=5))
    assert (res.value, res.exact, res.nodes) == (0, False, 6)
    assert res.witness.edge_counts() == (0, 0, 0)


def test_min_budget_stop_keeps_the_turan_seed():
    # ex(6, K3) = 9 is proven feasible by the seed; probing 10 runs out of budget
    res = extremal_min(Q("min", 6, 3, FAM("K3"), budget=20_000))
    assert (res.value, res.exact, res.nodes) == (9, False, 20_001)
    assert min(res.witness.edge_counts()) >= 9
    assert not explicit_rainbow_oracle(res.witness, parse_pattern("K3"))


def _pair_images(n: int) -> list[list[int]]:
    """Per non-identity vertex permutation, the image index of each pair."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    return [
        [index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        for perm in permutations(range(n))
        if list(perm) != list(range(n))
    ]


def _image(mask: int, images: list[int]) -> int:
    return sum(1 << images[i] for i in range(len(images)) if mask >> i & 1)


def _prefix_is_canonical(cmasks, k: int, perms) -> bool:
    """Every relabeling leaves colors 1..k as they are or makes the first
    color it changes larger (the search's rule, over all n! permutations)."""
    for images in perms:
        for mask in cmasks[:k]:
            moved = _image(mask, images)
            if moved != mask:
                if moved < mask:
                    return False
                break
    return True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_canonical_prefix_matches_all_permutations(n):
    from rturan.search import _Budget, _CollectionSearch

    rng = random.Random(n)
    perms = _pair_images(n)
    full = (1 << (n * (n - 1) // 2)) - 1
    searcher = _CollectionSearch(n, 3, [], _Budget(1))  # one searcher: its cache carries over
    outcomes = set()
    for _ in range(150 if n < 6 else 60):
        k = rng.randint(1, 3)
        cmasks = []
        for _ in range(k):
            kind = rng.random()
            if kind < 0.1:
                mask = rng.choice((0, full))
            else:
                mask = rng.randint(0, full) & rng.randint(0, full) if kind < 0.4 else rng.randint(0, full)
                if kind >= 0.4:
                    # the smallest image under relabelings fixing the earlier colors,
                    # so that later colors are reached and their check decides
                    fixing = [p for p in perms if all(_image(m, p) == m for m in cmasks)]
                    mask = min([mask] + [_image(mask, p) for p in fixing])
            cmasks.append(mask)
        searcher.cmasks = cmasks + [0] * (3 - k)
        expected = _prefix_is_canonical(cmasks, k, perms)
        assert searcher.canonical_prefix(k) == expected, (n, cmasks)
        outcomes.add((k, expected))
    assert {o for o in outcomes if o[0] >= 2} >= {(2, True), (2, False)}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stabilizer_matches_brute_force(n):
    from rturan.search import _pair_perm_tables, _stabilizer

    rng = random.Random(2100 + n)
    tables = _pair_perm_tables(n)
    perms = _pair_images(n)  # the same permutations, in the same order
    width = n * (n - 1) // 2
    assert len(tables) == len(perms) == factorial(n) - 1
    if n <= 5:
        checked = range(1 << width)
    else:
        draw = random.Random(2200 + n)
        checked = [1 << i for i in range(width)] + [draw.randrange(1 << width) for _ in range(40)]
    for table, images in zip(tables, perms):
        for mask in checked:
            assert table[mask & 31] + table[32 | mask >> 5 & 31] + table[64 | mask >> 10] == _image(mask, images)
    assert _pair_perm_tables(7) is None
    full = (1 << width) - 1
    masks = [0, full] + [1 << i for i in range(width)]
    masks += [1 << i | 1 << j for i in range(width) for j in range(i + 1, width)]
    masks += [rng.randint(0, full) for _ in range(60)]
    # the full set, and the stabilizers of a few masks least in their orbits
    subsets = [list(range(len(tables)))]
    for mask in rng.sample(masks, 4):
        base = min(_image(mask, images) for images in perms + [list(range(width))])
        subsets.append([k for k in subsets[0] if _image(base, perms[k]) == base])
    outcomes = set()
    for subset in subsets:
        for mask in masks:
            images = [_image(mask, perms[k]) for k in subset]
            if any(image < mask for image in images):
                expected = None
            else:
                expected = [tables[k] for k, image in zip(subset, images) if image == mask]
            assert _stabilizer([tables[k] for k in subset], mask) == expected, (n, mask)
            outcomes.add((mask.bit_count(), expected is None))
    assert {(0, False), (1, False), (1, True), (2, True), (width, False)} <= outcomes


def test_canonical_prefix_on_the_search_path(monkeypatch):
    # the prefixes the DFS itself asks about, dense masks and color 2 under a
    # complete color 1, which random masks seldom reach
    from rturan.search import _CollectionSearch

    calls = []
    original = _CollectionSearch.canonical_prefix

    def recording(self, k):
        verdict = original(self, k)
        calls.append((tuple(self.cmasks[:k]), k, verdict))
        return verdict

    monkeypatch.setattr(_CollectionSearch, "canonical_prefix", recording)
    outcomes = set()
    for search, mode, n, famtext, budget, first in (
        (extremal_min, "min", 6, "{K3}", 20_000, 300),
        (extremal_prod, "prod", 5, "{P3}", None, None),
    ):
        calls.clear()
        search(Q(mode, n, 3, parse_family(famtext), budget=budget))
        perms = _pair_images(n)
        for cmasks, k, verdict in set(calls[:first]):
            assert verdict == _prefix_is_canonical(cmasks, k, perms), (mode, n, cmasks, k)
            outcomes.add((k, verdict))
    assert {(1, True), (1, False), (2, True), (2, False), (3, True)} <= outcomes


def test_search_state_table_tracks_the_collection():
    from rturan import nest_transform
    from rturan.search import _CollectionSearch

    rng = random.Random(13)
    for _ in range(120):
        n, t = rng.randint(3, 7), rng.randint(1, 4)
        searcher = _CollectionSearch(n, t, [], _Budget(1))  # no members: every add succeeds
        held = set()  # (color, pair index) added and not removed
        for _ in range(25):
            color, idx = rng.randint(1, t), rng.randrange(searcher.P)
            if (color, idx) in held:
                searcher.remove(color, idx)
                held.remove((color, idx))
            else:
                assert searcher.try_add(color, idx)
                held.add((color, idx))
            table, union = searcher.table, searcher.union
            snap = searcher.snapshot()
            for c in range(1, t + 1):
                assert snap.graph(c).edges() == sorted(searcher.pairs[i] for k, i in held if k == c)
            assert all(table[u][v] == table[v][u] for u in range(n) for v in range(n))
            assert tuple(map(tuple, table)) == snap.color_table()
            assert all((union[u] >> v & 1) == (table[u][v] != 0) for u in range(n) for v in range(n))
        # the sum search's nested cells: multiplicity mu is colors 1..mu
        for cells in table:
            cells[:] = [(1 << mask.bit_count()) - 1 for mask in cells]
        assert tuple(map(tuple, table)) == nest_transform(snap).color_table()
        assert searcher.snapshot() == nest_transform(snap)


def test_budget_flags_inexact():
    res = extremal_sum(Q("sum", 5, 3, FAM("K3"), budget=50))
    assert not res.exact
    assert res.witness is not None
    assert res.value <= 20


def test_budget_stop_keeps_the_incumbent():
    # the best collection found before the stop is returned, checked, as it stood
    res = extremal_prod(Q("prod", 5, 3, FAM("K3"), budget=5000))
    assert (res.value, res.nodes, res.exact) == (40, 5001, False)
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert [g.edges() for g in res.witness.graphs] == [k5, [(0, 3), (1, 2)], [(0, 3), (1, 2)]]
    res = extremal_sum(Q("sum", 5, 3, FAM("K3"), budget=100))
    assert (res.value, res.nodes, res.exact) == (18, 101, False)
    assert sum(res.witness.edge_counts()) == 18
    assert not explicit_rainbow_oracle(res.witness, parse_pattern("K3"))


def test_turan_budget_error():
    from rturan import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        turan_exact(8, parse_pattern("K3"), budget=10)
    with pytest.raises(BudgetExceeded):
        turan_extremal(8, parse_pattern("K3"), budget=10)


def test_edge_floor_fits_a_small_budget():
    # floorless generation spends thousands of attempts on sparse graphs
    assert turan_exact(10, parse_pattern("K4"), budget=1_000) == 33
    assert turan_extremal(10, parse_pattern("K4"), budget=1_000)[0] == 33
    budget = _Budget(100)
    assert _turan_family(10, [parse_pattern("K3")], budget)[0] == 25
    assert budget.used <= 100


def test_min_seed_at_n10_uses_the_edge_floor():
    # three copies of K5,5 hold min >= ex(10, K3) = 25 before the probes exhaust the budget
    res = extremal_min(Q("min", 10, 3, FAM("K3"), budget=1000))
    assert (res.value, res.exact) == (25, False)
    k55 = Graph.complete_bipartite(5, 5)
    assert all(are_isomorphic(g, k55) for g in res.witness.graphs)


def test_env_budget_override(monkeypatch):
    from rturan import default_budget

    monkeypatch.setenv("RTURAN_BUDGET", "12345")
    assert default_budget() == 12345
    for raw in ("junk", "0", "-3", "\u0668", "1e5"):  # only ASCII integers >= 1
        monkeypatch.setenv("RTURAN_BUDGET", raw)
        with pytest.raises(ValueError):
            default_budget()
    monkeypatch.delenv("RTURAN_BUDGET", raising=False)
    assert default_budget() > 12345


def test_query_validation():
    with pytest.raises(ValueError):
        Q("max", 4, 2, FAM("M2"))
    with pytest.raises(ValueError):
        Q("min", 13, 2, FAM("M2"))
    with pytest.raises(ValueError):
        Q("sum", 4, 7, FAM("M2"))
    for budget in (0, -3):
        with pytest.raises(ValueError):
            Q("min", 4, 2, FAM("M2"), budget=budget)
        with pytest.raises(ValueError):
            turan_exact(4, parse_pattern("K3"), budget=budget)
