"""Exact Turan numbers and the three extremal searches against references."""

import random
import sys
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from helpers import ORACLE_PATTERNS, explicit_rainbow_oracle, lex_greatest_sum_optimum
from test_work_ledger import SEARCHES as LEDGER_SEARCHES, measure, pinned, query_key

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
    nest_transform,
    BudgetExceeded,
    default_budget,
)
from rturan.constructions import describe
from rturan import search
from rturan.graphcore import _from_canonical
from rturan.search import (
    _PACKING_MAX_COPIES,
    _Budget,
    _CollectionSearch,
    _Loss,
    _ball,
    _edge_floor,
    _orbit_table,
    _packing_loses,
    _packings,
    _pair_perm_tables,
    _refresh_radius,
    _search_sum,
    _split_family,
    _stabilizer,
    _subtree_nodes,
    _turan_family,
)

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


def _direct_extremal(n, f):
    """ex(n, f) and the least canonical form of its extremal graphs, by
    trying every edge set from the largest size down: the first size that
    holds an f-free graph is ex(n, f)."""
    pairs = list(combinations(range(n), 2))
    for e in range(len(pairs), -1, -1):
        graphs = (Graph.from_edges(n, edges) for edges in combinations(pairs, e))
        forms = {canonical_form(g) for g in graphs if not contains_subgraph(g, f)}
        if forms:
            return e, min(forms)


def test_turan_matches_direct_enumeration():
    rng = random.Random(17)
    pats = [parse_pattern(s) for s in ("K3", "M2", "P3", "P4", "S2", "S3", "K2,2")]
    cases = [(rng.randint(1, 5), rng.choice(pats)) for _ in range(25)]
    cases += [(6, parse_pattern(s)) for s in ("K3", "K2,2", "M3", "S4", "P5")]
    for n, f in cases:
        best, form = _direct_extremal(n, f)
        assert turan_exact(n, f) == best, (n, f)
        # the extremal class of least canonical form, relabelled to it
        assert turan_extremal(n, f)[1] == _from_canonical(form), (n, f)


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


# ex(n, members) of the orderly generations whose work the ledger pins
# (tests/work_ledger.json).  (6, {M3}) is the seed of min(6, t, {M3}).
TURAN_VALUES = {
    (7, "{K3}"): 12,
    (7, "{K2,2}"): 9,
    (7, "{K4}"): 16,
    (8, "{P4}"): 7,
    (6, "{M3}"): 10,
    (7, "{K3,M3}"): 10,
    (9, "{P5}"): 12,
    (10, "{K2,2}"): 16,
}


def test_orderly_generation_values_are_pinned():
    for (n, family), value in TURAN_VALUES.items():
        assert _turan_family(n, parse_family(family), _Budget(10**7))[0] == value, (n, family)


def _turan_graph_edges(m, r):
    """e(T(m, r)): m vertices in r parts as equal as possible, all pairs
    across parts."""
    parts = [m // r + (i < m % r) for i in range(r)]
    return (m * m - sum(p * p for p in parts)) // 2


def test_turan_closed_forms_at_nine_to_twelve():
    for n in (9, 10, 11, 12):
        assert turan_exact(n, parse_pattern("K3")) == n * n // 4  # Mantel
        assert turan_exact(n, parse_pattern("K4")) == _turan_graph_edges(n, 3)
        assert turan_exact(n, parse_pattern("M3")) == max(comb(5, 2), comb(2, 2) + 2 * (n - 2))
        q, r = divmod(n, 3)  # Faudree-Schelp: disjoint triangles plus a K_r
        assert turan_exact(n, parse_pattern("P4")) == 3 * q + comb(r, 2)


def test_turan_with_bounded_matching_number():
    # Alon & Frankl (J. Combin. Theory Ser. B, 2024): for n >= 2s + 1,
    # ex(n, {K_{k+1}, M_{s+1}}) = max{e(T(2s+1, k)), e(T(s, k-1)) + s(n-s)},
    # the t = 1 case of the paper's objectives, with the formula written
    # here and not in the library
    for k, s, top in ((2, 2, 12), (3, 2, 12), (2, 3, 10)):
        family = parse_family(f"{{K{k + 1},M{s + 1}}}")
        for n in range(2 * s + 1, top + 1):
            value = max(_turan_graph_edges(2 * s + 1, k), _turan_graph_edges(s, k - 1) + s * (n - s))
            assert _turan_family(n, family, _Budget(10**7))[0] == value, (k, s, n)


def test_turan_edge_cases():
    assert turan_exact(3, parse_pattern("E4")) == 3  # pattern cannot fit
    assert turan_exact(4, parse_pattern("E4")) == -1  # nothing avoids it
    with pytest.raises(ValueError):
        turan_exact(13, parse_pattern("K3"))
    for n in (5.0, True, "5"):
        with pytest.raises(ValueError, match="n must be an integer"):
            turan_exact(n, parse_pattern("K3"))
    for budget in (10.5, True):
        with pytest.raises(ValueError, match="budget must be an integer"):
            turan_exact(5, parse_pattern("K3"), budget)


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


def test_split_family_strips_isolated_vertices_after_the_size_test():
    # P3 plus an isolated vertex does not fit three vertices, so it is
    # dropped there; on four it is kept, as P3
    p3_k1 = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert _split_family([p3_k1], 3, 3) == (False, [])
    assert _split_family([p3_k1], 4, 3) == (False, [Graph.path(3)])
    assert _split_family([p3_k1], 4, 1) == (False, [])  # two edges need two colors
    # edgeless members keep their vertex count: infeasible exactly when they fit
    assert _split_family([Graph.edgeless(4), p3_k1], 4, 3) == (True, [Graph.path(3)])
    assert _split_family([Graph.edgeless(5), p3_k1], 4, 3) == (False, [Graph.path(3)])
    # so the searches answer the unstripped member as they answer P3
    for mode, fn in (("min", extremal_min), ("sum", extremal_sum), ("prod", extremal_prod)):
        r = fn(Q(mode, 3, 2, PatternFamily((p3_k1,))))
        assert (r.value, r.nodes) == ({"min": 3, "sum": 6, "prod": 9}[mode], 0), mode
        r, p3 = fn(Q(mode, 4, 2, PatternFamily((p3_k1,)))), fn(Q(mode, 4, 2, FAM("P3")))
        assert (r.value, r.nodes, r.witness) == (p3.value, p3.nodes, p3.witness), mode


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


# Every free collection obeys these relations, so exact answers must too: at
# n = 5 and 6 they check search values that no reference search reaches.
INVARIANT_FAMILIES = ("{K3}", "{P3}", "{M2}", "{P4}", "{K3,M2}", "{S3}", "{M3}", "{K2,2}")
EXACT_AT_6_3 = ("{P3}", "{M2}", "{K3,M2}", "{K2,2}")  # within the budget below


def _balanced_product(total: int, t: int) -> int:
    """Largest product of t nonnegative integers with the given sum."""
    q, r = divmod(total, t)
    return (q + 1) ** r * q ** (t - r)


@pytest.mark.parametrize("famtext", INVARIANT_FAMILIES)
def test_min_sum_prod_obey_cross_objective_invariants(famtext):
    points = [(n, t) for n in range(2, 6) for t in (2, 3)] + [(6, 2)]
    if famtext in EXACT_AT_6_3:
        points.append((6, 3))
    fam = parse_family(famtext)
    value = {}
    for n, t in points:
        for mode, search in (("min", extremal_min), ("sum", extremal_sum), ("prod", extremal_prod)):
            res = search(Q(mode, n, t, fam, 300_000))
            assert res.exact, (mode, n, t)
            value[mode, n, t] = res.value
    for n, t in points:
        least, total = value["min", n, t], value["sum", n, t]
        assert t * least <= total, (n, t)
        assert least**t <= value["prod", n, t] <= _balanced_product(total, t), (n, t)
        for mode in ("min", "sum", "prod"):
            if (mode, n + 1, t) in value:
                assert value[mode, n, t] <= value[mode, n + 1, t], (mode, n, t)
        if ("min", n, t + 1) in value:
            assert value["min", n, t + 1] <= least and value["sum", n, t + 1] >= total, (n, t)


def test_results_are_deterministic_across_runs():
    for fn, mode in ((extremal_min, "min"), (extremal_sum, "sum"), (extremal_prod, "prod")):
        a = fn(Q(mode, 4, 3, FAM("K3", "M2")))
        b = fn(Q(mode, 4, 3, FAM("K3", "M2")))
        assert a.value == b.value and a.nodes == b.nodes
        assert a.witness == b.witness


# Value and witness edge lists of fast searches; their node counts are in
# the work ledger (tests/work_ledger.json).  A change that only speeds a
# search up keeps both; a change to pruning may only lower the node count.
# Sum witnesses are those of the exhaustive search without the multiplicity
# caps: the lexicographically greatest optimal multiplicity vector, which is
# never below its image under a swap of two adjacent vertices, so the
# lex-leader rules of the sum search cut only other branches, as the
# packing bound and the sum.cliques seed do.  Min witnesses are the Turan
# seed's graph whenever the seed is optimal.
PINNED_SEARCHES = {
    ("prod", 5, 3, "P3"): (8, [[(0, 3), (1, 2)]] * 3),
    ("sum", 5, 4, "K3"): (24, [[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]] * 4),
    ("min", 5, 3, "P3"): (2, [[(1, 4), (2, 3)]] * 3),
    ("min", 5, 3, "M2"): (4, [[(0, 4), (1, 4), (2, 4), (3, 4)]] * 3),
    ("prod", 4, 3, "K3"): (64, [[(0, 2), (0, 3), (1, 2), (1, 3)]] * 3),
    ("prod", 6, 2, "M2"): (25, [[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]] * 2),
    ("sum", 5, 3, "P4"): (20, [[(u, v) for u in range(5) for v in range(u + 1, 5)]] * 2 + [[]]),
    ("sum", 5, 3, "M2"): (12, [[(0, 1), (0, 2), (0, 3), (0, 4)]] * 3),
    ("sum", 6, 3, "K3"): (30, [[(u, v) for u in range(6) for v in range(u + 1, 6)]] * 2 + [[]]),
    ("prod", 5, 3, "K3"): (216, [[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]] * 3),
    ("min", 5, 3, "K3"): (6, [[(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]] * 3),
    ("sum", 7, 3, "K3"): (42, [[(u, v) for u in range(7) for v in range(u + 1, 7)]] * 2 + [[]]),
}


def test_search_answers_are_pinned():
    fns = {"min": extremal_min, "sum": extremal_sum, "prod": extremal_prod}
    for (mode, n, t, name), (value, edges) in PINNED_SEARCHES.items():
        res = fns[mode](Q(mode, n, t, FAM(name)))
        got = (res.value, [g.edges() for g in res.witness.graphs])
        assert res.exact and got == (value, edges), (mode, n, t, name)


def test_detector_runs_only_where_a_rainbow_copy_fits():
    # min and prod check only members with at most k edges while color k
    # fills; sum checks only members that fit the table's nonempty colors.
    # Every detector call of every ledger query keeps the guards the
    # detector leaves to its callers: 1 <= e(F) <= t, v(F) <= n and at
    # least e(F) colors in the table.  How many calls each query makes is
    # in the work ledger (tests/work_ledger.json).
    ledger, _, unguarded = measure()
    assert not unguarded, unguarded[:5]
    for mode, n, t, name, budget in (
        ("min", 5, 3, "{K3}", None),
        ("prod", 5, 3, "{K3}", None),
        ("min", 6, 3, "{M3}", 20_000),
        ("sum", 6, 3, "{K3}", None),
        ("sum", 5, 4, "{K3}", None),
    ):
        assert ledger[query_key(mode, n, t, name, budget)]["detector_calls"], (mode, n, t, name)


def test_search_compiles_each_member_once():
    # the detector gets the plans the search compiled: the lookups left are
    # one per member per search and per plain containment test of the seed,
    # not one per detector call; their exact count is in the work ledger
    ledger, results, _ = measure()
    key = query_key("min", 5, 3, "{K3}")
    assert (results[key].value, results[key].exact) == (6, True)
    assert ledger[key]["plan_lookups"] < ledger[key]["detector_calls"], ledger[key]


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
    fam = parse_family(famtext)
    for n, t in ((4, 3), (5, 2), (5, 3)):
        s = _CollectionSearch(n, t, _split_family(fam, n, t)[1], _Budget(1))
        s.budget = budget = _CapCheckingBudget(s)  # _search_sum reads it when it starts
        _search_sum(s)
        assert s.best == extremal_sum(Q("sum", n, t, fam)).value
        assert budget.checked >= budget.used


def _copies(n: int, f: Graph) -> set:
    """The copies of f in K_n as sorted tuples of row-major pair indices."""
    index = {p: i for i, p in enumerate((u, v) for u in range(n) for v in range(u + 1, n))}
    return {
        tuple(sorted(index[min(m[a], m[b]), max(m[a], m[b])] for a, b in f.edges()))
        for m in permutations(range(n), f.n)
    }


def _hall_rainbow(mults) -> bool:
    """Do nested colors of these multiplicities take distinct colors?"""
    return all(b >= i for i, b in enumerate(sorted(mults), 1))


def test_copy_loss_is_the_least_drop_to_a_free_copy():
    # _Loss against every multiplicity vector of one copy under its caps,
    # freeness by the brute-force oracle on the nested collection
    loss = _Loss()
    for name, t in (("P3", 3), ("M2", 3), ("K3", 3), ("K3", 4), ("P4", 3)):
        f = parse_pattern(name)
        edges = f.edges()
        for caps in product(range(t + 1), repeat=len(edges)):
            best = -1
            for b in product(*(range(c + 1) for c in caps)):
                col = Collection.from_edge_lists(f.n, [[e for e, m in zip(edges, b) if m > c] for c in range(t)])
                rainbow = explicit_rainbow_oracle(col, f)
                assert rainbow == _hall_rainbow(b), (name, b)
                if not rainbow:
                    best = max(best, sum(b))
            assert loss[caps] == sum(caps) - best, (name, caps)


@pytest.mark.parametrize(
    "name, n, t",
    [(name, 4, t) for name in ("K3", "P3", "M2", "P4", "K2,2", "S3") for t in (2, 3, 4)
     if parse_pattern(name).edge_count() <= t]
    + [(name, 5, 2) for name in ("P3", "M2")]
    + [(name, 5, 3) for name in ("K3", "P3", "M2")],
)
def test_packing_bound_holds_every_free_completion(name, n, t):
    # at every prefix of every free nested table, with the caps the search
    # holds, neither packing claims a loss that a free completion avoids:
    # room - B + 1 is never shown, B the best free completion by brute force
    f = parse_pattern(name)
    P, shown = comb(n, 2), 0
    through = [[c for c in _copies(n, f) if j in c] for j in range(P)]
    packing, loss, mult = (f.edge_count(), *_packings(n, f)), _Loss(), [0] * P

    def free_at(j: int, mu: int) -> bool:
        was, mult[j] = mult[j], mu
        free = not any(_hall_rainbow([mult[p] for p in c]) for c in through[j])
        mult[j] = was
        return free

    def visit(i: int, caps: list) -> int:
        """Best free completion of pairs i.. under mult[:i], whose caps are
        caps[i:], checking the bound."""
        nonlocal shown
        best = 0
        if i < P:
            for mu in range(caps[i] + 1):
                mult[i] = mu
                # a cap falls only through a copy holding pair i, and never rises
                below = [c if j <= i or not near[i][j] else max(m for m in range(c + 1) if free_at(j, m))
                         for j, c in enumerate(caps)]
                best = max(best, mu + visit(i + 1, below))
            mult[i] = 0
        room = sum(caps[i:])
        assert not _packing_loses(packing, loss, caps, i, room, room - best + 1), (mult, i)
        shown += room > best and _packing_loses(packing, loss, caps, i, room, room - best)
        return best

    near = [[any(i in c for c in through[j]) for j in range(P)] for i in range(P)]
    visit(0, [max(mu for mu in range(t + 1) if free_at(j, mu)) for j in range(P)])
    assert shown > 0  # the bound is below the caps' sum somewhere, so the check has teeth


def test_packings_none_for_one_edge_over_six_vertices_or_too_many_copies():
    assert _packings(4, parse_pattern("K2")) is None  # one edge: its caps are 0 already
    assert _packings(8, parse_pattern("M4")) is None  # eight vertices on its edges
    assert comb(12, 6) * 360 > _PACKING_MAX_COPIES  # the labelled 6-vertex paths in K12
    assert _packings(12, parse_pattern("P6")) is None
    assert _packings(12, parse_pattern("M3")) is not None
    res = extremal_sum(Q("sum", 4, 2, FAM("K2")))
    assert (res.value, res.exact, res.nodes) == (0, True, 1)


@pytest.mark.parametrize("name", ["M2", "K3", "P3", "P4", "M3", "K2,2"])
def test_packings_cover_each_pair_at_most_once(name):
    f = parse_pattern(name)
    for n in range(f.n, 9):
        P = comb(n, 2)
        getters, levels = _packings(n, f)
        listed = [g(range(P)) for g in getters]
        assert sorted(listed) == sorted(_copies(n, f))
        for idx, (count, pack, nums, den) in enumerate(levels):
            at = listed[:count]
            assert sorted(at) == sorted(c for c in listed if c[0] >= idx)
            packed = [g(range(P)) for g in pack]
            assert all(c in at for c in packed)
            assert len(set().union(*packed)) == sum(map(len, packed))  # edge-disjoint
            cover = [0] * P
            for c in at:
                w = min(nums[p] for p in c)  # den / max d(p)
                assert w * max(sum(p in other for other in at) for p in c) == den
                for p in c:
                    cover[p] += w
            assert max(cover) <= den, (n, idx)
    # every member here keeps its packings up to n = 12: C(12, k) vertex sets x shapes
    shapes = {"M2": 3, "K3": 1, "P3": 3, "P4": 12, "M3": 15, "K2,2": 3}[name]
    assert len(_packings(12, f)[0]) == comb(12, f.n) * shapes


# Sum value and witness multiplicity vector (pairs in row-major order) of
# FAMILIES, {P4}, {M3} and {K2,2} at n = 3..6 and t = 2..4, as the search
# found them before the packing bound and the sum.cliques seed.
SUM_OPTIMA = """
    {M2} 3 2 6 222
    {M2} 3 3 9 333
    {M2} 3 4 12 444
    {M2} 4 2 6 222000
    {M2} 4 3 9 333000
    {M2} 4 4 12 444000
    {M2} 5 2 10 1111111111
    {M2} 5 3 12 3333000000
    {M2} 5 4 16 4444000000
    {M2} 6 2 15 111111111111111
    {M2} 6 3 15 333330000000000
    {M2} 6 4 20 444440000000000
    {K3} 3 2 6 222
    {K3} 3 3 6 330
    {K3} 3 4 8 440
    {K3} 4 2 12 222222
    {K3} 4 3 12 330033
    {K3} 4 4 16 440044
    {K3} 5 2 20 2222222222
    {K3} 5 3 20 2222222222
    {K3} 5 4 24 4440004044
    {K3} 6 2 30 222222222222222
    {K3} 6 3 30 222222222222222
    {K3} 6 4 36 444000044044440
    {K3,M2} 3 2 6 222
    {K3,M2} 3 3 6 330
    {K3,M2} 3 4 8 440
    {K3,M2} 4 2 6 222000
    {K3,M2} 4 3 9 333000
    {K3,M2} 4 4 12 444000
    {K3,M2} 5 2 10 1111111111
    {K3,M2} 5 3 12 3333000000
    {K3,M2} 5 4 16 4444000000
    {K3,M2} 6 2 15 111111111111111
    {K3,M2} 6 3 15 333330000000000
    {K3,M2} 6 4 20 444440000000000
    {P3} 3 2 3 111
    {P3} 3 3 3 300
    {P3} 3 4 4 400
    {P3} 4 2 6 111111
    {P3} 4 3 6 300003
    {P3} 4 4 8 400004
    {P3} 5 2 10 1111111111
    {P3} 5 3 10 1111111111
    {P3} 5 4 10 1111111111
    {P3} 6 2 15 111111111111111
    {P3} 6 3 15 111111111111111
    {P3} 6 4 15 111111111111111
    {P4} 3 2 6 222
    {P4} 3 3 9 333
    {P4} 3 4 12 444
    {P4} 4 2 12 222222
    {P4} 4 3 12 222222
    {P4} 4 4 12 444000
    {P4} 5 2 20 2222222222
    {P4} 5 3 20 2222222222
    {P4} 5 4 20 2222222222
    {P4} 6 2 30 222222222222222
    {P4} 6 3 30 222222222222222
    {P4} 6 4 30 222222222222222
    {M3} 3 2 6 222
    {M3} 3 3 9 333
    {M3} 3 4 12 444
    {M3} 4 2 12 222222
    {M3} 4 3 18 333333
    {M3} 4 4 24 444444
    {M3} 5 2 20 2222222222
    {M3} 5 3 30 3333333333
    {M3} 5 4 40 4444444444
    {M3} 6 2 30 222222222222222
    {M3} 6 3 30 333303330330300
    {M3} 6 4 40 444404440440400
    {K2,2} 3 2 6 222
    {K2,2} 3 3 9 333
    {K2,2} 3 4 12 444
    {K2,2} 4 2 12 222222
    {K2,2} 4 3 18 333333
    {K2,2} 4 4 18 333333
    {K2,2} 5 2 20 2222222222
    {K2,2} 5 3 30 3333333333
    {K2,2} 5 4 30 3333333333
    {K2,2} 6 2 30 222222222222222
    {K2,2} 6 3 45 333333333333333
    {K2,2} 6 4 45 333333333333333
"""


def test_sum_optima_and_witnesses_are_unchanged():
    for line in SUM_OPTIMA.split("\n"):
        if not line.strip():
            continue
        famtext, n, t, value, vector = line.split()
        n, t, value = int(n), int(t), int(value)
        res = extremal_sum(Q("sum", n, t, parse_family(famtext)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        nested = [[p for p, m in zip(pairs, vector) if int(m) > c] for c in range(t)]
        assert (res.value, res.exact) == (value, True), line
        assert [g.edges() for g in res.witness.graphs] == nested, line


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
caught(lambda: search.turan_extremal(5, parse_pattern("K3")))
search._hits_pattern = lambda rows, anchor, plans: True
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
    assert len(caught) == 4, out.stdout + out.stderr
    assert "does not attain sum" in caught[0]
    assert "ex(n, members) = 0 below its certified floor" in caught[1]
    assert "no member-free child" in caught[2]
    assert "star cover" in caught[3]


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


@pytest.mark.parametrize("n, t, name", [(4, 3, "K3"), (5, 3, "K3"), (5, 2, "P3"), (6, 3, "P3")])
def test_min_probes_find_every_floor_up_to_the_value(n, t, name, monkeypatch):
    # every min value here equals its ex(n, members) seed, so the scan alone
    # never reaches a successful probe: run each floor directly
    fam = FAM(name)
    res = extremal_min(Q("min", n, t, fam))
    assert res.exact
    _, members = _split_family(fam, n, t)
    for e in range(1, res.value + 2):
        s = _CollectionSearch(n, t, members, _Budget(10**7))
        assert s.run(e) == (e <= res.value), e
        if e <= res.value:
            assert s.best == e and min(s.witness.edge_counts()) >= e
            assert not explicit_rainbow_oracle(s.witness, parse_pattern(name))
    # from an edgeless seed the scan bisects to the same value, through found probes
    monkeypatch.setattr(search, "_turan_family", lambda n, members, budget: (0, Graph.edgeless(n)))
    bisected = extremal_min(Q("min", n, t, fam))
    assert (bisected.value, bisected.exact) == (res.value, res.exact)


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
    rng = random.Random(n)
    perms = _pair_images(n)
    full = (1 << (n * (n - 1) // 2)) - 1
    searcher = _CollectionSearch(n, 3, [], _Budget(1))  # one searcher: its stabilizer chain carries over
    outcomes = set()
    for _ in range(150 if n < 6 else 60):
        last = rng.randint(1, 3)
        cmasks = []
        for _ in range(last):
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
        # as the DFS asks: colors 1..k each checked once 1..k-1 were accepted
        searcher.reset()
        for k in range(1, last + 1):
            verdict = searcher.canonical_prefix(k, cmasks[k - 1])
            assert verdict == _prefix_is_canonical(cmasks, k, perms), (n, cmasks, k)
            outcomes.add((k, verdict))
            if not verdict:
                break
        # a rejected prefix stays rejected when longer, so the searcher's last
        # verdict is the verdict on colors 1..last
        assert verdict == _prefix_is_canonical(cmasks, last, perms), (n, cmasks)
    assert {o for o in outcomes if o[0] >= 2} >= {(2, True), (2, False)}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stabilizer_matches_brute_force(n):
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


@pytest.mark.parametrize("n, orbits", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_orbit_table_is_the_stabilizer_of_every_mask(n, orbits):
    # one orbit per isomorphism class of n-vertex graphs: 1, 2, 4, 11, 34,
    # 156.  At n = 1 the empty and complete masks coincide; n = 2 has one pair
    tables, table = _pair_perm_tables(n), _orbit_table(n)
    width = n * (n - 1) // 2
    marker, full = 1 << width, (1 << width) - 1
    assert sum(key >= marker for key in table) == orbits
    assert table[marker] is table and table[full | marker] is table
    perms = _pair_images(n) if n <= 5 else None
    for mask in range(1 << width):
        stab = _stabilizer(tables, mask)
        assert (mask | marker in table) == (stab is not None), (n, mask)
        entry = table.get(mask | marker)
        if mask in (0, full):
            assert entry is table and stab == list(tables), (n, mask)
        else:
            assert entry == stab, (n, mask)
        if perms is not None:
            moved = [_image(mask, images) for images in perms]
            expected = None if min(moved, default=mask) < mask else [tables[k] for k, image in enumerate(moved) if image == mask]
            assert (list(tables) if entry is table else entry) == expected, (n, mask)
    # the stabilizers share the n! - 1 table objects, none is a copy
    shared = {id(t) for stab in table.values() if stab and stab is not table for t in stab}
    assert len(shared) <= factorial(n) - 1, (n, len(shared))
    assert _orbit_table(7) is None  # three 5-bit chunks hold no more than 15 pairs


def test_full_group_checks_take_the_orbit_table(monkeypatch):
    # color 1, and color 2 under a complete color 1, are checked against the
    # whole group by one lookup; the scan sees only proper stabilizers
    # (4,931 full-group scans in this search without the table)
    import rturan.search as search

    full = len(search._pair_perm_tables(6))  # only the whole group has 719 tables
    real, scans = search._stabilizer, []

    def counting(tables, mask):
        scans.append(len(tables) == full)
        return real(tables, mask)

    monkeypatch.setattr(search, "_stabilizer", counting)
    res = extremal_min(Q("min", 6, 3, FAM("K3"), budget=20_000))
    assert (res.value, res.nodes, res.exact) == (9, 20_001, False)
    assert scans.count(True) == 0, scans.count(True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_prefixes_are_the_prefixes_of_orbit_representatives(n):
    # a key below the marker, prefix | 1 << idx, maps to None exactly when
    # some mask least in its orbit (by brute force over all n! permutations)
    # has bits below idx equal to prefix; every other key is such a mask
    # with the marker
    perms = _pair_images(n)
    width = n * (n - 1) // 2
    least = [mask for mask in range(1 << width) if all(_image(mask, images) >= mask for images in perms)]
    expected = {mask & (1 << idx) - 1 | 1 << idx for mask in least for idx in range(width)}
    table = _orbit_table(n)
    assert {key for key, entry in table.items() if entry is None} == expected
    assert {key for key, entry in table.items() if entry is not None} == {mask | 1 << width for mask in least}
    table = _orbit_table(6)
    assert (len(table), sum(entry is None for entry in table.values())) == (1_245, 1_089)
    assert _orbit_table(7) is None


def _walked_nodes(left: int, count: int, cap: int, pruned) -> int:
    """Nodes of the ``_dfs`` loop below a node with ``left`` pairs undecided
    and ``count`` in the color when every leaf fails, walked one by one;
    pruned(room) is the loop's prune test."""
    P, idx, mask, nodes = left, 0, 0, 0
    while True:
        nodes += 1
        if pruned(count + P - idx) or idx == P:
            pass
        elif count < cap:
            mask |= 1 << idx
            idx += 1
            count += 1
            continue
        else:
            idx += 1
            continue
        if not mask:
            return nodes
        idx = mask.bit_length() - 1
        mask ^= 1 << idx
        count -= 1
        idx += 1


def test_subtree_nodes_match_the_walk():
    for left in range(11):
        for cap in range(left + 1):
            for count in range(cap + 1):
                for floor in range(left + cap + 2):  # min: a room below floor is pruned
                    walked = _walked_nodes(left, count, cap, lambda room: room < floor)
                    assert _subtree_nodes(left, count, cap, floor) == walked, (left, count, cap, floor)
    # prod: a room is pruned when prefix * min(cap, room) ** power <= best;
    # that is monotone in the room, so it is a least unpruned room
    for left, count, cap, prefix, power, best in ((10, 0, 10, 4, 2, 99), (9, 2, 6, 3, 3, 200), (7, 1, 7, 1, 1, 4)):
        pruned = lambda room: prefix * min(cap, room) ** power <= best
        least = min(room for room in range(left + count + 2) if not pruned(room))
        assert _subtree_nodes(left, count, cap, least) == _walked_nodes(left, count, cap, pruned) > 1


def test_least_room_is_both_prune_tests():
    # the one prune test of _dfs, room < least_room, is min's room < floor
    # and prod's prefix * min(cap, room) ** power <= best, for every room
    # of an n = 6 color (P = 15) and best on both sides of each threshold
    s = _CollectionSearch(6, 3, [], _Budget(1))
    for cap, power, prefix in product(range(16), range(1, 7), (0, 1, 2, 5)):
        s.floor = 0
        for best in {prefix * r**power + d for r in range(cap + 1) for d in (-1, 0, 1)}:
            s.best = best
            least = s.least_room(cap, prefix, power)
            for room in range(16):
                assert (room < least) == (prefix * min(cap, room) ** power <= best), (cap, power, prefix, best, room)
        for floor in range(1, 17):
            s.floor = s.best = floor
            assert s.least_room(cap, prefix, power) == floor, (cap, power, prefix, floor)


# Searches in which blind colors are checked against the whole group, each
# with one more budget to try.  Their node counts N and their two
# ``subtree_stops``, budgets that stop inside a subtree the search counts
# without walking, are in the work ledger (tests/work_ledger.json); each
# search is also stopped at 1, 2, N - 1, N and N + 1.
SKIPPED_SUBTREE_SEARCHES = {
    ("min", 5, 3, "{K3}"): 4_010,
    ("prod", 5, 3, "{P3}"): 1_200,
    ("prod", 5, 3, "{K3}"): 21_113,
    ("min", 6, 3, "{M3}"): 97_531,
    ("prod", 6, 2, "{M2}"): 6_000,
}


class _EveryPrefix(dict):
    """An orbit table whose every key below the marker bit is present, so
    that no node of ``_dfs`` skips its subtree: each blind color is walked
    node by node and its leaves are checked at the marker as before.  Its
    whole-group entries point to this copy, not to the table it copies."""

    def __init__(self, table, width):
        super().__init__(table)
        self.update({key: self for key, entry in table.items() if entry is table})
        self.marker = 1 << width

    def __contains__(self, key):
        return key < self.marker or super().__contains__(key)


@pytest.mark.parametrize("query", list(SKIPPED_SUBTREE_SEARCHES))
def test_skipping_blind_subtrees_changes_nothing(query, monkeypatch):
    # with every prefix taken to begin an orbit representative, every blind
    # color walks its subtrees node by node and rejects their leaves that
    # are no representative; the budget stops at the same node and keeps
    # the same incumbent either way
    import rturan.search as search

    mode, n, t, famtext = query
    work = pinned()[query_key(mode, n, t, famtext)]
    full, stops = work["nodes"], work["subtree_stops"]
    assert len(stops) == 2, query
    fn = {"min": extremal_min, "prod": extremal_prod}[mode]
    real, calls = search._exists_using_pair, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    real_take, stopped_in_skip = _Budget.take, []

    def taking(budget, steps):
        try:
            real_take(budget, steps)
        except search.BudgetExceeded:
            stopped_in_skip.append(budget.limit)
            raise

    monkeypatch.setattr(search, "_exists_using_pair", counting)
    monkeypatch.setattr(_Budget, "take", taking)
    walking = _EveryPrefix(_orbit_table(n), comb(n, 2))

    def outcome(budget, skip):
        monkeypatch.setattr(search, "_orbit_table", _orbit_table if skip else lambda n: walking)
        calls.clear()
        res = fn(Q(mode, n, t, parse_family(famtext), budget=budget))
        return res.value, res.nodes, res.exact, [g.edges() for g in res.witness.graphs], len(calls)

    for budget in (1, 2, full - 1, full, full + 1, *stops, SKIPPED_SUBTREE_SEARCHES[query]):
        skipped = outcome(budget, True)
        assert skipped == outcome(budget, False), (query, budget)
        assert skipped[1:3] == ((full, True) if budget >= full else (budget + 1, False)), (query, budget)
    assert set(stops) <= set(stopped_in_skip), query


@pytest.mark.parametrize(
    "query", sorted({q for q in LEDGER_SEARCHES if q[0] != "sum"}, key=lambda q: query_key(*q)), ids=lambda q: query_key(*q)
)
def test_failed_colors_leave_no_trace_in_the_table(query, monkeypatch):
    # when color k's _dfs returns False, the table holds colors 1..k-1 alone
    # and the union rows are the pairs those colors hold: whatever color k
    # and the colors above it put into the table, by try_add or by paint,
    # is gone again
    mode, n, t, famtext, budget = query
    dfs, returns = _CollectionSearch._dfs, []

    def checking(s, k, cap, prefix):
        found = dfs(s, k, cap, prefix)
        if not found:
            returns.append(k)
            above = [(u, v) for u in range(n) for v in range(n) if s.table[u][v] >> (k - 1)]
            assert not above, (k, above)
            rows = [sum(1 << v for v in range(n) if s.table[u][v]) for u in range(n)]
            assert s.union == rows, (k, s.union, rows)
        return found

    monkeypatch.setattr(_CollectionSearch, "_dfs", checking)
    monkeypatch.delenv("RTURAN_BUDGET", raising=False)
    fn = {"min": extremal_min, "prod": extremal_prod}[mode]
    res = fn(Q(mode, n, t, parse_family(famtext), budget=budget))
    assert returns or res.nodes == 0, query


def test_canonical_prefix_sequence_is_pinned():
    # every canonical_prefix call of min(5,3,{K3}), prod(5,3,{P3}) and
    # min(6,3,{K3}) at budget 20,000, (color, mask, verdict) in order: the
    # DFS proves the same tree, not just one of the same size.  The work
    # ledger holds the SHA-256 of each query's calls and of its accepted
    # ones alone; the DFS that walked every blind color under the whole
    # group, rejecting what is not an orbit representative, gave the same
    # accepted ones
    ledger, book = measure()[0], pinned()
    for query in (("min", 5, 3, "{K3}"), ("prod", 5, 3, "{P3}"), ("min", 6, 3, "{K3}", 20_000)):
        key = query_key(*query)
        got = {name: ledger[key][name] for name in ("prefix_sha256", "prefix_accepted_sha256")}
        assert None not in got.values() and got == {name: book[key][name] for name in got}, key


class _ColorsSoFar:
    """The color masks of the running min or prod DFS, rebuilt from its own
    calls rather than read from the searcher: the masks of the complete
    colors 1..k-1 are those ``canonical_prefix`` last accepted at each
    level, and the color being filled holds the pairs ``try_add`` admitted
    and ``remove`` did not take back.  Cleared when a DFS starts (``run``).
    ``on_prefix(k, masks, verdict)``, once set, sees each canonicity check
    with the masks of colors 1..k."""

    def __init__(self, monkeypatch):
        self.search = None
        self.on_prefix = None
        self.accepted: list[int] = []
        self.filling: dict[int, int] = {}
        run, prefix = _CollectionSearch.run, _CollectionSearch.canonical_prefix
        try_add, remove = _CollectionSearch.try_add, _CollectionSearch.remove

        def running(searcher, floor=0):
            self.search = searcher
            self.accepted.clear()
            self.filling.clear()
            return run(searcher, floor)

        def checking(searcher, k, mask):
            verdict = prefix(searcher, k, mask)
            if self.on_prefix is not None:
                self.on_prefix(k, self.accepted[: k - 1] + [mask], verdict)
            if verdict:
                self.accepted[k - 1 :] = [mask]
            return verdict

        def adding(searcher, color, idx):
            added = try_add(searcher, color, idx)
            if added:
                self.filling[color] = self.filling.get(color, 0) | 1 << idx
            return added

        def removing(searcher, color, idx):
            remove(searcher, color, idx)
            self.filling[color] &= ~(1 << idx)

        monkeypatch.setattr(_CollectionSearch, "run", running)
        monkeypatch.setattr(_CollectionSearch, "canonical_prefix", checking)
        monkeypatch.setattr(_CollectionSearch, "try_add", adding)
        monkeypatch.setattr(_CollectionSearch, "remove", removing)


def test_canonical_prefix_on_the_search_path(monkeypatch):
    # the prefixes the DFS itself asks about, dense masks and color 2 under a
    # complete color 1, which random masks seldom reach.  A blind color
    # checked against the whole group asks only about orbit representatives
    # (the prefixes in ``_orbit_table``), so such a check never rejects;
    # rejections come from colors checked against a proper subgroup, as
    # color 2 of min(5,3,{K3}) is
    calls = []
    so_far = _ColorsSoFar(monkeypatch)

    def on_prefix(k, masks, verdict):
        s = so_far.search
        calls.append((tuple(masks), k, verdict, s.stabs[k - 1] is s.orbits and not s.live[k]))

    so_far.on_prefix = on_prefix
    outcomes = set()
    for search, mode, n, famtext, budget, first in (
        (extremal_min, "min", 6, "{K3}", 20_000, 300),
        (extremal_prod, "prod", 5, "{P3}", None, None),
        (extremal_min, "min", 5, "{K3}", None, None),
    ):
        calls.clear()
        search(Q(mode, n, 3, parse_family(famtext), budget=budget))
        assert not [c for c in calls if c[3] and not c[2]], (mode, n, famtext)
        perms = _pair_images(n)
        for cmasks, k, verdict, blind_full in set(calls[:first]):
            assert verdict == _prefix_is_canonical(cmasks, k, perms), (mode, n, cmasks, k)
            outcomes.add((k, verdict, blind_full))
    assert {(1, True, True), (2, True, True), (2, True, False), (2, False, False), (3, True, False)} <= outcomes


def test_detector_sees_exactly_the_colors_filled_so_far(monkeypatch):
    # blind colors (no member fits that few colors) reach the table only at
    # their boundary; every detector call must still see them, and nothing
    # of a color above the one filling
    import rturan.search as search

    so_far = _ColorsSoFar(monkeypatch)
    real = search._exists_using_pair
    colors_checked = set()

    def checking(table, union, plan, pair, color, copies):
        s, f = so_far.search, plan.pattern
        # the guards the detector leaves to its callers: 1 <= e(F) <= t, v(F) <= n
        assert 1 <= f.edge_count() <= s.t and f.n <= len(table) == s.n, (f.edges(), s.n, s.t)
        masks = so_far.accepted[: color - 1] + [so_far.filling.get(color, 0) | 1 << s.pairs.index(pair)]
        assert not any(so_far.filling.get(c) for c in range(color + 1, s.t + 1)), (color, so_far.filling)
        for i, (u, v) in enumerate(s.pairs):
            cell = sum(1 << c for c, m in enumerate(masks) if m >> i & 1)
            assert table[u][v] == table[v][u] == cell, (color, masks, pair, (u, v))
            assert (union[u] >> v & 1) == (union[v] >> u & 1) == (cell != 0)
        colors_checked.add(color)
        return real(table, union, plan, pair, color, copies)

    monkeypatch.setattr(search, "_exists_using_pair", checking)
    for search_fn, mode, n, name, budget in (
        (extremal_min, "min", 5, "K3", None),
        (extremal_prod, "prod", 5, "P3", None),
        (extremal_min, "min", 5, "K3,M2", None),
        (extremal_min, "min", 6, "M3", 20_000),
    ):
        search_fn(Q(mode, n, 3, FAM(*name.split(",")), budget=budget))
    assert colors_checked == {2, 3}


def test_failed_min_probe_leaves_an_empty_table(monkeypatch):
    probes = []
    original = _CollectionSearch.run

    def run(self, floor=0):
        found = original(self, floor)
        probes.append(found)
        if not found:
            assert self.table == [[0] * self.n for _ in range(self.n)]
            assert self.union == [0] * self.n
        return found

    monkeypatch.setattr(_CollectionSearch, "run", run)
    for name in ("K3", "P3", "P4", "M2"):
        extremal_min(Q("min", 5, 3, FAM(name)))
    assert False in probes


def test_search_state_table_tracks_the_collection():
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
    res = extremal_sum(Q("sum", 5, 4, FAM("K3"), budget=15))
    assert (res.value, res.nodes, res.exact) == (24, 16, False)
    assert [g.edges() for g in res.witness.graphs] == [[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]] * 4
    assert not explicit_rainbow_oracle(res.witness, parse_pattern("K3"))


@pytest.mark.parametrize("n, t, name, budget", [(5, 4, "K3", 14), (5, 4, "K3", 1), (6, 3, "K3", 5), (5, 3, "P4", 3)])
def test_sum_stop_before_the_first_find_keeps_the_cliques(n, t, name, budget):
    # until the search finds a total of at least L = (e - 1) C(n, 2), the
    # incumbent is the paper's sum.cliques collection: e - 1 complete colors
    res = extremal_sum(Q("sum", n, t, FAM(name), budget=budget))
    f = parse_pattern(name)
    cliques = describe("sum.cliques", {"n": n, "t": t, "f": name}).collection
    assert (res.value, res.nodes, res.exact) == ((f.edge_count() - 1) * comb(n, 2), budget + 1, False)
    assert res.witness == cliques and res.witness._table is None


def test_sum_search_without_members_takes_every_pair_in_every_color():
    # the entry answers a family with no enforceable member itself; the
    # search alone, with no member, finds t complete colors at once
    for n, t in ((3, 1), (4, 2), (5, 3)):
        s = _CollectionSearch(n, t, [], _Budget(100))
        _search_sum(s)
        assert s.best == t * comb(n, 2) and s.witness == Collection([Graph.complete(n)] * t)
        assert s.budget.used == (t + 1) * comb(n, 2) + 1  # the way down, then every other child, cut


def test_search_results_keep_no_color_table():
    # the witness check builds a color table on a copy, not on the witness
    for fn, mode in ((extremal_min, "min"), (extremal_sum, "sum"), (extremal_prod, "prod")):
        res = fn(Q(mode, 4, 3, FAM("K3")))
        assert res.witness._table is None, mode


def test_turan_budget_error():
    with pytest.raises(BudgetExceeded):
        turan_exact(8, parse_pattern("K3"), budget=10)
    with pytest.raises(BudgetExceeded):
        turan_extremal(8, parse_pattern("K3"), budget=10)


def test_turan_value_path_is_a_pure_speed_up():
    # turan_exact stops at the last level's first member-free child, the
    # densest; turan_extremal decides that edge count whole.  Same value,
    # same steps, so the same budget stops both.
    for family in ("{K3}", "{K4}", "{P4}", "{P5}", "{K2,2}", "{S3}", "{M3}", "{K3,M3}"):
        members = parse_family(family)
        for n in range(1, 10):
            runs = []
            for graph in (False, True):
                budget = _Budget(10**7)
                runs.append((_turan_family(n, members, budget, graph=graph)[0], budget.used))
            assert runs[0] == runs[1], (family, n)
            value, attempts = runs[1]
            if len(members) == 1:
                (f,) = members
                assert turan_exact(n, f, attempts or 1) == value == turan_extremal(n, f, attempts or 1)[0]
            for graph in (False, True):
                if attempts:
                    with pytest.raises(BudgetExceeded):
                        _turan_family(n, members, _Budget(attempts - 1), graph=graph)
                assert _turan_family(n, members, _Budget(attempts), graph=graph)[0] == value


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
    # _Budget() is the one reader of the default, and reads it as default_budget() does
    monkeypatch.setenv("RTURAN_BUDGET", "12345")
    assert default_budget() == _Budget().limit == 12345
    assert _Budget(7).limit == 7
    for raw in ("junk", "0", "-3", "\u0668", "1e5"):  # only ASCII integers >= 1
        monkeypatch.setenv("RTURAN_BUDGET", raw)
        with pytest.raises(ValueError):
            default_budget()
        with pytest.raises(ValueError):
            _Budget()
    monkeypatch.delenv("RTURAN_BUDGET", raising=False)
    assert default_budget() == _Budget().limit > 12345


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
    # a bool or a non-int is not a vertex count, color count or budget
    for bad in (True, 5.0, "5", None):
        with pytest.raises(ValueError, match="must be an integer"):
            Q("min", bad, 3, FAM("K3"))
        with pytest.raises(ValueError, match="must be an integer"):
            Q("min", 5, bad, FAM("K3"))
    for bad in (100.5, True, "100"):
        with pytest.raises(ValueError, match="budget must be an integer"):
            Q("min", 5, 3, FAM("K3"), bad)
    # a family is a PatternFamily and a Turan pattern a Graph
    for bad in ("{K3}", parse_pattern("K3"), [parse_pattern("K3")]):
        with pytest.raises(ValueError, match="family must be a PatternFamily"):
            Q("min", 5, 3, bad)
    for bad in ("K3", FAM("K3")):
        with pytest.raises(ValueError, match="pattern must be a Graph"):
            turan_exact(5, bad)
    # each objective answers only its own mode
    with pytest.raises(ValueError, match="query mode must be 'min'"):
        extremal_min(Q("sum", 4, 2, FAM("M2")))
