"""Greedy matching procedures, strong colors, structure results, star covers."""

import random
from itertools import combinations, permutations

import pytest

from rturan import (
    Collection,
    Graph,
    RainbowMatching,
    PreconditionViolated,
    StarCover,
    StrongVerdict,
    TooSmall,
    find_rainbow_copy,
    greedy_extend,
    greedy_from_degrees,
    m2_structure,
    max_rainbow_matching,
    parse_pattern,
    star_cover,
    strong_color_exact,
    strong_color_sufficient,
    very_strong_color,
)

from helpers import boosted_degree_collection, random_collection

K_N = lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]


# -- greedy procedures ------------------------------------------------


def test_greedy_extend_trivial_and_one_step():
    col = Collection.from_edge_lists(12, [[(0, 1)], [(2, 3), (2, 4), (2, 5)]])
    m0 = RainbowMatching(((0, 1),), (1,))
    assert greedy_extend(col, m0, {}, 1) == m0
    out = greedy_extend(col, m0, {2: 2}, 2)
    assert out.size == 2
    out.validate(col)


def test_greedy_extend_validates_preconditions():
    col = Collection.from_edge_lists(12, [[(0, 1)], [(2, 3), (2, 4), (2, 5)]])
    m0 = RainbowMatching(((0, 1),), (1,))
    with pytest.raises(PreconditionViolated):
        greedy_extend(col, m0, {2: 0}, 2)  # center inside M0
    with pytest.raises(PreconditionViolated):
        greedy_extend(col, m0, {2: 6}, 2)  # degree too small
    with pytest.raises(PreconditionViolated):
        greedy_extend(col, RainbowMatching(((0, 1),), (2,)), {}, 1)  # colors not 1..p
    col3 = Collection.from_edge_lists(12, [[(0, 1)], [(2, 3), (2, 4), (2, 5)], K_N(12)])
    with pytest.raises(PreconditionViolated):
        greedy_extend(col3, m0, {2: 2, 3: 2}, 3)  # centers share a vertex
    col8 = Collection.from_edge_lists(8, [K_N(8), K_N(8)])
    with pytest.raises(PreconditionViolated, match="exceeds t=2"):
        greedy_extend(col8, RainbowMatching((), ()), {1: 0, 2: 2, 3: 4}, 3)  # no color 3


def test_greedy_from_degrees_examples():
    single = Collection.from_edge_lists(2, [[(0, 1)]])
    m = greedy_from_degrees(single, 1)
    assert m.edges == ((0, 1),) and m.colors == (1,)

    stars = Collection.from_edge_lists(6, [[(0, v) for v in range(1, 6)]] * 2)
    with pytest.raises(PreconditionViolated) as err:
        greedy_from_degrees(stars, 2)
    assert "color 2" in str(err.value)

    k4 = Collection.from_edge_lists(4, [K_N(4), K_N(4)])
    out = greedy_from_degrees(k4, 2)
    assert out.size == 2
    out.validate(k4)


def test_greedy_never_fails_under_preconditions_300():
    rng = random.Random(0x9EED)
    for trial in range(300):
        q = rng.randint(1, 3)
        n = rng.randint(max(2 * q, 2 * q - 1 + 1, 4), 14)
        col = boosted_degree_collection(rng, n, q)
        try:
            out = greedy_from_degrees(col, q)
        except PreconditionViolated as exc:  # boosting guarantees the supply
            raise AssertionError(f"trial {trial}: {exc}")
        assert out.size == q
        out.validate(col)
        smax, _ = max_rainbow_matching(col)
        assert smax >= out.size


# -- strong colors ----------------------------------------------------


def test_strong_color_exact_examples():
    empty = Collection.from_edge_lists(4, [[], [(0, 1)]])
    assert strong_color_exact(empty, 1, 1) is False

    col = Collection.from_edge_lists(10, [[(0, 1), (2, 3), (4, 5)], [(6, 7)]])
    assert strong_color_exact(col, 1, 1) is True

    col = Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)]])
    assert strong_color_exact(col, 1, 1) is True
    col = Collection.from_edge_lists(4, [[(0, 1)], [(0, 2)]])
    assert strong_color_exact(col, 1, 1) is False


def test_strong_color_sufficient_examples():
    full = Collection.from_edge_lists(10, [K_N(10), []])
    assert strong_color_sufficient(full, 1, 1).verdict == StrongVerdict.BY_EDGE_COUNT

    m3 = Collection.from_edge_lists(10, [[(0, 1), (2, 3), (4, 5)], []])
    assert strong_color_sufficient(m3, 1, 1).verdict == StrongVerdict.BY_BIG_MATCHING

    s3 = Collection.from_edge_lists(10, [[(0, 1), (0, 2), (0, 3)], []])
    assert strong_color_sufficient(s3, 1, 1).verdict == StrongVerdict.UNKNOWN

    # low-degree case: two disjoint triangles have no 3-matching and no hubs
    two_tri = Collection.from_edge_lists(
        6, [[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], [(0, 3)]]
    )
    assert strong_color_sufficient(two_tri, 1, 1).verdict == StrongVerdict.BY_LOW_DEGREE
    assert strong_color_exact(two_tri, 1, 1)

    # 2s > n: no edge count forces a strong color, and these colors are not strong
    c4 = Collection.from_edge_lists(4, [[(0, 1), (0, 2), (1, 3), (2, 3)], [(0, 1)], [(2, 3)]])
    assert not strong_color_exact(c4, 1, 3)
    assert strong_color_sufficient(c4, 1, 3).verdict == StrongVerdict.UNKNOWN
    k3 = Collection.from_edge_lists(3, [[(0, 1), (0, 2), (1, 2)], [(0, 1)]])
    assert not strong_color_exact(k3, 1, 2)
    assert strong_color_sufficient(k3, 1, 2).verdict == StrongVerdict.UNKNOWN


def test_strong_sufficient_implies_exact_300():
    rng = random.Random(0x57A0)
    confirmed = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        t = rng.randint(2, 4)
        s = rng.randint(1, 2)
        col = random_collection(rng, n, t, rng.choice([0.25, 0.5, 0.8]))
        i = rng.randint(1, t)
        ev = strong_color_sufficient(col, i, s)
        if ev.verdict != StrongVerdict.UNKNOWN:
            assert strong_color_exact(col, i, s), (col, i, s, ev)
            confirmed += 1
    assert confirmed > 20  # the sweep must not be vacuous


def test_strong_sufficient_implies_exact_up_to_s5_300():
    rng = random.Random(0x57A5)
    confirmed = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        t = rng.randint(1, 4)
        s = rng.randint(0, 5)
        col = random_collection(rng, n, t, rng.choice([0.25, 0.5, 0.8]))
        i = rng.randint(1, t)
        ev = strong_color_sufficient(col, i, s)
        if ev.verdict != StrongVerdict.UNKNOWN:
            assert strong_color_exact(col, i, s), (col, i, s, ev)
            confirmed += 1
    assert confirmed > 20  # the sweep must not be vacuous


def test_strong_plus_matching_forces_larger_matching():
    rng = random.Random(0xF00)
    hits = 0
    for _ in range(250):
        n = rng.randint(4, 8)
        t = rng.randint(2, 4)
        s = rng.randint(1, 2)
        col = random_collection(rng, n, t, 0.5)
        i = rng.randint(1, t)
        if not strong_color_exact(col, i, s):
            continue
        # a rainbow matching of size s avoiding i extends by an i-edge
        others = Collection(
            [col.graph(j) if j != i else Graph.edgeless(col.n) for j in range(1, t + 1)]
        )
        size, _ = max_rainbow_matching(others)
        if size >= s:
            total, _ = max_rainbow_matching(col)
            assert total >= s + 1
            hits += 1
    assert hits > 5


# -- very strong colors -------------------------------------------------


def test_very_strong_examples():
    empty = Collection.from_edge_lists(6, [[], [(0, 1)]])
    assert very_strong_color(empty, 1, 2, 1) is False

    # no rainbow star core in the other colors: vacuously very strong
    lonely = Collection.from_edge_lists(6, [[(0, 1)], []])
    assert very_strong_color(lonely, 1, 2, 1) is True

    # big monochromatic matching beats any small configuration
    big = Collection.from_edge_lists(
        12, [[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], [(0, 2), (1, 3)], [(0, 3)]]
    )
    assert very_strong_color(big, 1, 2, 1) is True
    big14 = Collection.from_edge_lists(
        14, [[(2 * i, 2 * i + 1) for i in range(7)], [(0, 2), (1, 3)], [(0, 3)]]
    )
    assert very_strong_color(big14, 1, 2, 1) is True


def test_very_strong_detects_blocking_configuration():
    # star 1-2,1-3 in colors 2,3; color 1 lives entirely on those vertices
    col = Collection.from_edge_lists(5, [[(2, 3)], [(1, 2)], [(1, 3)]])
    assert very_strong_color(col, 1, 2, 1) is False


def test_very_strong_matches_definition_by_enumeration():
    from itertools import combinations, permutations

    rng = random.Random(0x7E57)

    def oracle(col, i, r, m):
        gi = col.graph(i).edges()
        if not gi:
            return False
        others = [c for c in range(1, col.t + 1) if c != i]
        pairs = [
            (u, v)
            for u in range(col.n)
            for v in range(u + 1, col.n)
            if any(col.graph(c).has_edge(u, v) for c in others)
        ]
        for center in range(col.n):
            leaves_pool = [v for v in range(col.n) if v != center]
            for leaves in combinations(leaves_pool, r):
                star = [(min(center, x), max(center, x)) for x in leaves]
                if any(p not in pairs for p in star):
                    continue
                for extra_n in range(m):
                    for extra in combinations(pairs, extra_n):
                        cfg = star + list(extra)
                        verts = {v for e in cfg for v in e}
                        if len(verts) != r + 1 + 2 * extra_n:
                            continue
                        # any injective coloring from non-i colors?
                        colorable = any(
                            all(col.graph(c).has_edge(u, v) for (u, v), c in zip(cfg, cm))
                            for cm in permutations(others, len(cfg))
                        )
                        if not colorable:
                            continue
                        if not any(u not in verts and v not in verts for u, v in gi):
                            return False
        return True

    for _ in range(60):
        n = rng.randint(4, 6)
        t = rng.randint(2, 4)
        col = random_collection(rng, n, t, 0.4)
        i = rng.randint(1, t)
        r = rng.randint(2, 3)
        m = rng.randint(1, 2)
        assert very_strong_color(col, i, r, m) == oracle(col, i, r, m)


def test_very_strong_skips_a_center_without_a_rainbow_star():
    # 7 colors at center 0 against r = 8 once color 1 is left out: no rainbow
    # S_8 anywhere, so color 1 is vacuously very strong, without trying the
    # C(29, 8) = 4,292,145 leaf sets at 0
    star = [(0, u) for u in range(1, 30)]
    path = [(u, u + 1) for u in range(1, 29)]
    col = Collection.from_edge_lists(30, [path] + [star] * 7)
    assert very_strong_color(col, 1, 8, 1) is True
    assert very_strong_color(col, 1, 8, 3) is True


# -- structure without a rainbow 2-matching ------------------------------


def test_m2_structure_examples():
    with pytest.raises(TooSmall):
        m2_structure(Collection.from_edge_lists(3, [[(0, 1)]]))

    stars = Collection.from_edge_lists(5, [[(1, 2)], [(1, 3)], [(1, 4)]])
    st = m2_structure(stars)
    assert st.kind == "common_vertex" and st.vertex == 1

    col = Collection.from_edge_lists(4, [[(0, 1), (2, 3)], [(0, 2)]])
    st = m2_structure(col)
    assert st.kind == "all_but_one_small" and st.exempt == 1

    col = Collection.from_edge_lists(4, [[(0, 1)], [(2, 3)]])
    st = m2_structure(col)
    assert st.kind == "has_rainbow_m2"
    st.witness.validate(col)


def test_m2_structure_trichotomy_300():
    rng = random.Random(0x1234)
    m2 = parse_pattern("M2")
    for _ in range(300):
        n = rng.randint(4, 8)
        t = rng.randint(1, 4)
        col = random_collection(rng, n, t, rng.choice([0.15, 0.4, 0.7]))
        st = m2_structure(col)
        has = find_rainbow_copy(col, m2) is not None
        union_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if col.colors_of(u, v)
        ]
        common = [v for v in range(n) if all(v in e for e in union_edges)]
        if st.kind == "has_rainbow_m2":
            assert has
            st.witness.validate(col)
        elif st.kind == "common_vertex":
            assert not has and common and st.vertex == min(common)
        else:
            assert not has and not common
            counts = col.edge_counts()
            assert all(
                c <= 4 for i, c in enumerate(counts, start=1) if i != st.exempt
            )


# -- star cover -----------------------------------------------------------


def test_star_cover_examples():
    col = Collection.from_edge_lists(4, [[], []])
    sc = star_cover(col, 0, 2)
    assert sc.witness is None and sc.cover == () and sc.exempt == ()

    col = Collection.from_edge_lists(4, [[(0, 1), (0, 2)], []])
    sc = star_cover(col, 0, 2)
    assert sc.witness is None
    assert len(sc.cover) <= 1 and len(sc.exempt) <= 1

    col = Collection.from_edge_lists(4, [[(0, 1)], [(0, 2)]])
    sc = star_cover(col, 0, 2)
    assert sc.witness is not None and sc.witness.vmap[0] == 0
    sc.witness.validate(col)


def test_star_cover_invariant_300():
    rng = random.Random(0x5C0)
    for _ in range(300):
        n = rng.randint(3, 9)
        t = rng.randint(1, 4)
        col = random_collection(rng, n, t, rng.choice([0.2, 0.5]))
        v = rng.randrange(n)
        p = rng.randint(1, 4)
        sc = star_cover(col, v, p)
        if sc.witness is not None:
            sc.witness.validate(col)
            assert sc.witness.vmap[0] == v
            continue
        assert len(sc.cover) <= p - 1 and len(sc.exempt) <= p - 1
        cover = set(sc.cover)
        for u in range(n):
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in cover:
                continue
            for c in col.colors_of(*e):
                assert c in sc.exempt, (col, v, p, sc)


def _brute_star(col, v, p):
    """(leaves, colors) of the lexicographically least rainbow S_p at v, by
    trying leaf sets in lexicographic order and color tuples likewise."""
    nbrs = [u for u in range(col.n) if u != v and col.colors_of(u, v)]
    for leaves in combinations(nbrs, p):
        for colors in permutations(range(1, col.t + 1), p):
            if all(c in col.colors_of(u, v) for u, c in zip(leaves, colors)):
                return leaves, colors
    return None


def _brute_star_size(col, v):
    """Most edges at v that take pairwise distinct colors."""
    return max(p for p in range(col.n) if p == 0 or _brute_star(col, v, p) is not None)


def test_star_cover_matches_brute_force_400():
    rng = random.Random(0x5C1)
    stars = covers = 0
    for _ in range(400):
        n = rng.randint(3, 8)
        t = rng.randint(1, 5)
        col = random_collection(rng, n, t, rng.choice([0.2, 0.5, 0.8]))
        v = rng.randrange(n)
        p = rng.randint(1, 5)
        sc = star_cover(col, v, p)
        brute = _brute_star(col, v, p)
        if brute is not None:
            assert sc.witness is not None
            assert (sc.witness.vmap, sc.witness.cmap) == ((v, *brute[0]), brute[1])
            stars += 1
            continue
        assert sc.witness is None
        # a Koenig cover: as many elements as a maximum matching, meeting every edge/color
        assert len(sc.cover) + len(sc.exempt) == _brute_star_size(col, v) < p, (col, v, p, sc)
        for u in range(n):
            e = (min(u, v), max(u, v))
            if u != v and e not in sc.cover:
                assert set(col.colors_of(*e)) <= set(sc.exempt), (col, v, p, sc)
        covers += 1
    assert stars > 50 and covers > 50


def test_star_cover_on_a_30_vertex_host():
    # every edge at 0 in all 3 colors: enumerating subsets of the 29 edges is hopeless
    star = [(0, u) for u in range(1, 30)]
    col = Collection.from_edge_lists(30, [star, star, star])
    assert star_cover(col, 0, 5) == StarCover(None, (), (1, 2, 3))
