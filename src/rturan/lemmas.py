"""Matching toolkit for collections: greedy growth, strong colors, covers.

The operations here are the executable counterparts of the standard
hand-proof steps used on rainbow matchings:

* two greedy procedures that grow a rainbow matching one color at a
  time from high-degree center vertices, and never fail under their
  stated degree preconditions;
* the exact "strong color" predicate (every rainbow matching of size at
  most s avoiding color i extends by an i-colored edge) together with
  three cheaply checkable sufficient conditions;
* its "very strong" variant quantifying over rainbow stars padded with
  isolated edges;
* the structure trichotomy of collections without a rainbow 2-matching;
* the rainbow-star-or-cover alternative at a fixed center vertex,
  computed from one maximum matching of the incident-edge/color
  bipartite graph: its Kőnig cover (edges plus exempt colors) has fewer
  than p elements in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .graphcore import Graph, _is_int, _vertices_in
from .collection import (
    Collection,
    matching_number_at_least,
    RainbowMatching,
    RainbowWitness,
    lexmin_distinct_colors,
    find_rainbow_copy,
    _ColorMatching,
    _colored_pairs,
    _rainbow_matchings,
)


class PreconditionViolated(ValueError):
    """A greedy procedure was invoked outside its guaranteed regime."""


class TooSmall(ValueError):
    """Host has too few vertices for the requested structure analysis."""


# ---------------------------------------------------------------------
# greedy rainbow matchings


def greedy_extend(
    col: Collection, m0: RainbowMatching, centers: dict[int, int], q: int
) -> RainbowMatching:
    """Grow a rainbow matching of colors 1..p to size q along center vertices.

    ``centers[i]`` for p < i <= q must be distinct vertices outside the
    matching with degree at least 2q-1 in color i.  Each step picks the
    smallest usable neighbor; at most 2q-2 vertices ever need avoiding,
    so the procedure cannot fail once the preconditions hold.
    """
    try:
        m0.validate(col)
    except ValueError as exc:
        raise PreconditionViolated(f"M0 invalid: {exc}") from exc
    p = m0.size
    if not _is_int(q):
        raise PreconditionViolated(f"target size q={q!r} is not an int")
    if set(m0.colors) != set(range(1, p + 1)):
        raise PreconditionViolated(f"M0 must use colors 1..{p}, got {sorted(m0.colors)}")
    if q < p:
        raise PreconditionViolated(f"target size {q} smaller than |M0|={p}")
    if q > col.t:
        raise PreconditionViolated(f"target size {q} exceeds t={col.t}")
    if set(centers) != set(range(p + 1, q + 1)):
        raise PreconditionViolated(
            f"centers must be keyed by colors {p + 1}..{q}, got {sorted(centers)}"
        )
    if len(set(centers.values())) != len(centers):
        raise PreconditionViolated("center vertices must be distinct")
    m0_vertices = m0.vertex_set()
    threshold = 2 * q - 1
    for i, v in centers.items():
        if not _vertices_in(col.n, [v]):
            raise PreconditionViolated(f"center {v} outside the vertex set")
        if v in m0_vertices:
            raise PreconditionViolated(f"center {v} lies inside M0")
        if col.graph(i).degree(v) < threshold:
            raise PreconditionViolated(
                f"center {v} has degree {col.graph(i).degree(v)} < {threshold} in color {i}"
            )

    avoid = sum(1 << v for v in m0_vertices | set(centers.values()))  # a vertex mask
    edges = list(m0.edges)
    for i in range(p + 1, q + 1):
        v = centers[i]
        free = col.graph(i).adj[v] & ~avoid
        assert free, "counting guarantees a free neighbor"
        u = (free & -free).bit_length() - 1  # the smallest usable neighbor
        avoid |= 1 << u
        edges.append((min(u, v), max(u, v)))
    out = RainbowMatching(tuple(edges), (*m0.colors, *range(p + 1, q + 1)))
    out.validate(col)
    return out


def greedy_from_degrees(col: Collection, q: int) -> RainbowMatching:
    """Build a rainbow matching of size q from per-color degree supplies.

    Requires color i (for each i <= q) to have at least i vertices of
    degree at least 2q-1.  Distinct centers are picked in increasing
    color order and handed to greedy_extend.
    """
    if not _is_int(q) or not 0 <= q <= col.t:
        raise PreconditionViolated(f"size {q} outside 0..t={col.t}")
    threshold = 2 * q - 1
    centers: dict[int, int] = {}
    used: set[int] = set()
    for i in range(1, q + 1):
        high = [v for v in range(col.n) if col.graph(i).degree(v) >= threshold]
        if len(high) < i:
            raise PreconditionViolated(
                f"color {i} has {len(high)} vertices of degree >= {threshold}, needs {i}"
            )
        v = next(v for v in high if v not in used)
        used.add(v)
        centers[i] = v
    return greedy_extend(col, RainbowMatching((), ()), centers, q)


# ---------------------------------------------------------------------
# strong colors


class StrongVerdict(Enum):
    BY_EDGE_COUNT = "ByEdgeCount"
    BY_LOW_DEGREE = "ByLowDegree"
    BY_BIG_MATCHING = "ByBigMatching"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class StrongColorEvidence:
    verdict: StrongVerdict


def _outside(col: Collection, i: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Color i's edges as vertex masks, and the colored pairs of
    ``_colored_pairs`` with color i taken out: what a strong-color test
    scans.  ``col.graph(i)`` checks i."""
    masks = [(1 << u) | (1 << v) for u, v in col.graph(i).edges()]
    return masks, _colored_pairs(col.color_table(), keep=~(1 << (i - 1)))


def _check_matching_size(s: int) -> None:
    """The s of the strong-color predicates is an int (not a bool), at
    least 0.  ``col.graph(i)`` checks their color first."""
    if not _is_int(s):
        raise ValueError(f"matching size s={s!r} is not an int")
    if s < 0:
        raise ValueError(f"matching size s={s} is negative")


def strong_color_exact(col: Collection, i: int, s: int) -> bool:
    """Exact strong-color predicate, by exhausting small rainbow matchings.

    True iff every rainbow matching of size s' <= s avoiding color i
    (including the empty one, so an empty color is never strong) leaves
    some edge of color i vertex-disjoint from it.  The empty matching
    comes first and meets no edge, so it settles an empty color.
    """
    gi_masks, pairs = _outside(col, i)
    _check_matching_size(s)
    return not any(all(m & used for m in gi_masks) for _, used in _rainbow_matchings(col.n, pairs, [], 0, s, 0))


def strong_color_sufficient(col: Collection, i: int, s: int) -> StrongColorEvidence:
    """First applicable sufficient condition for color i being strong.

    Checked in the order: edge surplus (more edges than can meet the at
    most 2s vertices of a matching of size s), big monochromatic
    matching, then the many-edges/few-hubs condition.  The degree
    threshold n/2s is compared in integers as 2s*deg >= n.

    The low-degree case carries one extra exact check: the edges among
    low-degree vertices must outnumber the largest possible number of
    them meeting any 2s such vertices.  At proof scale this is implied
    by the other two hypotheses; at small n it is not, and without it
    the verdict can contradict the exact predicate (a 5-vertex double
    broom whose middle pair carries another color already fails).
    """
    g = col.graph(i)
    _check_matching_size(s)
    n = col.n
    e = g.edge_count()
    k = min(2 * s, n)  # the edges meeting k vertices number at most k(n-k) + C(k,2)
    if e > k * (n - k) + k * (k - 1) // 2:
        return StrongColorEvidence(StrongVerdict.BY_EDGE_COUNT)
    if matching_number_at_least(g, 2 * s + 1):
        return StrongColorEvidence(StrongVerdict.BY_BIG_MATCHING)
    hubs = sum(1 << v for v in range(n) if 2 * s * g.degree(v) >= n)
    if e >= s * (n - s) and hubs.bit_count() < s:
        # degrees among the low-degree vertices, ascending; their edges number half the sum
        deg_in = sorted((g.adj[v] & ~hubs).bit_count() for v in range(n) if not hubs >> v & 1)
        if sum(deg_in) // 2 > sum(deg_in[-2 * s :]):  # more than the 2s largest can meet
            return StrongColorEvidence(StrongVerdict.BY_LOW_DEGREE)
    return StrongColorEvidence(StrongVerdict.UNKNOWN)


def very_strong_color(col: Collection, i: int, r: int, m: int) -> bool:
    """Strong-color variant against rainbow stars padded with isolated edges.

    True iff for every rainbow S_r plus up to m-1 further pairwise
    disjoint edges (all colors distinct, color i unused throughout),
    some edge of color i avoids every vertex of the configuration.
    Configurations without an actual S_r core are not quantified, but an
    empty color is never very strong.

    A center whose edges hold fewer than r distinct colors (one
    ``_ColorMatching`` pass) has no rainbow S_r and is skipped.  Elsewhere
    every r-subset of a center's edges is tried, exponential in r, because
    the definition quantifies over every rainbow star.
    """
    if not (_is_int(r) and _is_int(m)):
        raise ValueError(f"r={r!r} and m={m!r} must be ints")
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    gi_masks, pairs = _outside(col, i)
    if not gi_masks:
        return False
    for center in range(col.n):
        # leaves ascending: pairs (leaf, center) come before pairs (center, leaf)
        nbrs = [(v if u == center else u, cm) for u, v, cm in pairs if center in (u, v)]
        sdr = _ColorMatching()
        if sum(sdr.push(cm) for _, cm in nbrs) < r:  # a maximum matching: no rainbow S_r here
            continue
        for combo in combinations(nbrs, r):
            star_masks = [cm for _, cm in combo]
            used = 1 << center
            for leaf, _ in combo:
                used |= 1 << leaf
            # every padding by up to m-1 further edges must leave an i-edge free
            for _, padded in _rainbow_matchings(col.n, pairs, star_masks, used, m - 1, 0):
                if all(gm & padded for gm in gi_masks):
                    return False
    return True


# ---------------------------------------------------------------------
# structure without a rainbow 2-matching


@dataclass(frozen=True)
class M2Structure:
    """Trichotomy outcome: which of the three shapes the collection has."""

    kind: str  # "has_rainbow_m2" | "common_vertex" | "all_but_one_small"
    witness: RainbowWitness | None = None
    vertex: int | None = None
    exempt: int | None = None


def m2_structure(col: Collection) -> M2Structure:
    """Classify a collection by rainbow-2-matching structure.

    Either a rainbow 2-matching exists (witness returned), or some vertex
    meets every edge of every color (smallest such vertex returned), or
    every color except at most one has few edges (the color with the most
    edges is exempted, smallest index on ties).
    """
    if col.n < 4:
        raise TooSmall(f"need at least 4 vertices, have {col.n}")
    w = find_rainbow_copy(col, Graph.matching(2))
    if w is not None:
        return M2Structure(kind="has_rainbow_m2", witness=w)
    union = col.union_rows()
    for v in range(col.n):  # v meets every edge: no other vertex has a union neighbor besides v
        if not any(row & ~(1 << v) for u, row in enumerate(union) if u != v):
            return M2Structure(kind="common_vertex", vertex=v)
    counts = col.edge_counts()
    exempt = max(range(1, col.t + 1), key=lambda i: (counts[i - 1], -i))
    return M2Structure(kind="all_but_one_small", exempt=exempt)


# ---------------------------------------------------------------------
# rainbow star or small cover at a vertex


@dataclass(frozen=True)
class StarCover:
    """Either a rainbow star witness at v, or a small cover of exceptions.

    In the cover case every color outside ``exempt`` that appears on an
    edge incident to v appears only on ``cover`` edges.  The two parts
    form a Kőnig cover of the edge/color bipartite graph at v, so
    together they have fewer than p elements.
    """

    witness: RainbowWitness | None
    cover: tuple[tuple[int, int], ...] = ()
    exempt: tuple[int, ...] = ()


def star_cover(col: Collection, v: int, p: int) -> StarCover:
    """Rainbow S_p centered at v, or the Kőnig cover certificate.

    The edges at v are matched to distinct colors by one pass in leaf
    order, stopping once p are held.  The matchable edge sets form a
    transversal matroid, so greedy in index order holds the
    lexicographically least p leaves that take distinct colors; the star
    gets their least color assignment.  With fewer than p held the
    matching is maximum, of size nu < p.  The colors reachable by
    alternating paths from the edges left out are exempt, and the held
    edges whose color is not reached form the cover (Kőnig 1931):
    |cover| + |exempt| = nu.
    """
    if not _is_int(p):
        raise ValueError(f"p={p!r} is not an int")
    if p < 1:
        raise ValueError("p must be at least 1")
    if not _vertices_in(col.n, [v]):
        raise ValueError(f"vertex {v} outside 0..{col.n - 1}")
    masks = col.color_table()[v]
    sdr = _ColorMatching()
    held: list[int] = []  # leaves whose edge holds a color, ascending
    left_out = 0  # colors of the edges that found none
    for u in range(col.n):
        if len(held) == p:
            break
        cm = masks[u]  # 0 at u == v and off the edges
        if cm and sdr.push(cm):
            held.append(u)
        else:
            left_out |= cm

    if len(held) == p:
        witness = RainbowWitness(Graph.star(p), (v, *held), lexmin_distinct_colors(sdr.masks))
        witness.validate(col)
        return StarCover(witness=witness)

    # every color reached from a left-out edge is held (the matching is
    # maximum), and its holder reaches the colors of its own mask
    exempt = reached = left_out
    while reached:
        grown = 0
        for bit, mask in zip(sdr.bits, sdr.masks):
            if bit & reached:
                grown |= mask
        reached = grown & ~exempt
        exempt |= reached
    cover = tuple((min(u, v), max(u, v)) for u, bit in zip(held, sdr.bits) if not bit & exempt)
    exempt_colors = tuple(c + 1 for c in range(col.t) if exempt >> c & 1)
    if not len(cover) + len(exempt_colors) == len(held) < p:
        raise AssertionError("star cover is not a minimum vertex cover of the leaf-color graph")
    return StarCover(witness=None, cover=cover, exempt=exempt_colors)
