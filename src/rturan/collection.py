"""Graph collections, rainbow-copy detection, and the nesting transform.

A collection is an ordered list of t graphs G_1..G_t on one shared vertex
set; index i is the "color" of that graph.  A rainbow copy of a pattern F
is an injective embedding of F into the union of the collection together
with an injective assignment of pattern edges to colors such that every
edge is present in its assigned color.  Detection separates the two
concerns: embeddings are enumerated by backtracking over the union graph,
and for each embedding the color assignment is decided as a system of
distinct representatives (maximum bipartite matching between pattern
edges and colors), so the color choice never costs a factorial factor.

Colors are 1-based everywhere in the public interface, matching the
.rcol file format.

Plain containment in one graph (``contains_subgraph``) is answered here
too, by the same kernels without the color layer, and the matching number
(``matching_number_at_least``) by Edmonds' blossom algorithm, which also
bounds rainbow matchings from above (``_no_rainbow_matching``).

Every check here is exact for any pattern, isolated vertices included.
The searches of ``search`` reach the anchored and vertex-seeded checks only
with members that passed ``search._split_family``, so without isolated
vertices, and under the node budget that ``search._Budget`` owns; no check
here takes a budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .graphcore import MAX_VERTICES, Graph, PatternFamily, _is_int, _vertices_in

__all__ = [
    "Collection",
    "RainbowWitness",
    "RainbowMatching",
    "FormatError",
    "RangeError",
    "codec_read",
    "codec_write",
    "contains_subgraph",
    "matching_number_at_least",
    "find_rainbow_copy",
    "rainbow_copy_exists",
    "is_rainbow_free",
    "max_rainbow_matching",
    "nest_transform",
]


class FormatError(ValueError):
    """Malformed .rcol content; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ValueError):
    """Vertex or color index outside the declared ranges."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, repr=False)
class Collection:
    """Ordered graphs (G_1, ..., G_t) on a common n-vertex set.

    Equality and hashing read ``graphs`` alone; ``n``, ``t`` and the
    memoized color table follow from it."""

    graphs: tuple[Graph, ...]
    n: int = field(init=False, compare=False)
    t: int = field(init=False, compare=False)
    _table: tuple[tuple[int, ...], ...] | None = field(init=False, compare=False, default=None)

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("collection needs at least one color")
        if not all(isinstance(g, Graph) for g in graphs):
            raise ValueError(f"collection colors must be Graphs, got {graphs!r}")
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ValueError("all graphs must share the vertex count")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", len(graphs))

    @classmethod
    def from_edge_lists(cls, n: int, edge_lists) -> "Collection":
        return cls([Graph.from_edges(n, edges) for edges in edge_lists])

    def graph(self, color: int) -> Graph:
        """Graph of a 1-based color.  The one check of a color argument:
        anything but an int in 1..t (a bool too) raises ValueError."""
        if not _is_int(color) or not 1 <= color <= self.t:
            raise ValueError(f"color {color} outside 1..{self.t}")
        return self.graphs[color - 1]

    def color_table(self) -> tuple[tuple[int, ...], ...]:
        """The view the detector internals take: ``table[u][v]`` has bit i set
        iff color i+1 contains the pair uv.  Built once, on first use."""
        if self._table is None:
            table = [[0] * self.n for _ in range(self.n)]
            for i, g in enumerate(self.graphs):
                bit = 1 << i
                for u, row in enumerate(g.adj):
                    cells = table[u]
                    while row:
                        low = row & -row
                        cells[low.bit_length() - 1] |= bit
                        row ^= low
            object.__setattr__(self, "_table", tuple(map(tuple, table)))
        return self._table

    def union_rows(self) -> list[int]:
        rows = [0] * self.n
        for g in self.graphs:
            for v in range(self.n):
                rows[v] |= g.adj[v]
        return rows

    def colors_of(self, u: int, v: int) -> list[int]:
        """1-based colors whose graph contains the edge uv."""
        if not _vertices_in(self.n, (u, v)):
            raise ValueError(f"pair ({u}, {v}) outside 0..{self.n - 1}")
        return [i + 1 for i, g in enumerate(self.graphs) if g.has_edge(u, v)]

    def edge_counts(self) -> tuple[int, ...]:
        return tuple(g.edge_count() for g in self.graphs)

    def __repr__(self):
        return f"Collection(n={self.n}, t={self.t}, edges={self.edge_counts()})"


@dataclass(frozen=True)
class RainbowWitness:
    """Certificate of a rainbow copy: vertex embedding plus edge colors.

    ``vmap[p]`` is the host vertex of pattern vertex p; ``cmap[k]`` is the
    1-based color of the k-th pattern edge in ``pattern.edges()`` order.
    """

    pattern: Graph
    vmap: tuple[int, ...]
    cmap: tuple[int, ...]

    def validate(self, col: Collection) -> None:
        if len(self.vmap) != self.pattern.n:
            raise ValueError("vmap does not cover the pattern vertices")
        if len(set(self.vmap)) != len(self.vmap):
            raise ValueError("vmap not injective")
        if not _vertices_in(col.n, self.vmap):
            raise ValueError("vmap leaves the host vertex set")
        _check_colors(col, [(self.vmap[a], self.vmap[b]) for a, b in self.pattern.edges()], self.cmap)


@dataclass(frozen=True)
class RainbowMatching:
    """Vertex-disjoint edges with pairwise distinct colors (1-based)."""

    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def validate(self, col: Collection) -> None:
        ends = self.vertex_set()
        if len(ends) != 2 * self.size:
            raise ValueError("edges not vertex-disjoint")
        if not _vertices_in(col.n, ends):
            raise ValueError("edges leave the host vertex set")
        _check_colors(col, self.edges, self.colors)


def _check_colors(col: Collection, pairs, colors) -> None:
    """Each host pair lies in its own 1-based color: one color per pair,
    no color twice (``Collection.graph`` checks each color)."""
    if len(pairs) != len(colors):
        raise ValueError("edge/color length mismatch")
    if len(set(colors)) != len(colors):
        raise ValueError("colors not injective")
    for (u, v), c in zip(pairs, colors):
        if not col.graph(c).has_edge(u, v):
            raise ValueError(f"edge {(u, v)} missing from color {c}")


# ---------------------------------------------------------------------
# .rcol codec


def codec_write(col: Collection, path: str) -> None:
    lines = ["rcol 1", f"n {col.n}", f"t {col.t}"]
    for i in range(1, col.t + 1):
        lines.append(f"color {i}")
        lines.extend(f"{u} {v}" for u, v in col.graph(i).edges())
    lines.append("end")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# plain ASCII digits only: str.isdigit() and int() also accept "²", "+0", "1_1"
_NUMERAL = re.compile("[0-9]+")
# fields are printable ASCII separated by exactly one space; str.split()
# would also split on tabs, doubled spaces and control characters
_FIELDS = re.compile("[!-~]+(?: [!-~]+)*")


def _value(numeral: str) -> int:
    """Value of a numeral, read as 10**18 past 18 significant digits: that
    is beyond every legal count and index, and int() refuses numerals of
    more than 4,300 digits."""
    digits = numeral.lstrip("0")
    return int(digits or "0") if len(digits) <= 18 else 10**18


def codec_read(path: str) -> Collection:
    with open(path, "rb") as fh:
        raw = fh.read()

    def fail(msg: str, no: int):
        raise FormatError(msg, no)

    def fields(no: int) -> list[str]:
        line = lines[no - 1]
        if not _FIELDS.fullmatch(line):
            fail(f"malformed line {line!r}: fields are separated by single spaces", no)
        return line.split(" ")

    def count(no: int, name: str) -> int:
        parts = fields(no)
        if len(parts) != 2 or parts[0] != name or not _NUMERAL.fullmatch(parts[1]):
            fail(f"expected '{name} <count>'", no)
        return _value(parts[1])

    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        fail("non-ASCII byte", raw.count(b"\n", 0, exc.start) + 1)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "rcol 1":
        fail("expected header 'rcol 1'", 1)
    if len(lines) < 3:
        fail("truncated header", len(lines))
    n = count(2, "n")
    if not 1 <= n <= MAX_VERTICES:
        fail(f"vertex count {n} outside 1..{MAX_VERTICES}", 2)
    t = count(3, "t")
    if t < 1:
        fail("need at least one color", 3)

    edge_lists: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] | None = None
    seen: set[tuple[int, int]] = set()
    ended = False
    for no, line in enumerate(lines[3:], start=4):
        if ended:
            fail("content after 'end'", no)
        if line == "end":
            ended = True
            continue
        parts = fields(no)
        if len(parts) == 2 and parts[0] == "color":
            if not _NUMERAL.fullmatch(parts[1]):
                fail("malformed color index", no)
            idx = _value(parts[1])
            if idx > t:
                raise RangeError(f"color {idx} exceeds declared t={t}", no)
            if idx != len(edge_lists) + 1:
                fail(f"expected 'color {len(edge_lists) + 1}', got 'color {idx}'", no)
            current = []
            seen = set()
            edge_lists.append(current)
            continue
        if len(parts) == 2:
            if current is None:
                fail("edge before first color header", no)
            if not (_NUMERAL.fullmatch(parts[0]) and _NUMERAL.fullmatch(parts[1])):
                fail(f"malformed edge line {line!r}", no)
            u, v = _value(parts[0]), _value(parts[1])
            if u == v:
                fail(f"loop edge '{u} {v}'", no)
            if u > v:
                fail(f"edge '{u} {v}' not in increasing order", no)
            if v >= n:
                raise RangeError(f"vertex in '{u} {v}' outside 0..{n - 1}", no)
            if (u, v) in seen:
                fail(f"duplicate edge '{u} {v}'", no)
            seen.add((u, v))
            current.append((u, v))
            continue
        fail(f"unrecognized line {line!r}", no)
    if not ended:
        fail("missing 'end'", len(lines))
    if len(edge_lists) != t:
        raise FormatError(f"found {len(edge_lists)} colors, declared {t}", len(lines))
    return Collection.from_edge_lists(n, edge_lists)


# ---------------------------------------------------------------------
# color assignment as a system of distinct representatives


class _ColorMatching:
    """A live assignment of items to distinct bits of their masks.

    Items are edges and bits are colors; ``bits[i]`` is the single bit
    that item i holds, 0 while it holds none, and ``held`` is the union of
    the bits held.  The searches use it as a stack: ``push`` admits an item
    only if all items can then hold distinct bits, ``truncate`` drops the
    last items and frees their bits, and the items left stay validly
    assigned, so a push costs at most one augmenting search, not a
    matching from scratch.
    """

    __slots__ = ("masks", "bits", "held", "_seen")

    def __init__(self):
        self.masks: list[int] = []
        self.bits: list[int] = []
        self.held = 0
        self._seen = 0  # bits tried by the current augmenting search

    def push(self, mask: int) -> bool:
        """Append an item if the items can still take distinct bits."""
        free = mask & ~self.held
        self.masks.append(mask)
        if free:  # the lowest free bit leaves every other item in place
            low = free & -free
            self.bits.append(low)
            self.held |= low
            return True
        # one augmenting search from the new item, which holds bit 0 meanwhile
        self._seen = 0
        self.bits.append(0)
        if self._augment(len(self.bits) - 1):
            return True
        self.masks.pop()
        self.bits.pop()
        return False

    def truncate(self, size: int) -> None:
        """Drop every item after the first ``size``."""
        self.held -= sum(self.bits[size:])  # held bits are distinct: their sum is their union
        del self.bits[size:]
        del self.masks[size:]

    def _augment(self, i: int) -> bool:
        m = self.masks[i] & ~self._seen
        while m:
            low = m & -m
            m ^= low
            if self._seen & low:
                continue
            self._seen |= low
            if not self.held & low:
                self.held |= low  # the free bit that ends the path
            elif not self._augment(self.bits.index(low)):
                continue
            self.bits[i] = low
            return True
        return False


def assign_distinct_colors(masks: list[int]) -> list[int] | None:
    """Match each item to its own bit of its mask (0-based bit indices).

    Returns one chosen bit per item, or None when Hall's condition fails.
    """
    sdr = _ColorMatching()
    if not all(sdr.push(m) for m in masks):
        return None
    return [low.bit_length() - 1 for low in sdr.bits]


def lexmin_distinct_colors(masks: list[int]) -> tuple[int, ...] | None:
    """Lexicographically smallest color assignment, item by item, as the
    1-based colors a witness records (bit i is color i + 1)."""
    fixed = list(masks)
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            m ^= low
            fixed[i] = low
            if assign_distinct_colors(fixed) is not None:
                break
        else:
            return None
    return tuple(low.bit_length() for low in fixed)


# ---------------------------------------------------------------------
# compiled pattern plans


class _Plan:
    """Embedding orders of one pattern, compiled once per pattern.

    An order is a tuple of steps (pattern vertex, its degree, its neighbors
    placed at earlier steps or seeded before the first one).  Apart from
    ``index``, orders cover the edge-touching vertices, most constrained
    first: most placed neighbors, then highest degree, then lowest index.
    The anchored and seeded orders are built on first use, since plain
    detection of a large pattern never needs them.

    They are kept for one arc or vertex per orbit of the pattern's
    automorphism group (``_orbit_reps``), each with the order after seeding
    it.  If an automorphism s maps arc (a, b) to (a', b'), an embedding f
    with f(a') = u and f(b') = v gives the embedding x -> f(s(x)), which
    puts a on u and b on v.  Both have the same image edges, so the same
    colors, and the same host edge lands on uv, so one seeding finds a copy
    exactly when the other does.  The same holds for a single vertex.  The
    order in which a step's placed neighbors are listed changes only the
    order of color pushes, and whether a set of color masks takes distinct
    colors does not depend on that order.
    """

    def __init__(self, pattern: Graph):
        edges = tuple(pattern.edges())
        degrees = [pattern.degree(v) for v in range(pattern.n)]
        self.pattern = pattern
        self.edges = edges
        self.core = _greedy_order(pattern, ())  # all edge-touching vertices, nothing seeded
        self.index = _steps(pattern, list(range(pattern.n)), 0)  # for lexicographically smallest witnesses
        # no vertex of degree above 1: searched as sets of disjoint pairs
        self.matching = max(degrees) <= 1
        # Graph.matching(k) itself, edge i = (2i, 2i+1)
        self.labelled_matching = pattern.n == 2 * len(edges) and edges == tuple(
            (2 * i, 2 * i + 1) for i in range(len(edges))
        )

    @cached_property
    def anchored(self) -> tuple:
        """(a, b, order after seeding a and b) per arc-orbit representative:
        the pattern arc (a, b) goes onto the host pair in its given order."""
        arcs = [arc for a, b in self.edges for arc in ((a, b), (b, a))]
        return tuple((a, b, steps) for (a, b), steps in _orbit_reps(self.pattern, arcs))

    @cached_property
    def seeded(self) -> tuple:
        """(v, its degree, order after seeding v) per vertex-orbit
        representative v: the vertex-seeded check runs once per extension
        of orderly generation, so it reads no checked ``Graph.degree``."""
        vertices = [(v,) for v in range(self.pattern.n)]
        return tuple((v, self.pattern.degree(v), steps) for (v,), steps in _orbit_reps(self.pattern, vertices))


def _orbit_reps(pattern: Graph, candidates) -> list[tuple[tuple[int, ...], tuple]]:
    """(seeds, order after seeding them) for each candidate seed tuple that
    no automorphism maps an earlier kept one onto: the first of each orbit."""
    reps: list[tuple[tuple[int, ...], tuple]] = []
    for seeds in candidates:
        if not any(_automorphic(pattern, steps, kept, seeds) for kept, steps in reps):
            reps.append((seeds, _greedy_order(pattern, seeds)))
    return reps


def _automorphic(pattern: Graph, steps, seeds: tuple[int, ...], images: tuple[int, ...]) -> bool:
    """Does an automorphism of the pattern map the seeds onto the images?

    ``steps`` is the order after seeding ``seeds``, and two seeds must be an
    edge, as must two images.  A plain embedding of the pattern into itself
    is injective and maps edges to edges; with as many edges on both sides,
    it permutes the edges and so the edge-touching vertices.  Permuting the
    isolated vertices among themselves completes it to an automorphism.
    """
    if any(pattern.degree(s) != pattern.degree(i) for s, i in zip(seeds, images)):
        return False
    vmap = [-1] * pattern.n
    used = 0
    for s, i in zip(seeds, images):
        vmap[s] = i
        used |= 1 << i
    return _embed(steps, vmap, used, _ColorMatching(), None, pattern.adj)


def _steps(pattern: Graph, order: list[int], start: int) -> tuple:
    return tuple(
        (v, pattern.degree(v), tuple(u for u in order[:i] if pattern.has_edge(u, v)))
        for i, v in enumerate(order)
        if i >= start
    )


def _greedy_order(pattern: Graph, seeds: tuple[int, ...]) -> tuple:
    order = list(seeds)
    left = [v for v in range(pattern.n) if pattern.adj[v] and v not in seeds]
    while left:
        nxt = max(
            left,
            key=lambda v: (
                sum(1 for u in order if pattern.has_edge(u, v)),
                pattern.degree(v),
                -v,
            ),
        )
        order.append(nxt)
        left.remove(nxt)
    return _steps(pattern, order, len(seeds))


@lru_cache(maxsize=1024)
def _plan(pattern: Graph) -> _Plan:
    return _Plan(pattern)


# ---------------------------------------------------------------------
# the embedding backtracker and the pair-subset search


def _embed(steps, vmap: list[int], used: int, sdr: _ColorMatching, table, union_rows) -> bool:
    """Complete a pre-seeded embedding along ``steps``.

    ``vmap`` maps pattern vertices to host vertices (-1 where unplaced),
    ``used`` is the host vertex mask of the seeds and ``sdr`` holds the
    color masks of the pattern edges among them.  Host candidates are tried
    in ascending order and every partial embedding must keep a system of
    distinct representatives, so the first completion is the
    lexicographically smallest in step order.  On success ``vmap`` holds
    the embedding; on failure ``sdr`` is back to the items it came with.

    Each pattern edge placed is one push onto ``sdr``, dropped again when
    its vertex is taken back.  The color mask of host pair uv is
    ``table[u][v]`` (see ``Collection.color_table``), and ``union_rows``
    are the adjacency rows of the union of the colors.  A candidate with
    fewer union neighbors than its pattern vertex's degree is skipped
    before any push.

    With ``table`` None the embedding is plain (no color layer):
    ``union_rows`` is the one host graph, every candidate already has the
    back edges, and ``sdr`` is not read.
    """
    full = (1 << len(union_rows)) - 1
    last = len(steps)
    push, truncate, items = sdr.push, sdr.truncate, sdr.bits

    def extend(idx: int, used: int) -> bool:
        if idx == last:
            return True
        pv, degree, back = steps[idx]
        cand = full & ~used
        for u in back:
            cand &= union_rows[vmap[u]]
        while cand:
            low = cand & -cand
            hv = low.bit_length() - 1
            cand ^= low
            if union_rows[hv].bit_count() < degree:
                continue  # too few neighbors in the union for this pattern vertex
            if table is None:
                vmap[pv] = hv
                if extend(idx + 1, used | low):
                    return True
                continue
            size = len(items)
            cells = table[hv]
            for u in back:
                if not push(cells[vmap[u]]):
                    break
            else:
                vmap[pv] = hv
                if extend(idx + 1, used | low):
                    return True
            if len(items) > size:
                truncate(size)
        return False

    return extend(0, used)


def _colored_pairs(table, skip: int = 0, keep: int = -1) -> list[tuple[int, int, int]]:
    """(u, v, table[u][v] & keep) of every pair u < v outside the vertex
    mask ``skip`` whose masked color set is nonempty, in lexicographic
    order; ``table`` is a color table (see ``Collection.color_table``)."""
    pairs = []
    for u, cells in enumerate(table):
        if skip >> u & 1:
            continue
        for v in range(u + 1, len(cells)):
            if skip >> v & 1:
                continue
            cm = cells[v] & keep
            if cm:
                pairs.append((u, v, cm))
    return pairs


def _rainbow_matchings(n: int, pairs, init_masks: list[int], used: int, limit: int, floor: int):
    """Yield the rainbow matchings drawn from ``pairs`` with at least
    ``floor`` pairs, as (picked, used).

    A rainbow matching here is a set of at most ``limit`` pairs, disjoint
    from each other and from the vertex mask ``used``, whose color masks
    admit distinct colors alongside ``init_masks``.  ``picked`` lists the
    pair indices (one list, mutated as the search goes on) and ``used``
    the vertices, the initial ones included.  Sets come in lexicographic
    order of their index lists, each before its extensions; sets that
    cannot grow to the floor are not extended.  Nothing is yielded when
    ``init_masks`` alone admit no distinct colors.  Each picked pair is one
    push onto a ``_ColorMatching``, dropped on return.

    Matchings are searched as pair subsets rather than labeled embeddings;
    a matching on 2k vertices has k! 2^k labelings.
    """
    sdr = _ColorMatching()
    base = len(init_masks)  # items the SDR holds before any pair is picked
    picked: list[int] = []
    vertices = [(1 << u) | (1 << v) for u, v, _ in pairs]

    def dfs(idx: int, used: int):
        size = len(picked)
        need = floor - size  # pairs still to add before the floor is met
        if need <= 0:
            yield picked, used
            need = 1
        if size + need > limit or (n - used.bit_count()) // 2 < need:
            return
        for j in range(idx, len(pairs) - need + 1):
            m = vertices[j]
            if m & used:
                continue
            if sdr.push(pairs[j][2]):
                picked.append(j)
                yield from dfs(j + 1, used | m)
                picked.pop()
                sdr.truncate(size + base)

    if all(sdr.push(m) for m in init_masks):
        yield from dfs(0, used)


def _matching_exists_with(
    table, size: int, init_masks: list[int], banned_vmask: int
) -> tuple[tuple[int, int], ...] | None:
    """Rainbow matching of the given size avoiding banned vertices, with
    colors jointly assignable alongside the already fixed ``init_masks``:
    its host pairs, or None when there is none.  Size 0 gives the empty
    tuple whenever ``init_masks`` admit distinct colors."""
    pairs = _colored_pairs(table, banned_vmask)
    found = next(_rainbow_matchings(len(table), pairs, init_masks, banned_vmask, size, size), None)
    return None if found is None else tuple(pairs[j][:2] for j in found[0])


# ---------------------------------------------------------------------
# the matching number, by Edmonds' blossom algorithm


def _plain_matching(rows, k: int) -> bool:
    """Whether the graph with adjacency ``rows`` has k disjoint edges."""
    return k <= 0 or 2 * k <= len(rows) and _matching(rows, k).count(-1) <= len(rows) - 2 * k


def _matching_number(rows) -> int:
    """ν of the graph with adjacency ``rows``."""
    return (len(rows) - _matching(rows, len(rows)).count(-1)) // 2


def _matching(rows, k: int) -> list[int]:
    """A matching of the graph with adjacency ``rows``, as each vertex's
    mate (-1 when unmatched): one of k edges, or a maximum one when the
    graph has fewer.

    A greedy pass in lexicographic pair order comes first.  Then Edmonds'
    blossom algorithm (Canad. J. Math. 1965) searches one augmenting path
    from each unmatched vertex in turn, O(n^3) in all: a vertex with no
    augmenting path keeps none after later augmentations, so one pass over
    the vertices ends at a maximum matching.
    """
    mate = [-1] * len(rows)
    size = 0
    used = 0
    for u, row in enumerate(rows):
        free = 0 if used >> u & 1 else row >> u << u & ~used  # unmatched neighbors above u
        if free:
            w = (free & -free).bit_length() - 1
            mate[u], mate[w] = w, u
            used |= 1 << u | 1 << w
            size += 1
    for root in range(len(rows)):
        if size >= k:
            break
        if mate[root] < 0 and rows[root] and _augment(rows, mate, root):
            size += 1
    return mate


def _augment(rows, mate: list[int], root: int) -> bool:
    """Grow an alternating tree from the unmatched vertex root and flip the
    first augmenting path it finds; False when there is none.

    Outer vertices (the root, and the mates of inner ones) are searched in
    breadth-first order.  An edge between two outer vertices of one tree
    closes an odd cycle, a blossom, which is contracted by pointing every
    vertex in it at one ``base`` vertex; ``parent`` stores the even paths
    through it, so a path leaving the blossom can be expanded when flipped.
    """
    n = len(rows)
    base = list(range(n))
    parent = [-1] * n  # the outer vertex an inner vertex was reached from
    outer = 1 << root
    queue = [root]

    def common_base(a: int, b: int) -> int:
        seen = 0
        while True:  # from a up to the root
            a = base[a]
            seen |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not seen >> base[b] & 1:
            b = parent[mate[base[b]]]
        return base[b]

    def walk(v: int, top: int, child: int) -> int:
        """Bases on the tree path from v up to the blossom base top, with
        ``parent`` pointed across the new blossom's edge."""
        bases = 0
        while base[v] != top:
            bases |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return bases

    for v in queue:  # the queue grows while it is read
        row = rows[v]
        while row:
            low = row & -row
            row ^= low
            w = low.bit_length() - 1
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or mate[w] >= 0 and parent[mate[w]] >= 0:  # w is outer: a blossom
                top = common_base(v, w)
                bases = walk(v, top, w) | walk(w, top, v)
                for x in range(n):
                    if bases >> base[x] & 1:
                        base[x] = top
                        if not outer >> x & 1:
                            outer |= 1 << x
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:  # augmenting path root .. v w: flip it
                    while w >= 0:
                        v = parent[w]
                        nxt = mate[v]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return True
                outer |= 1 << mate[w]
                queue.append(mate[w])
    return False


# ---------------------------------------------------------------------
# rainbow-copy detection, and plain containment in one graph


def rainbow_copy_exists(col: Collection, pattern: Graph) -> bool:
    """Fast existence test; equivalent to find_rainbow_copy(...) is not None."""
    return _exists(col, col.union_rows(), _plan(pattern))


def _exists(col: Collection | None, union_rows, plan: _Plan) -> bool:
    """Rainbow copy of the plan's pattern in the collection whose union has
    rows ``union_rows``, or with ``col`` None a plain copy in the graph
    ``union_rows``.  A rainbow matching is first bounded by color sets
    (``_no_rainbow_matching``), and searched only when no bound refutes it."""
    if plan.pattern.n > len(union_rows):
        return False
    m = len(plan.edges)
    if m == 0:
        return True
    table = None
    if col is None:
        if plan.matching:
            return _plain_matching(union_rows, m)
    elif m > col.t:
        return False
    else:
        table = col.color_table()
        if plan.matching:
            if _no_rainbow_matching(col, union_rows, m):
                return False
            return _matching_exists_with(table, m, [], 0) is not None
    return _embed(plan.core, [-1] * plan.pattern.n, 0, _ColorMatching(), table, union_rows)


def _no_rainbow_matching(col: Collection, union_rows, k: int) -> bool:
    """Whether a color-set bound shows that the collection, whose union has
    rows ``union_rows``, has no rainbow matching of k edges.  False proves
    nothing.

    A rainbow matching takes at most one edge from each color of a set
    ``paid``, and its other edges form a matching of the union of the
    colors outside ``paid``, so it has at most |paid| + ν(that union)
    edges: with S the colors outside ``paid``, (t − |S|) + ν(∪S).  Paying
    for an empty color never helps, so the sets tried form one chain: all
    nonempty colors paid (the pigeonhole case), then they are unpaid one by
    one in increasing order of their own ν.  On every call of the certify
    and search benchmark workloads and on the soundness test's draws
    (t <= 5) this refutes exactly what all sets of nonempty colors refute.

    Paying nothing asks whether ν of the whole union is below k.  If not,
    a matching of at least k edges of that union keeps its edges that have
    a color outside ``paid``, and they bound ν from below; only a set they
    leave able to refute gets the exact ν, by the blossom
    (``_plain_matching``).
    """
    table = col.color_table()
    masks = [table[u][w] for u, w in enumerate(_matching(union_rows, k)) if u < w]
    if len(masks) < k:  # nothing paid: ν of the whole union
        return True
    adj = [g.adj for g in col.graphs]
    colors = sorted((i for i, rows in enumerate(adj) if any(rows)), key=lambda i: _matching_number(adj[i]))
    paid = sum(1 << i for i in colors)
    rows = [0] * col.n  # the union of the colors outside paid
    for i in colors:
        need = k - paid.bit_count()  # edges the colors outside paid must supply
        if need > 0 and sum(1 for mask in masks if mask & ~paid) < need and not _plain_matching(rows, need):
            return True
        paid &= ~(1 << i)
        rows = [r | a for r, a in zip(rows, adj[i])]
    return False


def _exists_using_pair(
    table, union_rows, plan: _Plan, pair: tuple[int, int], forced_color: int | None, copies: dict
) -> bool:
    """Existence of a rainbow copy of the plan's pattern F whose embedding
    uses the given host pair.

    When ``forced_color`` (1-based) is set, the pattern edge landing on the
    pair must take that color.  This is the incremental check used by the
    searches: after adding one edge to one color, any new rainbow copy must
    route through that (pair, color).  Only one pattern arc per orbit of the
    pattern's automorphism group is seeded on the pair (see ``_Plan``): a
    copy seeded by another arc of the orbit is the same copy relabelled.
    The host is t colors on n vertices, ``table[u][v]`` the color mask of
    pair uv (see ``Collection.color_table``) and ``union_rows`` their
    union's rows.

    Precondition, met by the callers' member filtering (``_split_family``,
    ``live``) and not re-checked here: 1 <= e(F) <= t and v(F) <= n.  An
    edgeless F would report its empty copy; a larger F wastes a search.

    ``copies``, a dict the caller owns, holds residual copies: for each
    (pattern, pair, forced color) asked about, the other host pairs of the
    last copy found through the pair.  A search asks about the same pair
    again and again while the table around it barely changes, so that copy
    is re-checked first: if the anchor and its pairs' current color masks
    take distinct colors, it is still a rainbow copy.  Otherwise the full
    search runs and stores the copy it finds.  The answer does not depend
    on what the dict holds (a fresh ``{}`` gives the same answer), and it
    keeps at most one entry per pattern, pair and forced color: members x
    pairs x (t + 1) for a search.
    """
    m = len(plan.edges)
    pu, pv = pair
    anchor = table[pu][pv]
    if forced_color is not None:
        anchor &= 1 << (forced_color - 1)
    if anchor == 0:
        return False
    sdr = _ColorMatching()
    sdr.push(anchor)
    key = (plan, pair, forced_color)
    last = copies.get(key)
    if last is not None:
        if all(sdr.push(table[x][y]) for x, y in last):
            return True
        sdr.truncate(1)  # back to the anchor alone
    seeds = (1 << pu) | (1 << pv)
    if plan.matching:
        found = _matching_exists_with(table, m - 1, [anchor], seeds)
    else:
        found = None
        for a, b, steps in plan.anchored:
            vmap = [-1] * plan.pattern.n
            vmap[a], vmap[b] = pu, pv
            if _embed(steps, vmap, seeds, sdr, table, union_rows):
                found = tuple((vmap[x], vmap[y]) for x, y in plan.edges if {x, y} != {a, b})
                break
    if found is None:
        return False
    copies[key] = found
    return True


def find_rainbow_copy(col: Collection, pattern: Graph) -> RainbowWitness | None:
    """Lexicographically smallest rainbow copy of the pattern, if any.

    Pattern vertices are embedded in index order with host candidates
    ascending, so the first completable embedding has the smallest vmap;
    its color assignment is then minimized edge by edge.  For M<k> itself
    pair subsets in lexicographic order give vmaps in lexicographic order,
    so the first rainbow k-matching is taken instead.  Edgeless patterns
    on k vertices have a (vacuous) copy exactly when n >= k.
    """
    if pattern.n > col.n:
        return None
    plan = _plan(pattern)
    m = len(plan.edges)
    if m == 0:
        return RainbowWitness(pattern, tuple(range(pattern.n)), ())
    if m > col.t:
        return None
    table = col.color_table()
    if plan.labelled_matching:
        found = _matching_exists_with(table, m, [], 0)
        if found is None:
            return None
        vmap = [x for pair in found for x in pair]
    else:
        vmap = [-1] * pattern.n
        if not _embed(plan.index, vmap, 0, _ColorMatching(), table, col.union_rows()):
            return None
    masks = [table[vmap[a]][vmap[b]] for a, b in plan.edges]
    return RainbowWitness(pattern, tuple(vmap), lexmin_distinct_colors(masks))


def is_rainbow_free(col: Collection, family: PatternFamily) -> bool:
    """No member of the family has a rainbow copy in the collection."""
    union_rows = col.union_rows()
    return not any(_exists(col, union_rows, _plan(f)) for f in family)


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """Whether host contains pattern as a (not necessarily induced) subgraph."""
    return _exists(None, host.adj, _plan(pattern))


def matching_number_at_least(g: Graph, k: int) -> bool:
    """Whether g contains k pairwise disjoint edges (always for k <= 0)."""
    if not _is_int(k):
        raise ValueError(f"k={k!r} is not an int")
    return _plain_matching(g.adj, k)


def _exists_through_vertex(rows, plan: _Plan, anchor: int) -> bool:
    """Whether the graph ``rows`` holds a plain copy of the plan's pattern
    that uses the host vertex anchor.

    A copy places every pattern vertex, so none fits a smaller host.  A
    perfect matching needs an edge at the anchor and as many disjoint
    edges (a maximum matching can swap that edge in).  Other patterns seed
    one vertex per automorphism orbit on the anchor (see ``_Plan``).

    The caller compiles ``plan`` (``_plan``) once for all its checks; each
    path is exact for every pattern and host, so nothing is guarded.
    """
    if plan.pattern.n > len(rows):
        return False
    if plan.matching and plan.pattern.n == 2 * len(plan.edges):
        return bool(rows[anchor]) and _plain_matching(rows, len(plan.edges))
    degree = rows[anchor].bit_count()
    sdr = _ColorMatching()
    for seed, need, steps in plan.seeded:
        if degree >= need:
            vmap = [-1] * plan.pattern.n
            vmap[seed] = anchor
            if _embed(steps, vmap, 1 << anchor, sdr, None, rows):
                return True
    return False


# ---------------------------------------------------------------------
# maximum rainbow matching


def max_rainbow_matching(col: Collection) -> tuple[int, RainbowMatching]:
    """Exact maximum rainbow matching, asking ``_matching_exists_with`` for
    sizes 1, 2, ... up to t until one has none (every subset of a rainbow
    matching is one).  The first maximum in lexicographic pair order is
    returned, with its lexicographically smallest color assignment.
    """
    table = col.color_table()
    best: tuple[tuple[int, int], ...] = ()
    for k in range(1, col.t + 1):
        found = _matching_exists_with(table, k, [], 0)
        if found is None:
            break
        best = found
    return len(best), RainbowMatching(best, lexmin_distinct_colors([table[u][v] for u, v in best]))


# ---------------------------------------------------------------------
# nesting transform


def nest_transform(col: Collection) -> Collection:
    """Unique nested collection with the same per-pair color multiplicity.

    Pair uv lands in colors 1..m where m is the number of original colors
    containing uv.  This is the fixpoint of the pairwise intersection /
    union exchanges and preserves rainbow freeness for colorless families.
    """
    n, t = col.n, col.t
    rows = [[0] * n for _ in range(t)]
    table = col.color_table()
    for u in range(n):
        for v in range(u + 1, n):
            for i in range(table[u][v].bit_count()):
                rows[i][u] |= 1 << v
                rows[i][v] |= 1 << u
    return Collection([Graph(n, r) for r in rows])
