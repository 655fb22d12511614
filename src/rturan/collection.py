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

Plain containment in one graph (``contains_subgraph``,
``matching_number_at_least``) is answered here too, by the same kernels
without the color layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphcore import Graph, PatternFamily

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


class Collection:
    """Ordered graphs (G_1, ..., G_t) on a common n-vertex set."""

    __slots__ = ("n", "t", "graphs", "_table")

    def __init__(self, graphs):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("collection needs at least one color")
        n = graphs[0].n
        for g in graphs:
            if g.n != n:
                raise ValueError("all graphs must share the vertex count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", len(graphs))
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, *args):
        raise AttributeError("Collection is immutable")

    @classmethod
    def from_edge_lists(cls, n: int, edge_lists) -> "Collection":
        return cls([Graph.from_edges(n, edges) for edges in edge_lists])

    def graph(self, color: int) -> Graph:
        """Graph of a 1-based color."""
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
        return [i + 1 for i, g in enumerate(self.graphs) if g.has_edge(u, v)]

    def edge_counts(self) -> tuple[int, ...]:
        return tuple(g.edge_count() for g in self.graphs)

    def __eq__(self, other):
        return isinstance(other, Collection) and self.graphs == other.graphs

    def __hash__(self):
        return hash(self.graphs)

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
        if any(not 0 <= v < col.n for v in self.vmap):
            raise ValueError("vmap leaves the host vertex set")
        edges = self.pattern.edges()
        if len(self.cmap) != len(edges):
            raise ValueError("cmap does not cover the pattern edges")
        if len(set(self.cmap)) != len(self.cmap):
            raise ValueError("cmap not injective")
        for (a, b), c in zip(edges, self.cmap):
            if not 1 <= c <= col.t:
                raise ValueError(f"color {c} outside 1..{col.t}")
            if not col.graph(c).has_edge(self.vmap[a], self.vmap[b]):
                raise ValueError(f"edge {(a, b)} not present in color {c}")


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
        if len(self.edges) != len(self.colors):
            raise ValueError("edge/color length mismatch")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("colors not injective")
        seen: set[int] = set()
        for (u, v), c in zip(self.edges, self.colors):
            if u in seen or v in seen or u == v:
                raise ValueError("edges not vertex-disjoint")
            seen.update((u, v))
            if not 1 <= c <= col.t:
                raise ValueError(f"color {c} outside 1..{col.t}")
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
    mn = fields(2)
    if len(mn) != 2 or mn[0] != "n" or not _NUMERAL.fullmatch(mn[1]):
        fail("expected 'n <count>'", 2)
    n = _value(mn[1])
    if not 1 <= n <= 30:
        fail(f"vertex count {n} outside 1..30", 2)
    mt = fields(3)
    if len(mt) != 2 or mt[0] != "t" or not _NUMERAL.fullmatch(mt[1]):
        fail("expected 't <count>'", 3)
    t = _value(mt[1])
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


def lexmin_distinct_colors(masks: list[int]) -> list[int] | None:
    """Lexicographically smallest color assignment, item by item."""
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
    return [low.bit_length() - 1 for low in fixed]


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
    automorphism group.  If an automorphism s maps arc (a, b) to (a', b'),
    an embedding f with f(a') = u and f(b') = v gives the embedding
    x -> f(s(x)), which puts a on u and b on v.  Both have the same image
    edges, so the same colors, and the same host edge lands on uv, so one
    seeding finds a copy exactly when the other does.  The same holds for
    a single vertex.
    """

    def __init__(self, pattern: Graph):
        edges = tuple(pattern.edges())
        degrees = [pattern.degree(v) for v in range(pattern.n)]
        self.pattern = pattern
        self.edges = edges
        self.core = _greedy_order(pattern, ())  # all edge-touching vertices, nothing seeded
        self.index = _steps(pattern, list(range(pattern.n)), 0)  # for lexicographically smallest witnesses
        self.isolated = not all(degrees)
        # no vertex of degree above 1: searched as sets of disjoint pairs
        self.matching = max(degrees) <= 1
        # Graph.matching(k) itself, edge i = (2i, 2i+1)
        self.labelled_matching = pattern.n == 2 * len(edges) and edges == tuple(
            (2 * i, 2 * i + 1) for i in range(len(edges))
        )

    @cached_property
    def anchored(self) -> tuple:
        """(a, b, order after seeding a and b) per arc-orbit representative:
        the pattern arc (a, b) goes onto the host pair in its given order.
        Both arcs of an edge share the order, which only needs the seeds."""
        reps: list[tuple[int, int, tuple]] = []
        for a, b in self.edges:
            steps = _greedy_order(self.pattern, (a, b))
            for arc in ((a, b), (b, a)):
                if not any(_automorphic(self.pattern, s, (p, q), arc) for p, q, s in reps):
                    reps.append((*arc, steps))
        return tuple(reps)

    @cached_property
    def seeded(self) -> tuple:
        """(v, order after seeding v) per vertex-orbit representative v."""
        reps: list[tuple[int, tuple]] = []
        for v in range(self.pattern.n):
            if not any(_automorphic(self.pattern, s, (r,), (v,)) for r, s in reps):
                reps.append((v, _greedy_order(self.pattern, (v,))))
        return tuple(reps)


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
    return _embed(steps, vmap, used, _ColorMatching(), 0, None, pattern.adj)


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


def _embed(steps, vmap: list[int], used: int, sdr: _ColorMatching, edges: int, table, union_rows) -> bool:
    """Complete a pre-seeded embedding along ``steps``.

    ``vmap`` maps pattern vertices to host vertices (-1 where unplaced),
    ``used`` is the host vertex mask of the seeds, ``sdr`` holds the color
    masks of the pattern edges among them and ``edges`` is the pattern's
    edge count.  Host candidates are tried in ascending order and every
    partial embedding must keep a system of distinct representatives, so
    the first completion is the lexicographically smallest in step order.
    On success ``vmap`` holds the embedding; on failure ``sdr`` is back to
    the items it came with.

    Each pattern edge placed is one push onto ``sdr``, dropped again when
    its vertex is taken back, except an edge with at least ``edges``
    colors: the other edges hold fewer colors than that, so it can always
    take a color last and needs no place in the matching.  The color mask
    of host pair uv is ``table[u][v]`` (see ``Collection.color_table``),
    and ``union_rows`` are the adjacency rows of the union of the colors.

    With ``table`` None the embedding is plain (no color layer):
    ``union_rows`` is the one host graph, every candidate already has the
    back edges, and ``sdr`` and ``edges`` are not read.
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
                mask = cells[vmap[u]]
                if mask.bit_count() < edges and not push(mask):
                    break
            else:
                vmap[pv] = hv
                if extend(idx + 1, used | low):
                    return True
            if len(items) > size:
                truncate(size)
        return False

    return extend(0, used)


def _colored_pairs(n: int, table, skip: int = 0, keep: int = -1) -> list[tuple[int, int, int]]:
    """(u, v, table[u][v] & keep) of every pair u < v outside the vertex
    mask ``skip`` whose masked color set is nonempty, in lexicographic
    order; ``table`` is a color table (see ``Collection.color_table``)."""
    pairs = []
    for u in range(n):
        if skip >> u & 1:
            continue
        cells = table[u]
        for v in range(u + 1, n):
            if skip >> v & 1:
                continue
            cm = cells[v] & keep
            if cm:
                pairs.append((u, v, cm))
    return pairs


def _rainbow_matchings(n: int, pairs, init_masks: list[int], used: int, limit: int, floor: list[int]):
    """Yield the rainbow matchings drawn from ``pairs`` with at least
    ``floor[0]`` pairs, as (picked, used).

    A rainbow matching here is a set of at most ``limit`` pairs, disjoint
    from each other and from the vertex mask ``used``, whose color masks
    admit distinct colors alongside ``init_masks``.  ``picked`` lists the
    pair indices (one list, mutated as the search goes on) and ``used``
    the vertices, the initial ones included.  Sets come in lexicographic
    order of their index lists, each before its extensions.  The floor is
    read at every set, so the consumer may raise it as it goes (branch and
    bound); sets that cannot grow to the floor are not extended.  Nothing
    is yielded when ``init_masks`` alone admit no distinct colors.  Each
    picked pair is one push onto a ``_ColorMatching``, dropped on return.

    Matchings are searched as pair subsets rather than labeled embeddings;
    a matching on 2k vertices has k! 2^k labelings.
    """
    sdr = _ColorMatching()
    base = len(init_masks)  # items the SDR holds before any pair is picked
    picked: list[int] = []
    vertices = [(1 << u) | (1 << v) for u, v, _ in pairs]

    def dfs(idx: int, used: int):
        size = len(picked)
        need = floor[0] - size  # pairs still to add before the floor is met
        if need <= 0:
            yield picked, used
            need = max(floor[0] - size, 1)  # the consumer may have raised the floor
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


def _matching_exists_with(n: int, table, size: int, init_masks: list[int], banned_vmask: int) -> bool:
    """Rainbow matching of the given size avoiding banned vertices, with
    colors jointly assignable alongside the already fixed ``init_masks``."""
    pairs = _colored_pairs(n, table, banned_vmask)
    found = _rainbow_matchings(n, pairs, init_masks, banned_vmask, size, [size])
    return next(found, None) is not None


# ---------------------------------------------------------------------
# rainbow-copy detection, and plain containment in one graph


def rainbow_copy_exists(col: Collection, pattern: Graph) -> bool:
    """Fast existence test; equivalent to find_rainbow_copy(...) is not None."""
    return _exists(col.n, col.t, col.color_table(), col.union_rows(), pattern)


def _exists(n: int, t: int, table, union_rows, pattern: Graph) -> bool:
    """Rainbow copy in the t-color table with union ``union_rows``, or with
    ``table`` None a plain copy in the graph ``union_rows`` (t unread)."""
    if pattern.n > n:
        return False
    plan = _plan(pattern)
    m = len(plan.edges)
    if m == 0:
        return True
    if table is None:
        if plan.matching:
            return _plain_matching(union_rows, m)
    elif m > t:
        return False
    elif plan.matching:
        return _matching_exists_with(n, table, m, [], 0)
    return _embed(plan.core, [-1] * pattern.n, 0, _ColorMatching(), m, table, union_rows)


def _exists_using_pair(
    n: int, t: int, table, union_rows, pattern: Graph, pair: tuple[int, int], forced_color: int | None
) -> bool:
    """Existence of a rainbow copy whose embedding uses the given host pair.

    When ``forced_color`` (1-based) is set, the pattern edge landing on the
    pair must take that color.  This is the incremental check used by the
    searches: after adding one edge to one color, any new rainbow copy must
    route through that (pair, color).  Only one pattern arc per orbit of the
    pattern's automorphism group is seeded on the pair (see ``_Plan``): a
    copy seeded by another arc of the orbit is the same copy relabelled.
    The host is t colors, ``table[u][v]`` the color mask of pair uv (see
    ``Collection.color_table``) and ``union_rows`` their union's rows.
    """
    if pattern.n > n:
        return False
    plan = _plan(pattern)
    m = len(plan.edges)
    if m == 0 or m > t:
        return False
    pu, pv = pair
    anchor = table[pu][pv]
    if forced_color is not None:
        anchor &= 1 << (forced_color - 1)
    if anchor == 0:
        return False
    seeds = (1 << pu) | (1 << pv)
    if plan.matching:
        return _matching_exists_with(n, table, m - 1, [anchor], seeds)
    sdr = _ColorMatching()
    sdr.push(anchor)
    for a, b, steps in plan.anchored:
        vmap = [-1] * pattern.n
        vmap[a], vmap[b] = pu, pv
        if _embed(steps, vmap, seeds, sdr, m, table, union_rows):
            return True
    return False


def find_rainbow_copy(col: Collection, pattern: Graph) -> RainbowWitness | None:
    """Lexicographically smallest rainbow copy of the pattern, if any.

    Pattern vertices are embedded in index order with host candidates
    ascending, so the first completable embedding has the smallest vmap;
    its color assignment is then minimized edge by edge.  For M<k> itself
    pair subsets in lexicographic order give vmaps in lexicographic order,
    so the first rainbow k-matching is taken instead.  Edgeless patterns
    on k vertices have a (vacuous) copy exactly when n >= k.
    """
    n, t = col.n, col.t
    if pattern.n > n:
        return None
    plan = _plan(pattern)
    m = len(plan.edges)
    if m == 0:
        return RainbowWitness(pattern, tuple(range(pattern.n)), ())
    if m > t:
        return None
    table = col.color_table()
    if plan.labelled_matching:
        pairs = _colored_pairs(n, table)
        found = next(_rainbow_matchings(n, pairs, [], 0, m, [m]), None)
        if found is None:
            return None
        vmap = [x for j in found[0] for x in pairs[j][:2]]
    else:
        vmap = [-1] * pattern.n
        if not _embed(plan.index, vmap, 0, _ColorMatching(), m, table, col.union_rows()):
            return None
    masks = [table[vmap[a]][vmap[b]] for a, b in plan.edges]
    chosen = lexmin_distinct_colors(masks)
    return RainbowWitness(pattern, tuple(vmap), tuple(c + 1 for c in chosen))


def is_rainbow_free(col: Collection, family: PatternFamily) -> bool:
    """No member of the family has a rainbow copy in the collection."""
    table = col.color_table()
    union_rows = col.union_rows()
    return not any(_exists(col.n, col.t, table, union_rows, f) for f in family)


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """Whether host contains pattern as a (not necessarily induced) subgraph."""
    return _exists(host.n, 0, None, host.adj, pattern)


def matching_number_at_least(g: Graph, k: int) -> bool:
    """Whether g contains k pairwise disjoint edges."""
    return _plain_matching(g.adj, k)


def _plain_matching(rows, k: int) -> bool:
    """Whether the graph with adjacency ``rows`` has k disjoint edges: a
    greedy pass in lexicographic pair order, then the pair-subset search
    with every color (mask -1) on every pair, so no color matching fails."""
    pairs = []
    used = 0
    for u, row in enumerate(rows):
        row = row >> u << u  # the neighbors above u
        free = 0 if used >> u & 1 else row & ~used
        if free:
            used |= 1 << u | free & -free
            if used.bit_count() == 2 * k:
                return True
        while row:
            low = row & -row
            row ^= low
            pairs.append((u, low.bit_length() - 1, -1))
    return next(_rainbow_matchings(len(rows), pairs, [], 0, k, [k]), None) is not None


def _exists_through_vertex(rows, pattern: Graph, anchor: int) -> bool:
    """A plain copy in the graph ``rows`` that uses the host vertex anchor.

    A pattern with an isolated vertex puts it on the anchor, so any copy
    does.  A matching needs an edge at the anchor and as many disjoint
    edges (a maximum matching can swap that edge in).  Other patterns seed
    one vertex per automorphism orbit on the anchor (see ``_Plan``).
    """
    plan = _plan(pattern)
    if plan.isolated:
        return _exists(len(rows), 0, None, rows, pattern)
    if plan.matching:
        return rows[anchor] != 0 and _plain_matching(rows, len(plan.edges))
    degree = rows[anchor].bit_count()
    sdr = _ColorMatching()
    for seed, steps in plan.seeded:
        if degree >= pattern.degree(seed):
            vmap = [-1] * pattern.n
            vmap[seed] = anchor
            if _embed(steps, vmap, 1 << anchor, sdr, 0, None, rows):
                return True
    return False


# ---------------------------------------------------------------------
# maximum rainbow matching


def max_rainbow_matching(col: Collection) -> tuple[int, RainbowMatching]:
    """Exact maximum rainbow matching via lexicographic branch and bound.

    The first maximum in lexicographic pair order is returned, with its
    lexicographically smallest color assignment.
    """
    pairs = _colored_pairs(col.n, col.color_table())
    best: list[int] = []
    floor = [1]
    for picked, _ in _rainbow_matchings(col.n, pairs, [], 0, col.t, floor):
        best = list(picked)
        floor[0] = len(best) + 1
    colors = lexmin_distinct_colors([pairs[j][2] for j in best]) or []
    witness = RainbowMatching(tuple(pairs[j][:2] for j in best), tuple(c + 1 for c in colors))
    return len(best), witness


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
