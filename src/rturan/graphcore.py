"""Bit-mask graph primitives for rainbow Turan computations.

Graphs live on labeled vertices 0..n-1 with one adjacency bit mask per
vertex, so n is capped at 30 to keep every row inside a machine word.
The same type doubles as a forbidden pattern (triangle, matching, star,
...), built either directly or from the ASCII pattern mini-language:

    K<k>        complete graph on k vertices
    K<a>,<b>    complete bipartite graph
    S<r>        star with r leaves (center = vertex 0)
    M<k>        matching with k edges (edge i = (2i, 2i+1))
    P<k>        path on k vertices (edges (i, i+1))
    S<r>+<m>M   star with r leaves plus m isolated edges
    E<k>        edgeless graph on k vertices
    {A,B,...}   family of patterns

Pattern families are deduplicated up to isomorphism via canonical forms.
Members that still have edges are stored without isolated vertices;
edgeless members keep an explicit vertex count because a rainbow copy of
an edgeless pattern on k vertices exists exactly when the host has at
least k vertices.

Plain containment in one graph (``contains_subgraph``,
``matching_number_at_least``) is answered by ``collection``, which builds
on this module; this one imports no other module of the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

MAX_VERTICES = 30


class ParseError(ValueError):
    """Raised when a pattern string does not conform to the grammar."""


class SizeError(ValueError):
    """Raised when a requested size lies outside its legal range, such as a
    vertex count outside 1..30."""


class NotBipartite(Exception):
    """Raised when an odd cycle makes a proper 2-coloring impossible.

    The offending cycle is attached as evidence in ``odd_cycle``.
    """

    def __init__(self, odd_cycle: list[int]):
        super().__init__(f"graph contains an odd cycle: {odd_cycle}")
        self.odd_cycle = odd_cycle


def _vertices_in(n: int, vertices) -> bool:
    """Whether every vertex is an int in 0..n-1; a bool is not a vertex,
    although ``0 <= True < n`` holds.  The one vertex-range test of
    graphs, collections, witnesses, matchings and lemmas."""
    return all(type(v) is int and 0 <= v < n for v in vertices)


@dataclass(frozen=True, repr=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bit-mask rows.

    Invariants: adjacency is symmetric, loop-free, and no bit at or
    beyond index n is ever set.  Instances are immutable value objects.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        adj = tuple(self.adj)
        if type(n) is not int or any(type(row) is not int for row in adj):  # bools too
            raise ValueError(f"vertex count and rows must be ints, got {n!r} and {adj!r}")
        if not 1 <= n <= MAX_VERTICES:
            raise SizeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(n):
            for v in range(u + 1, n):
                if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "adj", adj)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, k: int) -> "Graph":
        return cls(k, [((1 << k) - 1) ^ (1 << v) for v in range(k)])  # k < 0: no row, SizeError

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        if min(a, b) < 0:
            raise SizeError(f"part sizes {a} and {b} must not be negative")
        left = (1 << a) - 1
        right = ((1 << (a + b)) - 1) ^ left
        return cls(a + b, [right] * a + [left] * b)

    @classmethod
    def star(cls, r: int) -> "Graph":
        # center is vertex 0
        return cls.from_edges(r + 1, [(0, v) for v in range(1, r + 1)])

    @classmethod
    def matching(cls, k: int) -> "Graph":
        return cls.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])

    @classmethod
    def path(cls, k: int) -> "Graph":
        return cls.from_edges(k, [(i, i + 1) for i in range(k - 1)])

    @classmethod
    def star_plus_matching(cls, r: int, m: int) -> "Graph":
        edges = [(0, v) for v in range(1, r + 1)]
        base = r + 1
        edges += [(base + 2 * i, base + 2 * i + 1) for i in range(m)]
        return cls.from_edges(base + 2 * m, edges)

    # -- queries ------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def relabel(self, perm) -> "Graph":
        """Image under the permutation sending vertex v to perm[v]."""
        if not _vertices_in(self.n, perm) or sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}, got {list(perm)}")
        order = sorted(range(self.n), key=lambda v: perm[v])  # the inverse: order[perm[v]] = v
        return Graph(self.n, _leaf_rows(self.adj, order))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given distinct vertices, compacted to
        0..k-1."""
        vs = sorted(vertices)
        if not vs:
            raise ValueError("induced subgraph needs at least one vertex")
        if not _vertices_in(self.n, vs) or len(set(vs)) != len(vs):
            raise ValueError(f"induced needs distinct vertices in 0..{self.n - 1}, got {vs}")
        return Graph(len(vs), _leaf_rows(self.adj, vs))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------
# pattern mini-language


_FORMS = [
    (re.compile(r"K(\d+),(\d+)\Z"), Graph.complete_bipartite),
    (re.compile(r"K(\d+)\Z"), Graph.complete),
    (re.compile(r"S(\d+)\+(\d+)M\Z"), Graph.star_plus_matching),
    (re.compile(r"S(\d+)\Z"), Graph.star),
    (re.compile(r"M(\d+)\Z"), Graph.matching),
    (re.compile(r"P(\d+)\Z"), Graph.path),
    (re.compile(r"E(\d+)\Z"), Graph.edgeless),
]


def parse_pattern(text: str) -> Graph:
    """Parse one pattern string ("K3", "M2", "S3+2M", ...) into a Graph.

    The grammar fixes vertex labels (star center = 0, bipartite parts
    contiguous, matching edge i = (2i, 2i+1)) so that constructions
    built from patterns are reproducible byte for byte.
    """
    for rx, build in _FORMS:
        m = rx.match(text)
        if m is None:
            continue
        args = [int(g) for g in m.groups()]
        for a in args:
            if a < 1:
                raise ParseError(f"parameter {a} below minimum 1 in {text!r}")
            if a > MAX_VERTICES:  # each form has at least as many vertices as each numeral
                raise SizeError(f"parameter {a} above {MAX_VERTICES} in {text!r}")
        return build(*args)
    raise ParseError(f"unrecognized pattern {text!r}")


def parse_family(text: str) -> "PatternFamily":
    """Parse a braced family such as "{K3,M2}" or "{K2,2,P4}".

    A comma followed by a digit belongs to a ``K<a>,<b>`` member; every
    other comma starts the next member.
    """
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"family must be wrapped in braces: {text!r}")
    body = text[1:-1]
    if not body:
        raise ParseError("empty family")
    return PatternFamily.from_graphs([parse_pattern(p) for p in re.split(r",(?!\d)", body)])


# ---------------------------------------------------------------------
# canonical labeling


def _twin_classes(n: int, adj: tuple[int, ...]) -> list[list[int]]:
    """Twin classes of the graph, each ascending, ordered by first vertex.

    u and w are twins when N(u) - w = N(w) - u: they share their open
    neighbourhood (non-adjacent twins) or their closed one (adjacent
    twins).  The relation is an equivalence, a vertex cannot have twins of
    both kinds, and every permutation of one class that fixes all other
    vertices is an automorphism.
    """
    open_nbhd: dict[int, list[int]] = {}
    closed_nbhd: dict[int, list[int]] = {}
    for v in range(n):
        open_nbhd.setdefault(adj[v], []).append(v)
        closed_nbhd.setdefault(adj[v] | 1 << v, []).append(v)
    classes = []
    seen = 0
    for v in range(n):
        if not seen >> v & 1:
            cls = open_nbhd[adj[v]]
            if len(cls) == 1:
                cls = closed_nbhd[adj[v] | 1 << v]
            classes.append(cls)
            for w in cls:
                seen |= 1 << w
    return classes


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition (cells as bit masks) until it is equitable.

    Each splitter w splits every cell by how many neighbours its vertices
    have in w; the pieces take the cell's place in increasing order of that
    count and become splitters themselves.  Only counts and cell positions
    decide the result, so relabelling the graph relabels the result.
    """
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        out = []
        for x in cells:
            if x & (x - 1):
                by_count: dict[int, int] = {}
                y = x
                while y:
                    low = y & -y
                    c = (adj[low.bit_length() - 1] & w).bit_count()
                    by_count[c] = by_count.get(c, 0) | low
                    y ^= low
                if len(by_count) > 1:
                    pieces = [by_count[c] for c in sorted(by_count)]
                    out += pieces
                    splitters += pieces
                    continue
            out.append(x)
        cells = out
    return cells


def _leaf_rows(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """Adjacency rows of the subgraph induced on the distinct vertices of
    ``order``, relabelled so that order[i] becomes i.

    This is the one relabelling routine: ``_canonical`` reads its leaves
    with it, ``Graph.relabel`` passes the inverse permutation and
    ``Graph.induced`` its sorted vertices.
    """
    pos = [0] * len(adj)
    keep = 0
    for i, v in enumerate(order):
        pos[v] = i
        keep |= 1 << v
    rows = []
    for v in order:
        row, bits = adj[v] & keep, 0
        while row:
            low = row & -row
            bits |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows.append(bits)
    return tuple(rows)


def _in_orbit(v: int, explored: list[int], generators: list[list[int]]) -> bool:
    """Is v in the orbit of an explored vertex under the generated group?

    The explored vertices are closed under the generators (permutations of
    a finite set, so images alone reach every group element's).
    """
    orbit = set(explored)
    stack = list(explored)
    while stack:
        u = stack.pop()
        for g in generators:
            if g[u] not in orbit:
                orbit.add(g[u])
                stack.append(g[u])
    return v in orbit


@lru_cache(maxsize=1 << 16)
def _canonical(n: int, adj: tuple[int, ...]) -> bytes:
    """Canonical labeling by individualization-refinement (McKay & Piperno).

    The search tree starts from the coarsest equitable ordered partition.
    Each node branches on its first smallest non-singleton cell: one child
    per vertex of the cell, which is split off as a singleton in front of
    the rest and refined again.  Every leaf is a discrete partition, i.e. a
    relabeling, and the form is n followed by the lexicographically least
    relabelled adjacency row tuple over all leaves.  Three prunings skip
    only subtrees that are images of explored ones under an automorphism
    fixing the individualized vertices above them, so the least leaf
    survives:

    * twins: one child per twin class (see ``_twin_classes``);
    * orbits: a child in the orbit of an explored sibling under the
      automorphisms found so far that fix those vertices pointwise;
    * leaves: two leaves with equal rows give an automorphism mapping the
      earlier leaf's branch at their first divergence to the later one's,
      so the search returns straight to that divergence.
    """
    twin = [0] * n
    for i, cls in enumerate(_twin_classes(n, adj)):
        for v in cls:
            twin[v] = i
    first_leaf: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    automorphisms: list[list[int]] = []

    def explore(cells: list[int], seq: list[int]) -> int:
        """Search below one node; return the depth at which to resume."""
        depth = len(seq)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            rows = _leaf_rows(adj, order)
            earlier = first_leaf.get(rows)
            if earlier is None:
                first_leaf[rows] = (seq, order)
                return depth
            earlier_seq, earlier_order = earlier
            gamma = [0] * n
            for a, b in zip(earlier_order, order):
                gamma[a] = b
            automorphisms.append(gamma)
            d = 0
            while earlier_seq[d] == seq[d]:
                d += 1
            return d
        i = min(
            (k for k, c in enumerate(cells) if c & (c - 1)),
            key=lambda k: cells[k].bit_count(),
        )
        cell = cells[i]
        explored: list[int] = []
        twins_done = set()
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if twin[v] in twins_done:
                continue
            twins_done.add(twin[v])
            if explored:
                fixing = [g for g in automorphisms if all(g[u] == u for u in seq)]
                if fixing and _in_orbit(v, explored, fixing):
                    continue
            explored.append(v)
            child = _refine(adj, cells[:i] + [low, cell ^ low] + cells[i + 1 :], [low])
            back = explore(child, seq + [v])
            if back < depth:
                return back
        return depth

    full = (1 << n) - 1
    explore(_refine(adj, [full], [full]), [])
    out = bytearray([n])
    for row in min(first_leaf):
        out += row.to_bytes(4, "little")
    return bytes(out)


def _from_canonical(form: bytes) -> Graph:
    """The graph whose adjacency rows ``_canonical`` wrote into its form."""
    return Graph(form[0], tuple(int.from_bytes(form[i : i + 4], "little") for i in range(1, len(form), 4)))


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs exactly when they are isomorphic."""
    return _canonical(g.n, g.adj)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------
# pattern families


def _normalize_member(g: Graph) -> Graph:
    """Strip isolated vertices from edge-bearing members.

    Edgeless members are kept whole: their vertex count is semantically
    meaningful (copy exists iff the host has that many vertices).
    """
    if g.edge_count() == 0:
        return Graph.edgeless(g.n)
    touched = [v for v in range(g.n) if g.adj[v]]
    if len(touched) == g.n:
        return g
    return g.induced(touched)


@dataclass(frozen=True, repr=False)
class PatternFamily:
    """A set of forbidden patterns, pairwise non-isomorphic."""

    members: tuple[Graph, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family needs at least one member")
        if not all(isinstance(g, Graph) for g in members):
            raise ValueError(f"family members must be Graphs, got {members!r}")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_graphs(cls, graphs) -> "PatternFamily":
        seen = {}
        for g in graphs:
            g = _normalize_member(g)
            seen.setdefault(canonical_form(g), g)
        ordered = sorted(seen.values(), key=lambda g: (g.edge_count(), g.n, canonical_form(g)))
        return cls(ordered)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"PatternFamily({list(self.members)})"


def family_deleted_independent(f: Graph) -> PatternFamily:
    """All graphs obtained from f by deleting an independent vertex set.

    A set is independent exactly when the vertices left are a vertex cover,
    so these are f's induced subgraphs on its (nonempty) vertex covers; f
    itself is one.  The result is deduplicated up to isomorphism.
    """
    return family_covering(f, f.n)


def _vertex_covers(f: Graph, most: int):
    """Vertex covers of f with at most ``most`` vertices, as sorted tuples,
    smallest first (brute force)."""
    edges = f.edges()
    for size in range(min(most, f.n) + 1):
        for s in combinations(range(f.n), size):
            if all(u in s or v in s for u, v in edges):
                yield s


def minimum_vertex_cover(f: Graph) -> int:
    """Size of a smallest vertex set meeting every edge (brute force)."""
    return len(next(_vertex_covers(f, f.n)))  # the full vertex set is a cover


def family_covering(f: Graph, p: int) -> PatternFamily:
    """Induced subgraphs of f on vertex covers of size at most p.

    If f admits no cover that small, the family is {K_{p+1}} instead.
    Edgeless induced subgraphs are retained with their vertex count.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if f.edge_count() == 0:
        raise ValueError("pattern must have at least one edge")
    members = [f.induced(s) for s in _vertex_covers(f, p)]  # f has an edge: no empty cover
    if not members:
        return PatternFamily.from_graphs([Graph.complete(p + 1)])
    return PatternFamily.from_graphs(members)


def bipartition_min_class(f: Graph) -> int:
    """Smallest color class size over all proper 2-colorings of f.

    Each component is 2-colored by a depth-first search over the bit rows,
    at most 30 deep, and its two class sizes go into a subset sum:
    disconnected inputs minimize over independent per-component swaps.  In
    an undirected DFS every non-tree edge joins a vertex to one of its
    ancestors (Tarjan 1972), so an edge from v to a w of v's own color finds
    w on the DFS path, and the path from w down to v closes an odd cycle.
    NotBipartite carries that cycle.
    """
    color = [-1] * f.n
    path: list[int] = []

    def visit(v: int, c: int) -> None:
        color[v] = c
        sizes[c] += 1
        path.append(v)
        row = f.adj[v]
        while row:
            low = row & -row
            row ^= low
            w = low.bit_length() - 1
            if color[w] == -1:
                visit(w, 1 - c)
            elif color[w] == c:
                raise NotBipartite(path[path.index(w) :])
        path.pop()

    sums = {0}
    for root in range(f.n):
        if color[root] == -1:
            sizes = [0, 0]
            visit(root, 0)
            sums = {s + size for s in sums for size in sizes}
    return min(min(s, f.n - s) for s in sums)
