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
from functools import lru_cache
from itertools import combinations

MAX_VERTICES = 30


class ParseError(ValueError):
    """Raised when a pattern string does not conform to the grammar."""


class SizeError(ValueError):
    """Raised when a requested graph would exceed the vertex cap."""


class NotBipartite(Exception):
    """Raised when an odd cycle makes a proper 2-coloring impossible.

    The offending cycle is attached as evidence in ``odd_cycle``.
    """

    def __init__(self, odd_cycle: list[int]):
        super().__init__(f"graph contains an odd cycle: {odd_cycle}")
        self.odd_cycle = odd_cycle


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bit-mask rows.

    Invariants: adjacency is symmetric, loop-free, and no bit at or
    beyond index n is ever set.  Instances are immutable value objects.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        if not 1 <= n <= MAX_VERTICES:
            raise SizeError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = tuple(adj)
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, *args):
        raise AttributeError("Graph is immutable")

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
        full = (1 << k) - 1
        return cls(k, [full ^ (1 << v) for v in range(k)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
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
        rows = [0] * self.n
        for u in range(self.n):
            row = self.adj[u]
            v = 0
            while row:
                if row & 1:
                    rows[perm[u]] |= 1 << perm[v]
                row >>= 1
                v += 1
        return Graph(self.n, rows)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given vertices, compacted to 0..k-1."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        if not vs:
            raise ValueError("induced subgraph needs at least one vertex")
        rows = [0] * len(vs)
        for v in vs:
            for w in vs:
                if w > v and self.has_edge(v, w):
                    rows[pos[v]] |= 1 << pos[w]
                    rows[pos[w]] |= 1 << pos[v]
        return Graph(len(vs), rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------
# pattern mini-language


_FORMS = [
    (re.compile(r"K(\d+),(\d+)\Z"), lambda a, b: Graph.complete_bipartite(a, b), (1, 1)),
    (re.compile(r"K(\d+)\Z"), lambda k: Graph.complete(k), (1,)),
    (re.compile(r"S(\d+)\+(\d+)M\Z"), lambda r, m: Graph.star_plus_matching(r, m), (1, 1)),
    (re.compile(r"S(\d+)\Z"), lambda r: Graph.star(r), (1,)),
    (re.compile(r"M(\d+)\Z"), lambda k: Graph.matching(k), (1,)),
    (re.compile(r"P(\d+)\Z"), lambda k: Graph.path(k), (1,)),
    (re.compile(r"E(\d+)\Z"), lambda k: Graph.edgeless(k), (1,)),
]


def parse_pattern(text: str) -> Graph:
    """Parse one pattern string ("K3", "M2", "S3+2M", ...) into a Graph.

    The grammar fixes vertex labels (star center = 0, bipartite parts
    contiguous, matching edge i = (2i, 2i+1)) so that constructions
    built from patterns are reproducible byte for byte.
    """
    for rx, build, mins in _FORMS:
        m = rx.match(text)
        if m is None:
            continue
        args = [int(g) for g in m.groups()]
        for a, lo in zip(args, mins):
            if a < lo:
                raise ParseError(f"parameter {a} below minimum {lo} in {text!r}")
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
    """Adjacency rows of the graph relabelled so that order[i] becomes i."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for v in order:
        row, bits = adj[v], 0
        while row:
            low = row & -row
            bits |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows.append(bits)
    return tuple(rows)


def _in_orbit(v: int, explored: list[int], generators: list[list[int]]) -> bool:
    """Is v in the orbit of an explored vertex under the generated group?"""
    root = list(range(len(generators[0])))

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for g in generators:
        for a, b in enumerate(g):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[ra] = rb
    target = find(v)
    return any(find(u) == target for u in explored)


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


class PatternFamily:
    """A set of forbidden patterns, pairwise non-isomorphic."""

    __slots__ = ("members",)

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("family needs at least one member")
        object.__setattr__(self, "members", members)

    def __setattr__(self, *args):
        raise AttributeError("PatternFamily is immutable")

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

    def __eq__(self, other):
        return isinstance(other, PatternFamily) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"PatternFamily({list(self.members)})"


def family_deleted_independent(f: Graph) -> PatternFamily:
    """All graphs obtained from f by deleting an independent vertex set.

    The empty set is independent, so f itself is always a member.  The
    result is deduplicated up to isomorphism.
    """
    if f.edge_count() == 0:
        raise ValueError("pattern must have at least one edge")
    out = []
    for mask in range(1 << f.n):
        ok = True
        m = mask
        while m:
            low = m & -m
            if f.adj[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if not ok:
            continue
        keep = [v for v in range(f.n) if not (mask >> v & 1)]
        out.append(f.induced(keep) if keep else None)
    return PatternFamily.from_graphs([g for g in out if g is not None])


def minimum_vertex_cover(f: Graph) -> int:
    """Size of a smallest vertex set meeting every edge (brute force)."""
    edges = f.edges()
    if not edges:
        return 0
    for size in range(f.n + 1):
        for s in combinations(range(f.n), size):
            smask = 0
            for v in s:
                smask |= 1 << v
            if all((smask >> u & 1) or (smask >> v & 1) for u, v in edges):
                return size
    raise AssertionError("unreachable: full vertex set covers everything")


def family_covering(f: Graph, p: int) -> PatternFamily:
    """Induced subgraphs of f on vertex covers of size at most p.

    If f admits no cover that small, the family is {K_{p+1}} instead.
    Edgeless induced subgraphs are retained with their vertex count.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if f.edge_count() == 0:
        raise ValueError("pattern must have at least one edge")
    edges = f.edges()
    members = []
    for size in range(1, min(p, f.n) + 1):
        for s in combinations(range(f.n), size):
            smask = 0
            for v in s:
                smask |= 1 << v
            if all((smask >> u & 1) or (smask >> v & 1) for u, v in edges):
                members.append(f.induced(s))
    if not members:
        return PatternFamily.from_graphs([Graph.complete(p + 1)])
    return PatternFamily.from_graphs(members)


def bipartition_min_class(f: Graph) -> int:
    """Smallest color class size over all proper 2-colorings of f.

    Disconnected inputs minimize over independent per-component swaps.
    Raises NotBipartite (carrying an odd cycle) when no 2-coloring exists.
    """
    color = [-1] * f.n
    parent = [-1] * f.n
    comps = []
    for root in range(f.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        sizes = [1, 0]
        while queue:
            v = queue.pop(0)
            row = f.adj[v]
            while row:
                low = row & -row
                w = low.bit_length() - 1
                row ^= low
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    sizes[color[w]] += 1
                    queue.append(w)
                elif color[w] == color[v]:
                    raise NotBipartite(_odd_cycle(parent, v, w))
        comps.append(tuple(sizes))
    # subset-sum over per-component swaps; minimize the smaller class
    sums = {0}
    for a, b in comps:
        sums = {s + a for s in sums} | {s + b for s in sums}
    return min(min(s, f.n - s) for s in sums)


def _odd_cycle(parent: list[int], v: int, w: int) -> list[int]:
    pv, pw = [v], [w]
    seen = {v: 0}
    x = v
    while parent[x] != -1:
        x = parent[x]
        seen[x] = len(pv)
        pv.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        pw.append(x)
    return pv[: seen[x] + 1][::-1] + pw[:-1]
