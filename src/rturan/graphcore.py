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

    def with_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

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
    """Parse a braced family such as "{K3,M2}"."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"family must be wrapped in braces: {text!r}")
    body = text[1:-1]
    if not body:
        raise ParseError("empty family")
    return PatternFamily.from_graphs([parse_pattern(p) for p in body.split(",")])


# ---------------------------------------------------------------------
# canonical labeling


def _wl_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable 1-WL refinement colors, used to order branching for n > 10."""
    colors = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        sigs = []
        for v in range(n):
            row, nb = adj[v], []
            while row:
                low = row & -row
                nb.append(colors[low.bit_length() - 1])
                row ^= low
            sigs.append((colors[v], tuple(sorted(nb))))
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


@lru_cache(maxsize=1 << 16)
def _canonical(n: int, adj: tuple[int, ...]) -> bytes:
    """Lexicographically minimal back-adjacency encoding over all relabelings.

    Positions are filled one at a time; the encoding records, for each
    position k, the bit pattern of the chosen vertex's adjacency to the
    already placed vertices.  Only vertices attaining the minimal pattern
    can start the minimal completion, so branching is restricted to them;
    mutually interchangeable candidates (same outside adjacency, clique or
    independent among themselves) collapse to a single branch.  For n > 10
    candidates are additionally ordered by refinement colors so a good
    incumbent is found early.
    """
    order_hint = _wl_colors(n, adj) if n > 10 else None
    best: list[int] | None = None

    def place(prefix: list[int], placed: list[int], unplaced: list[int]):
        nonlocal best
        k = len(placed)
        if not unplaced:
            if best is None or prefix < best:
                best = list(prefix)
            return
        bits = {}
        for u in unplaced:
            b = 0
            for i, p in enumerate(placed):
                b |= (adj[p] >> u & 1) << i
            bits[u] = b
        lo = min(bits.values())
        cands = [u for u in unplaced if bits[u] == lo]
        if best is not None:
            prefix.append(lo)
            worse = prefix > best[: k + 1]
            prefix.pop()
            if worse:
                return
        prefix.append(lo)
        # interchangeability: identical adjacency outside the candidate set
        # plus clique/independent inside means any one candidate suffices
        cmask = 0
        for u in cands:
            cmask |= 1 << u
        rest = [u for u in unplaced if not (cmask >> u & 1)]
        inside = [adj[u] & cmask for u in cands]
        outsides = {adj[u] & ~cmask for u in cands}
        uniform = len(outsides) == 1 and (
            all(x == 0 for x in inside)
            or all(x == (cmask ^ (1 << u)) for x, u in zip(inside, cands))
        )
        if uniform:
            cands = [cands[0]]
        elif order_hint is not None:
            cands.sort(key=lambda u: (order_hint[u], u))
        for u in cands:
            placed.append(u)
            place(prefix, placed, [w for w in unplaced if w != u])
            placed.pop()
        prefix.pop()

    place([], [], list(range(n)))
    assert best is not None
    out = bytearray([n])
    for b in best:
        out += b.to_bytes(4, "little")
    return bytes(out)


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


# ---------------------------------------------------------------------
# plain subgraph utilities (single host graph, no colors)


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """Whether host contains pattern as a (not necessarily induced) subgraph.

    Plain containment is rainbow containment in e(pattern) identical
    copies of the host, so the rainbow detector decides it.
    """
    from .collection import _exists  # collection builds on this module

    return _exists(host.n, [host.adj] * pattern.edge_count(), host.adj, pattern)


def matching_number_at_least(g: Graph, k: int) -> bool:
    """Whether g contains k pairwise disjoint edges."""
    if k <= 0:
        return True
    edges = g.edges()
    if 2 * k > g.n or len(edges) < k:
        return False
    used = got = 0  # greedy first: usually settles it
    for u, v in edges:
        if not (used >> u | used >> v) & 1:
            used |= (1 << u) | (1 << v)
            got += 1
            if got == k:
                return True
    from .collection import _rainbow_matchings  # collection builds on this module

    # k identical colors: every pair carries all k of them, so no SDR is run
    full = (1 << k) - 1
    pairs = [(u, v, full) for u, v in edges]
    return next(_rainbow_matchings(g.n, pairs, [], 0, k, [k]), None) is not None
