"""Exhaustive extremal computations over rainbow-free collections.

Three objectives over collections (G_1..G_t) on n vertices avoiding every
rainbow copy from a forbidden family:

* min  - the largest e such that a free collection exists with every
         color holding at least e edges (decided by a feasibility
         threshold scan: "is min >= e achievable?" prunes much harder
         than direct maximization);
* sum  - the largest total edge count; the search space collapses to
         nested chains G_1 >= G_2 >= ... >= G_t, i.e. to multiplicity
         maps pairs -> {0..t}, which is lossless because the nesting
         transform preserves both per-pair multiplicities and freeness;
* prod - the largest product of edge counts; nesting does not preserve
         products, so this one searches full collections color by color.

min and prod run one color-by-color DFS over full collections.  A min
probe prunes a color that can no longer reach its floor of e edges and
stops at the first full collection; prod prunes a branch whose bound
prefix * maxc^(t-k+1) cannot beat the best product and searches on.  All
three objectives share one entry: it answers trivial families without a
node, keeps the best collection found when the budget runs out (flagged
inexact) and checks that witness.

Shared machinery of min and prod: color-permutation symmetry is broken by
nonincreasing edge counts, vertex symmetry by keeping only prefixes that
are minimal under simultaneous vertex relabeling.  In all three searches
every edge addition runs an incremental rainbow check restricted to
copies through the new (pair, color), for the members with no more edges
than the table has nonempty colors (a rainbow copy of F takes e(F) of
them; min and prod fill colors in order, so color k leaves out members
with more than k edges).  That check seeds the pair with one pattern arc per orbit
of the pattern's automorphism group only: an automorphism turns a copy
seeded by one arc of an orbit into a copy with the same edges and colors
seeded by any other, so K3 needs one search instead of six.  Budgets
count search nodes, never wall-clock time, so results are
bit-reproducible.

Two certified bounds cut the min and sum trees; neither changes a value.
min starts from a seed: t copies of one member-free graph are rainbow
free, so min >= ex(n, members), with t copies of the orderly-generation
extremal graph as the witness.  The scan then probes seed + 1 first (the
seed is often optimal, and that probe then settles it) and bisects only
when it is feasible.  The seed runs under the query's budget, one node
per extension attempt, so min node counts include it.  sum keeps, for
every pair not yet decided, its cap: the largest multiplicity at which it
can still join the current nested collection freely.  Rainbow freeness survives
deleting edges and colors are nested, so caps only fall along a branch
and every multiplicity up to the cap is free; a branch is cut when its
total plus the remaining caps cannot beat the best, which cannot change
the sequence of improvements or the witness.  After a pair takes a
multiplicity, only the caps of pairs within max(v(F) - 3, 0) of it in the
union graph are refreshed (every cap when a member is disconnected): a cap
falls only through a copy holding both pairs.  Each lower multiplicity of
the pair only lets caps rise back, so it refreshes only the caps that fell.

sum breaks vertex symmetry at every n by the lex-leader method (Crawford,
Ginsberg, Luks & Roy, 1996) in the form of the sb_l constraints on
adjacency matrices (Codish, Miller, Prosser & Stuckey, 2019).  It tries
each pair's multiplicities from the cap down and skips the pair last, so
it meets the multiplicity vectors over the pairs in row-major order in
decreasing lexicographic order, and its witness W* is the greatest optimal
vector.  Every relabeling of W* is optimal too, so W* is at least its image
under the swap of two adjacent vertices; a prefix that is below its image
where the two first differ is cut, which never cuts W*.

min and prod check vertex canonicity (up to n = 6) along a stabilizer
chain: colors 1..k have a smaller relabeling exactly when some
permutation fixes colors 1..i-1 and maps color i below itself.  Each
distinct color-1 mask is tested once per search against all n! - 1
non-identity permutations, and a minimal one keeps the permutations that
fix it; color i is then tested only against the permutations fixing
colors 1..i-1, a set that shrinks with i and is usually small.  Each
permutation is held as a table of 96 pair-mask images, one 32-entry chunk
for each 5 bits of a mask, so an image costs three lookups and two sums.
Three chunks hold the C(n, 2) <= 15 pairs only up to n = 6, where the n!
tables still fit; they are built once per process, by the first min or
prod search at that n.

ex(n, F) for a single plain graph is computed by orderly generation:
F-free graphs are grown one vertex at a time and deduplicated by
canonical form, so each isomorphism class is extended exactly once.
Twin vertices of a parent are interchangeable, so only new-vertex
neighbourhoods packed toward the lowest twins are tried.  Only graphs
dense enough to lie under an extremal graph are grown: with L the edge
count of an explicit F-free graph (a Turan graph saturated greedily),
level k keeps graphs with at least L C(k,2)/C(n,2) edges, since deleting
a minimum-degree vertex never lowers the edge density (Katona, Nemetz &
Simonovits, 1964).  The graph returned is the extremal class with the
least canonical form, relabelled to that form, so it does not depend on
the order in which the classes were met.
"""

from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, prod
from operator import or_

from .graphcore import (
    Graph,
    PatternFamily,
    _canonical,
    _from_canonical,
    _twin_classes,
)
from .collection import Collection, contains_subgraph, is_rainbow_free
from .collection import _exists_through_vertex, _exists_using_pair

__all__ = [
    "BudgetExceeded",
    "ExtremalQuery",
    "ExtremalResult",
    "default_budget",
    "turan_exact",
    "turan_extremal",
    "extremal_min",
    "extremal_sum",
    "extremal_prod",
]

_FALLBACK_BUDGET = 20_000_000
_PI_PRUNE_MAX_N = 6  # vertex-symmetry pruning uses all n! permutations


class BudgetExceeded(RuntimeError):
    """Search node budget exhausted before the exact answer was proven."""


class _BudgetStop(Exception):
    """Internal signal: unwind to the entry point, keep the best so far."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def step(self):
        self.used += 1
        if self.used > self.limit:
            raise _BudgetStop


def default_budget() -> int:
    """Node budget: RTURAN_BUDGET from the environment, else a fixed default.
    A set value that is not an ASCII integer of at least 1 is a ValueError,
    as a budget below 1 passed to a query is."""
    raw = os.environ.get("RTURAN_BUDGET")
    if not raw:
        return _FALLBACK_BUDGET
    if not re.fullmatch(r"-?[0-9]+", raw) or int(raw) < 1:
        raise ValueError(f"RTURAN_BUDGET must be an integer >= 1, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class ExtremalQuery:
    mode: str  # "min" | "sum" | "prod"
    n: int
    t: int
    family: PatternFamily
    budget: int | None = None

    def __post_init__(self):
        if self.mode not in ("min", "sum", "prod"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.n <= 12:
            raise ValueError("full search supports 1 <= n <= 12")
        if self.t < 1:
            raise ValueError("need at least one color")
        if self.t > 6:
            raise ValueError("full search supports t <= 6")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1 node")


@dataclass(frozen=True)
class ExtremalResult:
    value: int
    witness: Collection | None
    nodes: int
    exact: bool


def _split_family(family: PatternFamily, n: int, t: int):
    """(infeasible, enforceable members): edgeless members fitting the host
    make every collection non-free; members too big or needing more colors
    than exist can never have a copy and are dropped."""
    infeasible = any(f.edge_count() == 0 and f.n <= n for f in family)
    members = [
        f
        for f in family
        if f.edge_count() >= 1 and f.n <= n and f.edge_count() <= t
    ]
    return infeasible, members


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@lru_cache(maxsize=None)
def _pair_perm_tables(n: int) -> tuple[array, ...] | None:
    """For each non-identity vertex permutation, the images of pair masks
    in three 32-entry chunks: the image of mask bits 0-4 at offsets 0-31,
    of bits 5-9 at 32-63 and of bits 10-14 at 64-95, so a mask maps to the
    sum of three lookups (``_stabilizer``).  Three 5-bit chunks cover the
    C(n, 2) <= 15 pairs of n <= 6; above that there are no tables.  Built
    on first use: sum never asks for them."""
    if n > _PI_PRUNE_MAX_N:
        return None
    pairs = _pairs(n)
    assert len(pairs) <= 15, "three 5-bit chunks hold at most 15 pairs"
    index = {p: i for i, p in enumerate(pairs)}
    identity = tuple(range(n))
    tables = []
    for perm in permutations(identity):
        if perm == identity:
            continue
        bits = [1 << index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
        bits += [0] * (15 - len(bits))  # no mask holds the missing pairs
        table = array("H")
        for lo in (0, 5, 10):
            vals = [0]
            for image in bits[lo : lo + 5]:
                vals += [x + image for x in vals]
            table.extend(vals)
        tables.append(table)
    return tuple(tables)


def _stabilizer(tables, mask: int) -> list | None:
    """The tables that fix the pair mask, or None when one maps it below
    itself.  A mask's image is the sum of the images of its three 5-bit
    chunks, one lookup each; mask 0 maps to 0, so every table fixes it."""
    a, b, c = mask & 31, 32 | mask >> 5 & 31, 64 | mask >> 10
    fixing = []
    for table in tables:
        image = table[a] + table[b] + table[c]
        if image < mask:
            return None
        if image == mask:
            fixing.append(table)
    return fixing


class _CollectionSearch:
    """Search state of all three objectives with the incumbent (``best``,
    ``witness``) a budget stop leaves standing, and ``run``, the one
    color-by-color DFS of min and prod: colors are filled pair by pair with
    nonincreasing edge counts, ``canonical_prefix`` checked at each color
    boundary.  A floor e > 0 (min) prunes a color that cannot reach e edges
    and stops at the first full collection; floor 0 (prod) prunes by
    prefix * maxc^(t-k+1) against the best product and searches on.  A full
    collection becomes the incumbent, valued at the floor or its product.

    The colors are held as one color table (``table[u][v]`` the mask of the
    colors holding pair uv, as ``Collection.color_table``) with ``union``,
    the adjacency rows of its nonzero cells, beside it.  ``live[k]`` holds
    the members with at most k edges, the only ones k nonempty colors can
    hold rainbow; sum refreshes caps in a ``union`` ball (``_search_sum``)."""

    def __init__(self, n: int, t: int, members, budget: _Budget):
        self.n = n
        self.t = t
        self.members = members
        self.live = [[f for f in members if f.edge_count() <= k] for k in range(t + 1)]
        self.budget = budget
        self.pairs = _pairs(n)
        self.P = len(self.pairs)
        self.table = [[0] * n for _ in range(n)]
        self.union = [0] * n
        self.cmasks = [0] * t
        self.first_stabilizers: dict[int, list] = {}  # minimal color-1 mask -> its stabilizer
        self.floor = 0
        self.best = 0
        self.witness = self.snapshot()

    def reset(self):
        for cells in self.table:
            cells[:] = [0] * self.n
        self.union[:] = [0] * self.n
        self.cmasks = [0] * self.t

    def keep(self, value: int):
        """Make the current collection the incumbent, valued at value."""
        self.best = value
        self.witness = self.snapshot()

    def run(self, floor: int = 0) -> bool:
        """The DFS from an empty collection; True when min (floor > 0) found one."""
        self.reset()
        self.floor = floor
        return self._dfs(1, 0, 0, self.P, 1)

    def _dfs(self, k: int, idx: int, count: int, cap: int, prefix: int) -> bool:
        """Color k holds count edges among pairs below idx and may hold up to
        cap; prefix is the product of the counts of colors 1..k-1.  One node
        per pass: skipping pair idx is the next pass, not a recursive call."""
        step, P, floor, power = self.budget.step, self.P, self.floor, self.t - k + 1
        while True:
            step()
            room = count + (P - idx)
            if floor:
                if room < floor:
                    return False
            elif prefix * min(cap, room) ** power <= self.best:  # prod raises best as it goes
                return False
            if idx == P:
                if not self.canonical_prefix(k):
                    return False
                if k < self.t:
                    return self._dfs(k + 1, 0, 0, count, prefix * count)
                self.keep(floor or prefix * count)  # prod: the bound put the product above best
                return floor > 0
            if count < cap and self.try_add(k, idx):
                if self._dfs(k, idx + 1, count + 1, cap, prefix):
                    return True
                self.remove(k, idx)
            idx += 1

    def try_add(self, color: int, idx: int) -> bool:
        """Add pair idx to the color unless it completes a rainbow copy.
        Checks only ``live[color]``, so every color above this one must be
        empty, as it is while ``_dfs`` fills the colors in order."""
        u, v = self.pairs[idx]
        table, union = self.table, self.union
        was = table[u][v]
        table[u][v] = table[v][u] = was | 1 << (color - 1)
        if not was:
            union[u] |= 1 << v
            union[v] |= 1 << u
        for f in self.live[color]:
            if _exists_using_pair(self.n, self.t, table, union, f, (u, v), color):
                self._restore(u, v, was)
                return False
        self.cmasks[color - 1] |= 1 << idx
        return True

    def remove(self, color: int, idx: int):
        self.cmasks[color - 1] &= ~(1 << idx)
        u, v = self.pairs[idx]
        self._restore(u, v, self.table[u][v] & ~(1 << (color - 1)))

    def _restore(self, u: int, v: int, mask: int):
        """Give pair uv a submask of its mask; the pair leaves the union at 0."""
        self.table[u][v] = self.table[v][u] = mask
        if not mask:
            self.union[u] &= ~(1 << v)
            self.union[v] &= ~(1 << u)

    def set_pair(self, u: int, v: int, mask: int):
        """Give pair uv the color mask; it is in the union while the mask is nonzero."""
        self.table[u][v] = self.table[v][u] = mask
        if mask:
            self.union[u] |= 1 << v
            self.union[v] |= 1 << u
        else:
            self.union[u] &= ~(1 << v)
            self.union[v] &= ~(1 << u)

    def canonical_prefix(self, k: int) -> bool:
        """No vertex relabeling makes colors 1..k lexicographically smaller.

        A relabeling makes them smaller exactly when it fixes colors 1..i-1
        and maps color i below itself for some i, so only the stabilizer of
        the colors checked so far is tested against the next one.  The
        stabilizer of a minimal color 1 is kept for the whole search.
        """
        tables = _pair_perm_tables(self.n)
        if tables is None:
            return True
        cur = self.cmasks
        stab = self.first_stabilizers.get(cur[0])
        if stab is None:
            stab = _stabilizer(tables, cur[0])
            if stab is None:
                return False
            self.first_stabilizers[cur[0]] = stab
        for i in range(1, k):
            if not stab:
                break
            stab = _stabilizer(stab, cur[i])
            if stab is None:
                return False
        return True

    def snapshot(self) -> Collection:
        table = self.table
        return Collection.from_edge_lists(
            self.n, [[(u, v) for u, v in self.pairs if table[u][v] >> i & 1] for i in range(self.t)]
        )


def extremal_min(q: ExtremalQuery) -> ExtremalResult:
    """Largest e with a rainbow-free collection keeping >= e edges per color."""
    return _extremal(q, "min")


def extremal_sum(q: ExtremalQuery) -> ExtremalResult:
    """Largest total edge count over rainbow-free collections.

    Sound and complete over nested chains only: the nesting transform
    turns any free collection into a nested free collection with the
    same sum, so searching multiplicity maps loses nothing.
    """
    return _extremal(q, "sum")


def extremal_prod(q: ExtremalQuery) -> ExtremalResult:
    """Largest product of edge counts over rainbow-free collections."""
    return _extremal(q, "prod")


def _extremal(q: ExtremalQuery, mode: str) -> ExtremalResult:
    """The entry all three searches share: trivial families are answered
    without a node, a budget stop keeps the incumbent with exact=False,
    and the witness is checked against the objective and the family."""
    if q.mode != mode:
        raise ValueError(f"query mode must be {mode!r}")
    budget = _Budget(q.budget if q.budget is not None else default_budget())
    infeasible, members = _split_family(q.family, q.n, q.t)
    if infeasible:
        return ExtremalResult(-1 if mode == "min" else 0, None, 0, True)
    objective = {"min": min, "sum": sum, "prod": prod}[mode]
    if not members:
        full = Collection([Graph.complete(q.n)] * q.t)
        return ExtremalResult(objective(full.edge_counts()), full, 0, True)
    s = _CollectionSearch(q.n, q.t, members, budget)  # incumbent: 0, edgeless
    exact = True
    try:
        if mode == "min":
            _scan_min(s)
        elif mode == "sum":
            _search_sum(s)
        else:
            s.run()
    except _BudgetStop:
        exact = False
    if not is_rainbow_free(s.witness, q.family):
        raise AssertionError("search produced a non-free witness")
    counts = s.witness.edge_counts()
    if not (min(counts) >= s.best if mode == "min" else objective(counts) == s.best):
        raise AssertionError(f"search witness {counts} does not attain {mode} = {s.best}")
    return ExtremalResult(s.best, s.witness, budget.used, exact)


def _scan_min(s: _CollectionSearch):
    """Threshold scan: each probe e asks the DFS for a collection with at
    least e edges per color, and a found one becomes the incumbent."""
    # t copies of one member-free graph are rainbow-free: min >= ex(n, members)
    value, g = _turan_family(s.n, s.members, s.budget)
    s.best, s.witness = value, Collection([g] * s.t)
    hi = s.P
    e = value + 1  # the seed is often optimal: probe just above it first
    while s.best < hi:
        if not s.run(e):
            hi = e - 1
        e = (s.best + hi + 1) // 2


def _search_sum(s: _CollectionSearch):
    """Nested multiplicity search: a pair of multiplicity mu lies in colors
    1..mu, so its table cell is (1 << mu) - 1.

    After pair p = uv takes a multiplicity, the cap of a later pair j can
    fall only through a copy of a member holding both j and p; every other
    copy through j was there before.  In a connected member the nearest
    endpoints of j and p are at most v(F) - 3 apart (v(F) the vertices on
    its edges): a shortest path between them avoids j and p, and its
    vertices and the two far endpoints are distinct.  So only pairs with an
    endpoint in that ball around {u, v} of ``union`` are refreshed, every
    pair when a member is disconnected.  A check skips the members with
    more edges than the largest multiplicity, ``top`` or j's own.

    p's multiplicities run downward, and the table at mu - 1 is the table
    at mu less color mu on p.  Freeness survives deleting edges, so j's cap
    at mu - 1 lies between its cap at mu and its cap before p (``saved``).
    Below the first mu only the caps that fell are refreshed, from
    ``saved`` down to a floor, the cap at mu, that ``pair_cap`` never
    checks; ``caps`` is restored once, after the last mu.

    Vertex symmetry: p's multiplicities run from the cap down and its skip
    comes last, so vectors (w(a, b) over the pairs in row-major order) are
    met in decreasing lexicographic order, and only a strictly larger total
    replaces the best.  The witness W* is therefore the lexicographically
    greatest optimal vector.  Relabeling vertices keeps freeness and the
    total, so W* is at least its image under the swap of j and j + 1.  The
    two first differ at (a, j), for the first row a < j where columns j
    and j + 1 differ, there needing w(a, j) > w(a, j + 1); when the columns
    tie on every row a < j, at (j, b), for the first b > j + 1 where rows j
    and j + 1 differ, there needing w(j, b) > w(j + 1, b).  Both rules read
    only pairs decided before uv: with j = v - 1 (v - 1 > u, columns tied
    on the rows above u), w(u, v) <= w(u, v - 1); with j = u - 1 (columns
    tied on the rows above u - 1, rows tied on the columns between u and
    v), w(u, v) <= w(u - 1, v).  So p's loop starts at the least of its cap
    and those multiplicities.  W* keeps both rules, so it is never cut, and
    the bound prunes as before: values and witnesses are those of the
    search without the rules, and node counts only fall."""
    n, t, pairs, P, live, budget = s.n, s.t, s.pairs, s.P, s.live, s.budget
    table, union, set_pair = s.table, s.union, s.set_pair
    radius = _refresh_radius(s.members)
    ends = [1 << u | 1 << v for u, v in pairs]

    def pair_cap(j: int, mu: int, top: int, floor: int = 0) -> int:
        """Largest multiplicity up to mu at which pair j joins the table
        freely, known to be at least floor, so no check runs at or below
        it; top is the largest multiplicity in the table."""
        u, v = pairs[j]
        set_pair(u, v, (1 << mu) - 1)
        while mu > floor and any(
            _exists_using_pair(n, t, table, union, f, (u, v), None) for f in live[max(mu, top)]
        ):
            mu -= 1
            set_pair(u, v, (1 << mu) - 1)
        set_pair(u, v, 0)
        return mu

    # caps[j]: the exact cap of pair j over the current table, for every j >= idx
    caps = [pair_cap(j, t, 0) for j in range(P)]

    def dfs(idx: int, total: int, top: int):
        budget.step()
        if total + sum(caps[idx:]) <= s.best:
            return
        if idx == P:  # the bound above left total > best
            s.keep(total)
            return
        u, v = pairs[idx]
        start = caps[idx]
        if v - 1 > u and all(table[a][v - 1] == table[a][v] for a in range(u)):
            start = min(start, table[u][v - 1].bit_length())  # columns v-1, v
        if u and all(table[a][u - 1] == table[a][u] for a in range(u - 1)) and all(
            table[u - 1][b] == table[u][b] for b in range(u + 1, v)
        ):
            start = min(start, table[u - 1][v].bit_length())  # rows u-1, u
        saved = caps[idx + 1 :]
        near = -1 if radius is None else _ball(union, ends[idx], radius)
        for mu in range(start, 0, -1):
            set_pair(u, v, (1 << mu) - 1)
            high = max(top, mu)
            for j, was in enumerate(saved, idx + 1):
                if caps[j] < was:  # fell at mu + 1, so lies in caps[j]..was at mu
                    caps[j] = pair_cap(j, was, high, caps[j])
                elif was and near & ends[j]:
                    caps[j] = pair_cap(j, was, high)
            dfs(idx + 1, total + mu, high)  # returns with caps as it found them
            near = 0  # below the first multiplicity only fallen caps move
        caps[idx + 1 :] = saved
        set_pair(u, v, 0)
        dfs(idx + 1, total, top)

    dfs(0, 0, 0)


def _refresh_radius(members) -> int | None:
    """max(v(F) - 3, 0) over the members, None when a member's edges are
    not one connected graph."""
    radius = 0
    for f in members:
        touched = reduce(or_, f.adj)
        if _ball(f.adj, touched & -touched, f.n) != touched:
            return None
        radius = max(radius, touched.bit_count() - 3)
    return radius


def _ball(rows, seeds: int, radius: int) -> int:
    """The vertices at most radius steps from the seed set along the rows."""
    ball = seeds
    for _ in range(radius):
        ball |= reduce(or_, (row for w, row in enumerate(rows) if ball >> w & 1), 0)
    return ball


# ---------------------------------------------------------------------
# plain Turan numbers by orderly generation


def turan_exact(n: int, f: Graph, budget: int | None = None) -> int:
    """Largest edge count of an n-vertex graph with no copy of f."""
    return turan_extremal(n, f, budget)[0]


def turan_extremal(n: int, f: Graph, budget: int | None = None) -> tuple[int, Graph]:
    """ex(n, f) together with the extremal graph of least canonical form,
    relabelled to that form.  The budget counts extension attempts."""
    if not 1 <= n <= 12:
        raise ValueError("orderly generation supports 1 <= n <= 12")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1 extension attempt")
    limit = _Budget(budget if budget is not None else default_budget())
    try:
        return _turan_family(n, [f], limit)
    except _BudgetStop:
        raise BudgetExceeded(
            f"orderly generation exceeded {limit.limit} extension attempts"
        ) from None


def _edge_floor(n: int, members) -> int:
    """Edge count of an explicit member-free n-vertex graph, so at most
    ex(n, members); 0 when even the edgeless graph holds a member.

    The graph is the densest member-free balanced complete r-partite graph
    T(n, r), saturated by adding pairs in lexicographic order while it
    stays member-free.
    """
    def free(rows) -> bool:
        g = Graph(n, rows)
        return not any(contains_subgraph(g, f) for f in members)

    for r in range(n, 0, -1):  # T(n, r) gains edges with r; vertex v in part v mod r
        rows = [sum(1 << w for w in range(n) if (w - v) % r) for v in range(n)]
        if free(rows):
            break
    else:
        return 0
    for u, v in _pairs(n):
        if not rows[u] >> v & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if not free(rows):
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
    return sum(row.bit_count() for row in rows) // 2


def _turan_family(n: int, members, budget: _Budget) -> tuple[int, Graph]:
    """Shared orderly-generation core; members is any iterable of patterns.

    Each level maps canonical forms to the first graph found in the class.
    A child is the parent plus a new vertex adjacent to the parent vertices
    in ``mask``, tried in ascending order.  A mask holding a twin but missing
    a lower twin of the same class (``_twin_classes`` of the parent) is
    skipped: swapping the two gives a smaller mask and an isomorphic child,
    which was tried first.  The budget takes one step per mask tried, and
    ``_BudgetStop`` reaches the caller.

    ``_edge_floor`` gives a certified lower bound on ex(n, members).
    Deleting a minimum-degree vertex from a k-vertex graph with e edges
    keeps at least e(k-2)/k = e C(k-1,2)/C(k,2) of them, so every extremal
    graph lies over a chain of induced subgraphs, one per level, whose
    k-vertex member has at least floor C(k,2)/C(n,2) edges; sparser children
    are skipped before they cost a step.  Isomorphic children have equal
    edge counts, so the skip never hides a class the twin rule relies on,
    and the last level holds every extremal class.

    Returns (-1, edgeless) when an edgeless member fits the host (then no
    host graph avoids it).  Unreachable members are dropped.
    """
    if any(f.edge_count() == 0 and f.n <= n for f in members):
        return -1, Graph.edgeless(n)
    active = [f for f in members if f.edge_count() >= 1 and f.n <= n]
    if not active:
        return comb(n, 2), Graph.complete(n)
    floor = _edge_floor(n, active)

    level: dict[bytes, tuple[int, ...]] = {_canonical(1, (0,)): (0,)}
    for k in range(2, n + 1):
        need = -(-floor * comb(k, 2) // comb(n, 2))  # ceiling
        nxt: dict[bytes, tuple[int, ...]] = {}
        for rows in level.values():
            short = need - sum(r.bit_count() for r in rows) // 2
            # consecutive twins lo < hi of the parent: hi needs lo in the mask
            steps = [
                (1 << lo, 1 << hi)
                for cls in _twin_classes(k - 1, rows)
                for lo, hi in zip(cls, cls[1:])
            ]
            for mask in range(1 << (k - 1)):
                if mask.bit_count() < short:
                    continue
                if any(mask & hi and not mask & lo for lo, hi in steps):
                    continue
                budget.step()
                new_rows = _extend_rows(rows, mask, k)
                if _hits_pattern(new_rows, k, active):
                    continue
                nxt.setdefault(_canonical(k, new_rows), new_rows)
        level = nxt
    edges = {form: sum(r.bit_count() for r in rows) // 2 for form, rows in level.items()}
    g = _from_canonical(min(level, key=lambda form: (-edges[form], form)))
    if g.edge_count() < floor:
        raise AssertionError(f"ex(n, members) = {g.edge_count()} below its certified floor {floor}")
    return g.edge_count(), g


def _extend_rows(rows: tuple[int, ...], mask: int, k: int) -> tuple[int, ...]:
    new_bit = 1 << (k - 1)
    out = [r | new_bit if mask >> i & 1 else r for i, r in enumerate(rows)]
    out.append(mask)
    return tuple(out)


def _hits_pattern(rows: tuple[int, ...], k: int, members) -> bool:
    """Does the k-vertex graph contain a member through the new vertex k-1?
    The parent graph was member-free, so no other copy can exist."""
    for f in members:  # a loop, not any() over a generator: this runs once per extension
        if _exists_through_vertex(rows, f, k - 1):
            return True
    return False
