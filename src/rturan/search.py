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

The boundary rule: members reach every search and every ex(n, F)
computation through ``_split_family``, which drops those that cannot fit,
answers an edgeless one that fits, and strips the isolated vertices of the
rest, so below it v(F) is the vertex count of F and every vertex lies on
an edge.  ``_Budget`` owns the node budget, ``default_budget()`` when the
caller gives none.

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
seeded by any other, so K3 needs one search instead of six.  Each search
keeps its residual copies: the last rainbow copy found through each
(member, pair, forced color), re-checked by one color matching before
that search runs again (``_CollectionSearch``).  Budgets
count search nodes, never wall-clock time, so results are
bit-reproducible.

Two certified bounds cut the min and sum trees; neither changes a value.
min starts from a seed: t copies of one member-free graph are rainbow
free, so min >= ex(n, members), with t copies of the orderly-generation
extremal graph as the witness.  The scan then probes seed + 1 first (the
seed is often optimal, and that probe then settles it) and bisects only
when it is feasible.  The seed runs under the query's budget, one node
per extension attempt, so min node counts include it.  sum starts from
the paper's sum.cliques collection: e - 1 complete colors, e the fewest
edges of a member, hold no rainbow member, so sum >= L = (e - 1) C(n, 2).
It keeps a total above L - 1, not L, so it still meets the same optimal
vector first, and until then returns the cliques.  sum keeps, for every
pair not yet decided, its cap: the largest multiplicity at which it can
still join the current nested collection freely.  Rainbow freeness survives
deleting edges and colors are nested, so caps only fall along a branch
and every multiplicity up to the cap is free.  A branch is cut when its
total plus a bound on the undecided pairs cannot beat the best, which
cannot change the sequence of improvements or the witness.  The bound is
the caps' sum less what copies of a member among those pairs must lose:
with nested colors a copy is rainbow exactly when its multiplicities,
sorted, satisfy Hall's condition b_i >= i, so a free copy falls below its
caps by a least loss.  An edge-disjoint packing of copies loses the sum
of their losses; copies weighted by 1 / max d(p), d(p) the copies through
pair p, cover each pair at most once and lose the weighted sum.  Both
packings depend only on the first undecided pair and are built once per
process for each n and member (``_packings``).  The bound falls with the
caps, so a node whose children are cut on the caps they inherit counts
them and refreshes none.  After a pair takes a
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
permutation fixes colors 1..i-1 and maps color i below itself.  The DFS
checks each color once it is complete, and only after colors 1..i-1 were
accepted: color 1 against all n! - 1 non-identity permutations, color i
against the permutations fixing colors 1..i-1, a set that shrinks with i
and is usually small.  An accepted color keeps the ones that fix it too,
as the set the next color is checked against.  Each
permutation is held as a table of 96 pair-mask images, one 32-entry chunk
for each 5 bits of a mask, so an image costs three lookups and two sums.
Three chunks hold the C(n, 2) <= 15 pairs only up to n = 6, where the n!
tables still fit.  The whole group is one dict (``_orbit_table``), built
once per process by the first min or prod search at that n.  With a
marker bit at P = C(n, 2) it maps each mask least in its orbit, one per
isomorphism class of n-vertex graphs (156 at n = 6), to its stabilizer,
so a check against the whole group (color 1, or a color after complete or
empty ones) is one lookup, and a mask it lacks is rejected.  With the
marker at idx < P it holds the first idx bits of each such mask.  A blind
color (one no member fits) checked against the whole group reads those
too, in the spirit of isomorph rejection (McKay, J. Algorithms 26, 1998):
a DFS node whose decided pairs begin no orbit representative can reach no
canonical leaf, so its subtree is counted into the budget in one step and
never walked (``_subtree_nodes``).  Nothing in such a subtree
touches the table, the detector or the incumbent, so values, node counts,
witnesses and budget stops stay those of the node-by-node walk.

ex(n, F) for a single plain graph is computed by orderly generation:
F-free graphs are grown one vertex at a time and deduplicated by
canonical form, so each isomorphism class is extended exactly once.
Twin vertices of a parent are interchangeable, so only new-vertex
neighbourhoods packed toward the lowest twins are tried, built directly
as unions of one prefix per twin class.  A child holds a member only
through its new vertex, so only copies through it are searched.  Only
graphs dense enough to lie under an extremal graph are grown: with L the
edge count of an explicit F-free graph (a Turan graph saturated greedily),
level k keeps graphs with at least L C(k,2)/C(n,2) edges, since deleting
a minimum-degree vertex never lowers the edge density (Katona, Nemetz &
Simonovits, 1964).  The generation follows that deletion chain itself: a
child is grown only when its new vertex has least degree in it, so each
graph of a level is a graph of the level below plus a least-degree vertex,
and every extremal graph still lies over such a chain.  Nothing extends
the last level, so its classes are never deduplicated: its children are
collected, one budget step each, and tested densest first.  The first
member-free one fixes ex(n, F), where ``turan_exact`` stops; the extremal
graph takes the rest of that edge count, canonicalising only the
member-free children.  The graph returned is the extremal class with the
least canonical form, relabelled to that form, so it does not depend on
the order in which the classes were met.
"""

from __future__ import annotations

import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, islice, permutations
from math import comb, lcm, prod
from operator import add, itemgetter, or_

from .graphcore import (
    Graph,
    PatternFamily,
    _canonical,
    _from_canonical,
    _is_int,
    _normalize_member,
    _twin_classes,
)
from .collection import Collection, contains_subgraph, is_rainbow_free
from .collection import _exists_through_vertex, _exists_using_pair, _plan

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
_PACKING_MAX_COPIES = 20_000  # a member with more copies in K_n gets no packing bound


class BudgetExceeded(RuntimeError):
    """Search node budget exhausted before the exact answer was proven."""


class _Budget:
    """Step counter: the step past ``limit`` raises BudgetExceeded, which
    the collection searches catch to keep their incumbent.  A limit of
    None is ``default_budget()``, read when the budget is made."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = default_budget() if limit is None else limit
        self.used = 0

    def step(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"search exceeded its budget of {self.limit} steps")

    def take(self, steps: int):
        """Take steps at once.  Passing the limit stops at limit + 1, as
        taking them one by one would."""
        self.used += steps
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExceeded(f"search exceeded its budget of {self.limit} steps")


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


def _check_args(n, budget, **more):
    """The argument check of the searches and of orderly generation:
    ValueError unless n, budget and the other values are ints, not bools,
    with 1 <= n <= 12 and budget None or at least 1."""
    for name, v in {"n": n, **more, "budget": budget}.items():
        if not _is_int(v) and not (name == "budget" and v is None):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if not 1 <= n <= 12:
        raise ValueError(f"n must be in 1..12, got {n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


def _check_query(n, t, budget):
    """The checks of ``ExtremalQuery`` that read no family, so a caller can
    run them before it builds one: those of ``_check_args`` and 1 <= t <= 6."""
    _check_args(n, budget, t=t)
    if not 1 <= t <= 6:
        raise ValueError(f"t must be in 1..6, got {t}")


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
        _check_query(self.n, self.t, self.budget)
        if not isinstance(self.family, PatternFamily):
            raise ValueError(f"family must be a PatternFamily, got {self.family!r}")


@dataclass(frozen=True)
class ExtremalResult:
    value: int
    witness: Collection | None
    nodes: int
    exact: bool


def _split_family(family: PatternFamily, n: int, t: int):
    """(infeasible, enforceable members): edgeless members fitting the host
    make every collection non-free; members too big or needing more colors
    than exist can never have a copy and are dropped.  The members kept
    lose their isolated vertices, which a host of n vertices always has
    room for."""
    infeasible = any(f.edge_count() == 0 and f.n <= n for f in family)
    members = [
        _normalize_member(f)
        for f in family
        if f.edge_count() >= 1 and f.n <= n and f.edge_count() <= t
    ]
    return infeasible, members


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _pair_perm_tables(n: int) -> tuple[array, ...]:
    """For each non-identity vertex permutation, the images of pair masks
    in three 32-entry chunks: the image of mask bits 0-4 at offsets 0-31,
    of bits 5-9 at 32-63 and of bits 10-14 at 64-95, so a mask maps to the
    sum of three lookups (``_stabilizer``).  Three 5-bit chunks cover the
    C(n, 2) <= 15 pairs of n <= 6.  Only ``_orbit_table`` builds them."""
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


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> dict | None:
    """The whole vertex group as one dict over pair masks with a marker bit
    at P = C(n, 2), or None when P > 15, above three 5-bit chunks:

    * ``mask | 1 << P``, for each mask least in its orbit, maps to its
      stabilizer: the ``_pair_perm_tables`` fixing it, in their order, as
      ``_stabilizer`` returns them.  The empty and complete masks, fixed by
      every table, map to the dict itself, the whole group.  A mask with an
      image below it, where ``_stabilizer`` returns None, is absent.
    * every shorter prefix of those masks, its bits below an idx < P with
      the marker at idx, maps to None.  So a DFS node that has decided
      pairs 0..idx-1 into ``mask`` begins an orbit representative exactly
      when ``mask | 1 << idx`` is a key.

    Built column-major on first use: ``columns[j]`` holds entry j of every
    table, so a mask's images under all tables are the sums of at most
    three columns.  The least mask not yet ``seen`` is the least of its
    orbit; its images mark the orbit, so each orbit costs one pass over the
    tables (4, 11, 34 and 156 orbits at n = 3..6; 1,245 keys at n = 6)."""
    P = comb(n, 2)
    if P > 15:
        return None
    tables = _pair_perm_tables(n)
    marker, full = 1 << P, (1 << P) - 1
    columns = list(zip(*tables))
    orbits: dict = {}
    orbits[marker] = orbits[full | marker] = orbits
    seen = bytearray(full + 1)
    seen[full] = 1
    mask = seen.find(0, 1)
    while mask > 0:
        images = columns[mask & 31]  # a chunk of mask that is 0 adds nothing
        if mask >> 5:
            images = map(add, images, columns[32 | mask >> 5 & 31])
            if mask >> 10:
                images = map(add, images, columns[64 | mask >> 10])
            images = list(images)
        for image in set(images):
            seen[image] = 1
        fixing, i = [], -1
        for _ in range(images.count(mask)):
            i = images.index(mask, i + 1)
            fixing.append(tables[i])
        orbits[mask | marker] = fixing
        mask = seen.find(0, mask + 1)
    for key in list(orbits):
        for idx in range(P):
            orbits.setdefault(key & (1 << idx) - 1 | 1 << idx, None)
    return orbits


@lru_cache(maxsize=None)
def _subtree_nodes(left: int, count: int, cap: int, least: int) -> int:
    """Nodes of a ``_dfs`` subtree whose leaves all fail: the node holds
    count pairs with ``left`` still undecided, and a node is pruned when
    its room, count + left, is below ``least``.  A node that is pruned or
    has decided every pair is one node; any other adds its pair (when
    count < cap) and skips it."""
    if left == 0 or count + left < least:
        return 1
    nodes = 1 + _subtree_nodes(left - 1, count, cap, least)
    if count < cap:
        nodes += _subtree_nodes(left - 1, count + 1, cap, least)
    return nodes


class _CollectionSearch:
    """Search state of all three objectives with the incumbent (``best``,
    ``witness``) a budget stop leaves standing, and ``run``, the one
    color-by-color DFS of min and prod: colors are filled pair by pair with
    nonincreasing edge counts, ``canonical_prefix`` checked at each color
    boundary.  ``_dfs`` fills one color in one loop, a node per pass, and
    recurses only at a color boundary; a blind color, too small for any
    member, is held as a pair mask and reaches the table only at its
    boundary.  A node is pruned when its room, the pairs in its color plus
    the pairs undecided, is below the color's ``least_room``: a floor e > 0
    (min) prunes a color that cannot reach e edges and stops at the first
    full collection; floor 0 (prod) prunes by prefix * maxc^(t-k+1) against
    the best product and searches on.  A full collection becomes the
    incumbent, valued at the floor or its product.

    The colors are held as one color table (``table[u][v]`` the mask of the
    colors holding pair uv, as ``Collection.color_table``) with ``union``,
    the adjacency rows of its nonzero cells, beside it (a color's pair mask
    lives in ``_dfs`` alone).  ``live[k]`` holds the plans, compiled once per
    search, of the members with at most k edges, the only ones k nonempty
    colors can hold rainbow; sum refreshes caps in a ``union`` ball.

    ``copies`` holds the search's residual copies: the anchored checks of
    ``try_add`` (min, prod) and of ``pair_cap`` (sum) first re-check the
    last rainbow copy found through the same (member, pair, forced color),
    and run the full detector only when that copy no longer takes distinct
    colors (``_exists_using_pair``).  The answers do not change, so neither
    do node counts.  It holds at most members x pairs x (t + 1) entries and
    lives as long as the search.  ``stabs`` is the stabilizer chain of
    ``canonical_prefix``.  It starts at ``orbits`` (``_orbit_table``), the
    whole group, which also lets ``_dfs`` count, not walk, the subtrees of
    a blind color under the whole group that hold no orbit representative."""

    def __init__(self, n: int, t: int, members, budget: _Budget):
        self.n = n
        self.t = t
        self.members = members
        plans = [_plan(f) for f in members]
        self.live = [[p for p in plans if len(p.edges) <= k] for k in range(t + 1)]
        self.budget = budget
        self.pairs = _pairs(n)
        self.P = len(self.pairs)
        self.table = [[0] * n for _ in range(n)]
        self.union = [0] * n
        self.stabs: list = [()] * (t + 1)  # stabs[k]: the permutation tables fixing colors 1..k
        self.orbits = None  # the whole group, ``_orbit_table``, set by ``reset``
        self.copies: dict = {}  # residual copies of the anchored detector (``_exists_using_pair``)
        self.floor = 0
        self.best = 0
        self.witness = self.snapshot()

    def reset(self):
        for cells in self.table:
            cells[:] = [0] * self.n
        self.union[:] = [0] * self.n
        self.orbits = _orbit_table(self.n)
        self.stabs[0] = self.orbits or ()

    def keep(self, value: int):
        """Make the current collection the incumbent, valued at value."""
        self.best = value
        self.witness = self.snapshot()

    def run(self, floor: int = 0) -> bool:
        """The DFS from an empty collection; True when min (floor > 0) found one."""
        self.reset()
        self.floor = floor
        return self._dfs(1, self.P, 1)

    def _dfs(self, k: int, cap: int, prefix: int) -> bool:
        """Fill color k with up to cap edges; prefix is the product of the
        counts of colors 1..k-1.  The color is one loop and each pass is one
        node at (idx, count): add pair idx and go on to idx + 1, or skip it.
        The pairs added so far are the bits of ``mask``, so a failed subtree
        takes back the highest one and that pair's skip is the next pass.
        The only recursion is into color k + 1, at idx = P.

        A blind color (``live[k]`` empty: no member fits k colors) cannot
        complete a rainbow copy, so its pairs stay in ``mask`` alone, with no
        detector, table or union write.  ``paint`` puts the color into the
        table once its prefix is canonical and takes it out again when the
        subtree finds nothing.  Blind colors come first, since ``live`` only
        grows with k, so a live color's detector always sees them.

        The one prune test: a node whose room, count + P - idx, is below
        ``least`` (``least_room``) is pruned.  ``least`` depends on ``best``
        alone besides the color, and ``best`` rises only below an accepted
        color boundary, so it is computed when the color starts and again
        after each such boundary returns.

        A blind color checked against the whole group (``stabs[k - 1] is
        orbits``) is accepted only as an orbit representative.  A node whose
        ``mask`` begins none (``mask | 1 << idx`` not in ``orbits``) holds no
        leaf that passes, and nothing else in its subtree writes state, so
        the subtree is one ``budget.take`` of its node count
        (``_subtree_nodes``, pruned at the same ``least``, which cannot
        change inside it) and the loop backs up.  A budget stop inside it
        stops where the walk would, with the same incumbent."""
        step, P, floor, power = self.budget.step, self.P, self.floor, self.t - k + 1
        blind = not self.live[k]
        orbits = self.orbits if blind and self.stabs[k - 1] is self.orbits else None
        least = self.least_room(cap, prefix, power)
        idx = count = mask = 0
        while True:
            step()
            if count + P - idx < least:
                pass  # pruned: below min's floor, or prod cannot beat best
            elif orbits and mask | 1 << idx not in orbits:
                # no orbit representative extends mask: count the subtree, walk none of it
                self.budget.take(_subtree_nodes(P - idx, count, cap, least) - 1)
            elif idx == P:
                if self.canonical_prefix(k, mask):
                    if blind:
                        self.paint(k, mask, True)
                    if k < self.t:
                        found = self._dfs(k + 1, count, prefix * count)
                    else:
                        self.keep(floor or prefix * count)  # prod: room >= least put it above best
                        found = floor > 0
                    if found:
                        return True
                    if blind:
                        self.paint(k, mask, False)
                    least = self.least_room(cap, prefix, power)  # best may have risen
            elif count < cap and (blind or self.try_add(k, idx)):
                mask |= 1 << idx
                idx += 1
                count += 1
                continue
            else:
                idx += 1
                continue
            # the subtree at (idx, count) failed: back up to the last pair added
            if not mask:
                return False
            idx = mask.bit_length() - 1
            mask ^= 1 << idx
            if not blind:
                self.remove(k, idx)
            count -= 1
            idx += 1

    def least_room(self, cap: int, prefix: int, power: int) -> int:
        """The least room a node of a color with up to cap edges needs to
        stay unpruned: min's floor, or for prod the least r <= cap with
        prefix * r^power > best (P + 1, above every room, when none is), so
        a room falls below it exactly when prefix * min(cap, room)^power
        cannot beat best; prefix is the product of the earlier counts and
        power the colors left, this one included."""
        if self.floor:
            return self.floor
        return next((r for r in range(cap + 1) if prefix * r**power > self.best), self.P + 1)

    def paint(self, color: int, mask: int, on: bool):
        """Put the pairs of mask into the color (on) or take them out."""
        bit, pairs, table = 1 << (color - 1), self.pairs, self.table
        while mask:
            low = mask & -mask
            u, v = pairs[low.bit_length() - 1]
            self.set_pair(u, v, table[u][v] | bit if on else table[u][v] & ~bit)
            mask ^= low

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
        for plan in self.live[color]:
            if _exists_using_pair(table, union, plan, (u, v), color, self.copies):
                self.set_pair(u, v, was)
                return False
        return True

    def remove(self, color: int, idx: int):
        u, v = self.pairs[idx]
        self.set_pair(u, v, self.table[u][v] & ~(1 << (color - 1)))

    def set_pair(self, u: int, v: int, mask: int):
        """Give pair uv the color mask; it is in the union while the mask is nonzero."""
        self.table[u][v] = self.table[v][u] = mask
        if mask:
            self.union[u] |= 1 << v
            self.union[v] |= 1 << u
        else:
            self.union[u] &= ~(1 << v)
            self.union[v] &= ~(1 << u)

    def canonical_prefix(self, k: int, mask: int) -> bool:
        """No vertex relabeling makes colors 1..k lexicographically smaller,
        given that colors 1..k-1 were accepted in order, as the DFS asks,
        and that color k holds the pairs of ``mask`` (bit i: ``pairs[i]``).

        A relabeling makes them smaller exactly when it fixes colors 1..i-1
        and maps color i below itself for some i.  Colors 1..k-1 passed, so
        only ``stabs[k - 1]``, the stabilizer of those colors, is tested
        against color k; on acceptance the tables fixing color k among them
        become ``stabs[k]``.  When ``stabs[k - 1]`` is the whole group,
        ``orbits``, that is one lookup of ``mask | 1 << P`` there, which
        gives ``orbits`` again for the empty and complete masks; a proper
        subgroup is scanned (``_stabilizer``).
        """
        group = self.stabs[k - 1]
        stab = self.orbits.get(mask | 1 << self.P) if group is self.orbits else _stabilizer(group, mask)
        if stab is None:
            return False
        self.stabs[k] = stab
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
    budget = _Budget(q.budget)
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
    except BudgetExceeded:
        exact = False
    # checked on a copy, so the result does not keep the color table the check builds
    if not is_rainbow_free(Collection(s.witness.graphs), q.family):
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
    endpoints of j and p are at most v(F) - 3 apart: a shortest path
    between them avoids j and p, and its vertices and the two far
    endpoints are distinct.  So only pairs with an endpoint in that ball
    around {u, v} of ``union`` are refreshed, every pair when a member is
    disconnected.  A check skips the members with more edges than the
    largest multiplicity, ``top`` or j's own.

    p's multiplicities run downward, and the table at mu - 1 is the table
    at mu less color mu on p.  Freeness survives deleting edges, so j's cap
    at mu - 1 lies between its cap at mu and its cap before p (``saved``).
    Below the first mu only the caps that fell are refreshed, from
    ``saved`` down to a floor, the cap at mu, that ``pair_cap`` never
    checks; ``caps`` is restored once, after the last mu.  Each check
    re-checks the residual copy of (member, pair) in ``s.copies`` first, the
    last copy found through that pair (``_CollectionSearch``).

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
    search without the rules, and node counts only fall.

    The bound (``beaten``): a node is cut when its total plus the caps of
    pairs idx..P-1 less what some member's packings must lose there
    (``_packing_loses``) is at most ``cut``.  ``cut`` starts at L - 1, L the
    value of the sum.cliques incumbent, and is the best total once a total
    above it is kept.  W* has the optimal total, above every ``cut`` before
    it, so it is still met first among the optima.  The bound only falls
    with the caps, and a child's total is at most total + start, so when
    ``beaten(idx + 1, total + start)`` holds on the caps the children
    inherit, each of the start + 1 children would be cut at its first
    step: they take their budget steps at once, with no cap refreshed."""
    t, pairs, P, live, budget = s.t, s.pairs, s.P, s.live, s.budget
    table, union, set_pair, copies = s.table, s.union, s.set_pair, s.copies
    radius = _refresh_radius(s.members)
    ends = [1 << u | 1 << v for u, v in pairs]

    def pair_cap(j: int, mu: int, top: int, floor: int = 0) -> int:
        """Largest multiplicity up to mu at which pair j joins the table
        freely, known to be at least floor, so no check runs at or below
        it; top is the largest multiplicity in the table."""
        u, v = pairs[j]
        set_pair(u, v, (1 << mu) - 1)
        while mu > floor and any(
            _exists_using_pair(table, union, plan, (u, v), None, copies) for plan in live[max(mu, top)]
        ):
            mu -= 1
            set_pair(u, v, (1 << mu) - 1)
        set_pair(u, v, 0)
        return mu

    # caps[j]: the exact cap of pair j over the current table, for every j >= idx
    caps = [pair_cap(j, t, 0) for j in range(P)]
    # sum.cliques: e_min - 1 complete colors hold no rainbow member (all t with no member)
    least = min((f.edge_count() for f in s.members), default=t + 1) - 1
    s.best = least * P
    s.witness = Collection([Graph.complete(s.n)] * least + [Graph.edgeless(s.n)] * (t - least))
    cut = max(s.best - 1, 0)  # a total above cut is kept
    packings = [(f.edge_count(), *pk) for f in s.members if (pk := _packings(s.n, f))]
    loss = _Loss()

    def beaten(i: int, total: int) -> bool:
        """No completion of pairs i..P-1 under the caps takes the total
        above cut: their sum, room, less what some member's packing must
        lose, is at most cut - total."""
        room = sum(caps[i:])
        excess = total + room - cut
        return excess <= 0 or any(_packing_loses(pk, loss, caps, i, room, excess) for pk in packings)

    def dfs(idx: int, total: int, top: int):
        nonlocal cut
        budget.step()
        if beaten(idx, total):
            return
        if idx == P:  # the bound above left total > cut
            s.keep(total)
            cut = total
            return
        u, v = pairs[idx]
        start = caps[idx]
        if v - 1 > u and all(table[a][v - 1] == table[a][v] for a in range(u)):
            start = min(start, table[u][v - 1].bit_length())  # columns v-1, v
        if u and all(table[a][u - 1] == table[a][u] for a in range(u - 1)) and all(
            table[u - 1][b] == table[u][b] for b in range(u + 1, v)
        ):
            start = min(start, table[u - 1][v].bit_length())  # rows u-1, u
        if beaten(idx + 1, total + start):  # caps only fall: every child is cut
            budget.take(start + 1)
            return
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


class _Loss(dict):
    """For a copy's caps (the key, in the copy's pair order), the least its
    total must fall below their sum for the copy to be free.  With nested
    colors a copy whose multiplicities, sorted, are b_1 <= ... <= b_e is
    rainbow exactly when b_i >= i for every i (Hall's condition), so a free
    copy has i values of at most i - 1 for some i; for that i it is
    cheapest to lower the i least caps to i - 1."""

    def __missing__(self, caps):
        c = sorted(caps)
        loss = self[caps] = min(sum(max(0, x - i) for x in c[: i + 1]) for i in range(len(c)))
        return loss


def _packing_loses(packing, loss: _Loss, caps, i: int, room: int, excess: int) -> bool:
    """Must every free completion of pairs i..P-1 fall at least excess below
    room, the sum of their caps?  ``packing`` is a member's edge count and
    ``_packings``; each free copy loses its ``loss`` at least.  Edge-disjoint
    copies lose the sum of theirs; weighted copies covering each pair at
    most once lose the weighted sum, and a total is an integer, so a
    weighted loss above excess - 1 is enough."""
    e, getters, levels = packing
    if room <= e * (excess - 1):
        return False  # a copy loses at most its least cap, so either packing at most room / e
    count, pack, nums, den = levels[i]
    if sum(loss[g(caps)] for g in pack) >= excess:
        return True
    limit, lost = den * (excess - 1), 0
    for g in islice(getters, count):
        drop = loss[g(caps)]
        if drop:
            lost += drop * min(g(nums))
            if lost > limit:
                return True
    return False


@lru_cache(maxsize=64)
def _packings(n: int, member: Graph):
    """The copies of member in K_n and, for every idx, an edge-disjoint and
    a fractional packing of the copies among pairs idx..P-1 (the copies at
    idx): ``(getters, levels)``, or None for a member with one edge (its
    caps are 0 already), over six vertices or over
    ``_PACKING_MAX_COPIES`` copies.  Each copy is one distinct shape of the
    member on one set of k = v(F) vertices, so each appears once.  The
    member has no isolated vertex (``_split_family``).

    ``getters`` holds an ``itemgetter`` of each copy's pair indices, latest
    first pair first.  ``levels[idx]`` is ``(count, pack, nums, den)``: the
    copies at idx are the first ``count`` getters; ``pack`` (getters)
    extends the pack at idx + 1 greedily by the copies whose first pair is
    idx, in the order of their vertex sets, then of the member's shapes.
    The fractional packing weighs a copy by 1 / max d(p) over its pairs,
    d(p) the copies at idx through p, so the weights through a pair sum to
    at most 1; over the common denominator ``den`` the weight is the least
    ``nums[p]`` over the copy's pairs."""
    edges, k = member.edges(), member.n
    if len(edges) < 2 or k > 6:
        return None
    spots = _pairs(k)
    shapes = {
        tuple(sorted(spots.index((min(p[a], p[b]), max(p[a], p[b]))) for a, b in edges))
        for p in permutations(range(k))
    }
    if comb(n, k) * len(shapes) > _PACKING_MAX_COPIES:
        return None
    picks = [itemgetter(*shape) for shape in sorted(shapes)]
    P = comb(n, 2)
    index = {p: i for i, p in enumerate(_pairs(n))}
    starting = [[] for _ in range(P + 1)]  # the copies by their first pair
    for vs in combinations(range(n), k):
        at = [index[vs[a], vs[b]] for a, b in spots]  # ascending, so each copy is too
        for pick in picks:
            c = pick(at)
            starting[c[0]].append(c)
    getters, levels = [], [None] * (P + 1)
    through = Counter()  # d(p) at idx
    used, pack = [False] * P, []
    for idx in range(P, -1, -1):
        through.update(chain.from_iterable(starting[idx]))
        for c in starting[idx]:
            getters.append(g := itemgetter(*c))
            if not any(map(used.__getitem__, c)):
                for p in c:
                    used[p] = True
                pack.append(g)
        den = lcm(*through.values())
        levels[idx] = (len(getters), tuple(pack), [den // through[p] if through[p] else 0 for p in range(P)], den)
    return getters, levels


def _refresh_radius(members) -> int | None:
    """max(v(F) - 3, 0) over the members, None when a member is not
    connected."""
    radius = 0
    for f in members:
        if _ball(f.adj, 1, f.n) != (1 << f.n) - 1:
            return None
        radius = max(radius, f.n - 3)
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
    """Largest edge count of an n-vertex graph with no copy of f.  It takes
    the budget steps ``turan_extremal`` takes, but builds no graph."""
    return _turan(n, f, budget, graph=False)[0]


def turan_extremal(n: int, f: Graph, budget: int | None = None) -> tuple[int, Graph]:
    """ex(n, f) together with the extremal graph of least canonical form,
    relabelled to that form.  The budget counts extension attempts."""
    return _turan(n, f, budget, graph=True)


def _turan(n: int, f: Graph, budget: int | None, graph: bool):
    _check_args(n, budget)
    if not isinstance(f, Graph):
        raise ValueError(f"pattern must be a Graph, got {f!r}")
    return _turan_family(n, [f], _Budget(budget), graph=graph)


def _edge_floor(n: int, members) -> int:
    """Edge count of an explicit member-free n-vertex graph, so at most
    ex(n, members); 0 when even the edgeless graph holds a member.

    The graph is the densest member-free balanced complete r-partite graph
    T(n, r), saturated by adding pairs in lexicographic order while it
    stays member-free.  The scan starts at r = min(n, v(F) - 1) over the
    members F: T(n, r) with r <= n holds K_r, so for r >= v(F) it holds F.
    When no T(n, r) is member-free, the loop ends on the edgeless T(n, 1),
    which holds an edgeless member; that copy stays with every added pair,
    so the saturation rejects each one and the count is 0.
    ``_turan_family`` answers edgeless members before it asks for a floor.
    """
    top = min([n] + [f.n - 1 for f in members])
    for r in range(max(top, 1), 0, -1):  # T(n, r) gains edges with r; vertex v in part v mod r
        rows = [sum(1 << w for w in range(n) if (w - v) % r) for v in range(n)]
        if not any(contains_subgraph(Graph(n, rows), f) for f in members):
            break
    plans = [_plan(f) for f in members]
    for u, v in _pairs(n):
        if not rows[u] >> v & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            # the graph without uv was member-free, so any copy uses u
            if _hits_pattern(rows, u, plans):
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
    return sum(row.bit_count() for row in rows) // 2


def _turan_family(n: int, members, budget: _Budget, *, graph: bool = True) -> tuple[int, Graph | None]:
    """Shared orderly-generation core; members is a list or family of patterns.

    Each level below n maps canonical forms to the first graph found in the
    class.  A child is the parent plus a new vertex adjacent to the parent
    vertices in ``mask``, tried in ascending order.  A mask holding a twin
    but missing a lower twin of the same class (``_twin_classes`` of the
    parent) is never built: swapping the two gives a smaller mask and an isomorphic child,
    which was tried first.  So the masks are the unions of one prefix of
    each class, sorted.  The budget takes one step per mask tried, and its
    ``BudgetExceeded`` reaches the caller.

    The parent is member-free, so a child holds a member only through the
    new vertex, which ``_hits_pattern`` checks.

    ``_edge_floor`` gives a certified lower bound on ex(n, members).
    Deleting a minimum-degree vertex from a k-vertex graph with e edges
    keeps at least e(k-2)/k = e C(k-1,2)/C(k,2) of them, so every extremal
    graph lies over a chain of induced subgraphs, one per level, whose
    k-vertex member has at least floor C(k,2)/C(n,2) edges; sparser children
    are skipped before they cost a step.

    That chain deletes a least-degree vertex at each step, so only children
    whose new vertex has least degree are grown.  With lo the parent's
    least degree and ``least`` the mask of its vertices of that degree, the
    new vertex has least degree exactly when the mask has at most lo
    vertices, or lo + 1 that include all of ``least``; other masks are
    skipped before they cost a step.  Both skips depend only on the child's
    isomorphism class (twins have equal degrees, and isomorphic children
    have equal edge counts), so they never hide a class the twin rule
    relies on, and the last level still holds every extremal class.

    Nothing extends the last level, so its classes need no deduplication.
    Its candidates (parent, mask) are first collected, one step each, as
    ints (parent index << (n - 1) | mask), then tested densest first, in
    generation order within an edge count.  The first member-free child
    fixes the value e*, and no sparser candidate is tested.  With ``graph``
    false the value is returned at once, with None for the graph, and no
    canonical form is computed at this level; otherwise the rest of the
    e*-edge candidates are tested and the least form of the member-free
    ones is the graph.  Either way the steps taken are those of the whole
    level, so the budget stops where it would if every candidate were
    decided.  Every candidate has at least ``floor`` edges, so a level
    with no member-free child contradicts the floor and raises.

    Members pass through ``_split_family`` with t = C(n,2), which drops only
    members above n vertices and strips the isolated vertices of the rest;
    (-1, edgeless) when an edgeless one fits.
    """
    infeasible, active = _split_family(members, n, comb(n, 2))
    if infeasible:
        return -1, Graph.edgeless(n)
    if not active:
        return comb(n, 2), Graph.complete(n)
    floor = _edge_floor(n, active)
    plans = [_plan(f) for f in active]

    level: dict[bytes, tuple[int, ...]] = {_canonical(1, (0,)): (0,)}
    for k in range(2, n):
        need = -(-floor * comb(k, 2) // comb(n, 2))  # ceiling
        nxt: dict[bytes, tuple[int, ...]] = {}
        for rows in level.values():
            for mask in _child_masks(rows, need):
                budget.step()
                new_rows = _extend_rows(rows, mask, k)
                if not _hits_pattern(new_rows, k - 1, plans):
                    nxt.setdefault(_canonical(k, new_rows), new_rows)
        level = nxt
    # the last level: every candidate costs its step, then the densest are decided first
    parents = list(level.values())
    low = (1 << n - 1) - 1
    by_edges: dict[int, list[int]] = {}  # child edge count -> parent index << (n - 1) | mask
    for i, rows in enumerate(parents):
        edges = sum(r.bit_count() for r in rows) // 2
        for mask in _child_masks(rows, floor):
            budget.step()
            by_edges.setdefault(edges + mask.bit_count(), []).append(i << n - 1 | mask)
    for edges in sorted(by_edges, reverse=True):
        forms = []
        for code in by_edges[edges]:
            new_rows = _extend_rows(parents[code >> n - 1], code & low, n)
            if not _hits_pattern(new_rows, n - 1, plans):
                if not graph:
                    return edges, None
                forms.append(_canonical(n, new_rows))
        if forms:
            g = _from_canonical(min(forms))
            if g.edge_count() < floor:
                raise AssertionError(f"ex(n, members) = {g.edge_count()} below its certified floor {floor}")
            return g.edge_count(), g
    raise AssertionError(f"ex(n, members) below its certified floor {floor}: no member-free child reaches it")


def _child_masks(rows: tuple[int, ...], need: int) -> list[int]:
    """The masks of the children of rows that are grown, ascending: the
    unions of one prefix of each twin class whose child keeps at least need
    edges and gives its new vertex least degree."""
    degrees = [r.bit_count() for r in rows]
    short = need - sum(degrees) // 2
    lo = min(degrees)
    least = sum(1 << v for v, d in enumerate(degrees) if d == lo)
    masks = [0]
    for cls in _twin_classes(len(rows), rows):
        prefixes = list(accumulate((1 << v for v in cls), or_, initial=0))
        masks = [m | p for m in masks for p in prefixes]
    # the new vertex has least degree in the child: at most lo
    # neighbours, or lo + 1 that take in every parent vertex of degree lo
    return sorted(m for m in masks if short <= m.bit_count() <= lo + (m & least == least))


def _extend_rows(rows: tuple[int, ...], mask: int, k: int) -> tuple[int, ...]:
    new_bit = 1 << (k - 1)
    out = [r | new_bit if mask >> i & 1 else r for i, r in enumerate(rows)]
    out.append(mask)
    return tuple(out)


def _hits_pattern(rows, anchor: int, plans) -> bool:
    """Does the graph contain a member (a plan) through the vertex anchor?
    The callers add the anchor's edges to a member-free graph, so no other
    copy can be there."""
    for plan in plans:  # a loop, not any() over a generator: this runs once per extension
        if _exists_through_vertex(rows, plan, anchor):
            return True
    return False
