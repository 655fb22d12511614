"""Registry of lower-bound constructions and claimed closed-form values.

Every entry builds a concrete rainbow-free collection witnessing a lower
bound for one of the three objectives, on canonically chosen vertex
blocks (lowest available indices, centers first), so outputs are
reproducible byte for byte.  Each entry also documents its per-color edge
counts and the forbidden family it avoids; the certification suite checks
both against the built collection.

A builder declares its colors once, in color order, as (graph, documented
edge count, number of colors) groups: a block and the run of colors that
repeat it (``_colored``).  The documented count is the paper's formula
(C(ell, 2), ell, ...), not read off the built graph, so comparing the two
certifies the blocks; only a searched inner part (min.i, min.ii, min.iv)
counts its own edges.

Construction ids (parameters in parentheses, optional ones in brackets;
f is a pattern string; any other name is rejected):

  min.i            (n, t, s, f[, inner])  split graph K_{s,n-s} in every
                   color plus a free collection on the s-part
  min.ii           (n, t, s, f[, inner])  same shape, cover-family inner
  min.iii          (n, t, p[, f, s])      K_{p-1,n-p+1} in every color
  min.iv           (n, t, f[, s, inner])  K_{p-1,n-p+1} plus inner
  min.kpp-remark   (n, t, s, p)           biclique plus per-vertex color
                   classes spread as evenly as possible
  sum.cliques      (n, t, f)              complete graphs in |E(f)|-1 colors
  sum.monochrome-extremal (n, t, f)       one extremal f-free graph repeated
  prod.matching    (n, t, s)              K_n in s-1 colors, star elsewhere
  prod.clique-star (n, t, s[, f])         monochromatic cliques plus a
                   shared star on the leftover vertices
  prod.star.gt     (n, t, s, r)           disjoint stars, t > s(r-1)
  prod.star.eq     (n, t, s, r)           disjoint stars, t = s(r-1)
  prod.star.lt     (n, t, s, r)           cliques plus stars, t < s(r-1)
  prod.star2       (n, t, s)              cliques plus one shared edge (r=2)
  prod.sm.bigstar  (n, t, s, r, m)        spanning star plus cliques
  prod.sm.star-clique (n, t, s, r, m)     small star plus cliques
  prod.sm.mixed    (n, t, s, r, m)        cliques plus a star construction
                   on the remaining colors

A construction avoiding {F, M_{s+1}} takes the paper's standing
hypothesis, s >= 1 and t >= max(|E(F)|, s+1), and raises GuardViolated
outside it.  F is f for min.i, min.ii, min.iii, min.iv (given s) and
prod.clique-star, K_{p,p} for min.kpp-remark, S_r for prod.star.gt/eq/lt,
S_2 for prod.star2 and S_r + mM_2 for prod.sm.*; prod.matching avoids
M_{s+1} alone (|E(F)| = 0).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, ceil

from .graphcore import (
    MAX_VERTICES,
    Graph,
    PatternFamily,
    SizeError,
    NotBipartite,
    parse_pattern,
    bipartition_min_class,
    family_deleted_independent,
    family_covering,
    _is_int,
)
from .collection import Collection, is_rainbow_free
from .search import (
    ExtremalQuery,
    ExtremalResult,
    extremal_min,
    extremal_sum,
    turan_exact,
    turan_extremal,
    BudgetExceeded,
    _check_query,
)

MAX_INNER_VERTICES = 4  # inner collections are searched, not supplied, up to here
MAX_COLORS = 1000  # describe builds at most this many colors (t); the grids stay at t <= 5


class GuardViolated(ValueError):
    """Parameters fall outside the case guards of the cited bound."""


class InnerTooLarge(ValueError):
    """Inner collection on the wrong vertex or color count, or an inner
    part above desk scale."""


class InnerInfeasible(BudgetExceeded):
    """Inner extremal search did not finish within its node budget."""


@dataclass(frozen=True)
class ConstructionInfo:
    collection: Collection
    expected_counts: tuple[int, ...]
    family: PatternFamily | None  # None when optional family params were omitted


def _pattern(value) -> Graph:
    return value if isinstance(value, Graph) else parse_pattern(str(value))


@lru_cache(maxsize=None)
def _parameters(fn) -> dict:
    """The parameters of a builder or formula (inspect.signature is slow)."""
    return inspect.signature(fn).parameters


def _checked(fn, params: dict) -> dict:
    """params as keyword arguments of fn: every name one of its
    construction parameters (not the keyword-only budget), every required
    one given, numeric parameters ints and patterns parsed."""
    sig = _parameters(fn)
    own = [k for k, p in sig.items() if p.kind is p.POSITIONAL_OR_KEYWORD]
    unknown = [k for k in params if k not in own]
    if unknown:
        raise GuardViolated(f"unknown parameters: {', '.join(unknown)}")
    missing = [k for k in own if k not in params and sig[k].default is sig[k].empty]
    if missing:
        raise GuardViolated(f"missing parameters: {', '.join(missing)}")
    for k in ("n", "t", "s", "p", "r", "m"):
        v = params.get(k, 0)
        if not _is_int(v):
            raise GuardViolated(f"parameter {k} must be an integer, got {v!r}")
    args = dict(params)
    for k in ("f", "f1"):
        if k in args:
            args[k] = _pattern(args[k])
    return args


def _fam(*graphs) -> PatternFamily:
    return PatternFamily.from_graphs(graphs)


def _with_matching(t: int, s: int, f: Graph | None = None) -> PatternFamily:
    """The standing hypothesis, s >= 1 and t >= max(|E(f)|, s+1), and the
    family {f, M_{s+1}} ({M_{s+1}} when f is None)."""
    if s < 1:
        raise GuardViolated("need s >= 1")
    need = max(0 if f is None else f.edge_count(), s + 1)
    if t < need:
        raise GuardViolated(f"need t >= max(|E(f)|, s+1) = {need}")
    return _fam(*(g for g in (f, Graph.matching(s + 1)) if g is not None))


def _min_class(f: Graph) -> int | None:
    """p(f), the smaller class of f's most balanced 2-coloring, or None
    when f is not bipartite."""
    try:
        return bipartition_min_class(f)
    except NotBipartite:
        return None


def _is_star_with_matching(f: Graph) -> bool:
    """Whether f is a star (possibly trivial) with extra isolated edges:
    some vertex meets every edge that has an end of degree above 1."""
    joined = [(u, v) for u, v in f.edges() if f.degree(u) > 1 or f.degree(v) > 1]
    return any(all(x in e for e in joined) for x in range(f.n))


def _inner_search(s: int, t: int, inner_family: partial, budget: int | None = None) -> ExtremalResult:
    """Exact min search for the inner part of a split construction.

    ``inner_family()`` builds the family the part avoids.  It runs only
    once the search's limits hold, since it can take seconds (a brute force
    over the vertex sets of f) where the search would refuse at once."""
    if s > MAX_INNER_VERTICES:
        raise InnerTooLarge(
            f"inner part has {s} > {MAX_INNER_VERTICES} vertices, too many to search"
            " (a construction takes an explicit inner collection)"
        )
    _check_query(s, t, budget)
    res = extremal_min(ExtremalQuery("min", s, t, inner_family(), budget))
    if not res.exact or res.witness is None:
        raise InnerInfeasible("inner extremal search hit its node budget")
    return res


def _resolve_inner(
    s: int, t: int, inner_family: partial, supplied: Collection | None, budget: int | None
) -> Collection:
    """Inner collection on s vertices: validate the supplied one or search."""
    if supplied is None:
        return _inner_search(s, t, inner_family, budget).witness
    if not isinstance(supplied, Collection):
        raise GuardViolated(f"inner must be a collection read from --inner PATH, got {supplied!r}")
    if supplied.n != s:
        raise InnerTooLarge(f"inner collection has {supplied.n} vertices, needs {s}")
    if supplied.t != t:
        raise InnerTooLarge(f"inner collection has {supplied.t} colors, needs {t}")
    if not is_rainbow_free(supplied, inner_family()):
        raise GuardViolated("supplied inner collection is not rainbow-free")
    return supplied


def _split_inner_family(which: str, f: Graph, n: int, t: int, s: int) -> tuple[PatternFamily, partial]:
    """Guards of min.i / min.ii, their family and a builder of the family
    the s-part avoids."""
    fam = _with_matching(t, s, f)
    if s >= n:
        raise GuardViolated("need s < n")
    p = _min_class(f)
    if which == "min.i":
        if p is not None:
            raise GuardViolated("min.i needs a non-bipartite pattern")
        return fam, partial(family_deleted_independent, f)
    if p is None:
        raise GuardViolated("min.ii needs a bipartite pattern")
    if p <= s:
        raise GuardViolated("min.ii needs p(f) > s")
    return fam, partial(family_covering, f, s)


def _balanced_tree_part(f: Graph, n: int, t: int) -> tuple[int, partial]:
    """Guards of min.iv on n vertices and t colors: p(f) and a builder of
    the family its (p-1)-part avoids."""
    p = _min_class(f)
    if p is None:
        raise GuardViolated("min.iv needs a (balanced) tree")
    if f.edge_count() != f.n - 1 or f.n != 2 * p:
        raise GuardViolated("min.iv needs a balanced tree (|V| = 2 p(f), connected)")
    if p < 2:
        raise GuardViolated("need p(f) >= 2")
    if p - 1 > n:
        raise GuardViolated(f"need n >= p(f) - 1 = {p - 1}")
    if t < f.edge_count():
        raise GuardViolated("need t >= |E(f)|")
    return p, partial(family_covering, f, p - 1)


def _prod_matching_guards(n: int, t: int, s: int) -> PatternFamily:
    """Guards of prod.matching and its family {M_{s+1}}."""
    fam = _with_matching(t, s)
    if n < 2:
        raise GuardViolated("need n >= 2")
    return fam


def _colored(family: PatternFamily | None, *groups) -> ConstructionInfo:
    """The construction whose colors are, in order, each (graph, documented
    edge count, number of colors) group's graph repeated over its run."""
    graphs: list[Graph] = []
    counts: list[int] = []
    for g, count, colors in groups:
        graphs += [g] * colors
        counts += [count] * colors
    return ConstructionInfo(Collection(graphs), tuple(counts), family)


def _split(n: int, s: int, inner: Collection, family: PatternFamily | None) -> ConstructionInfo:
    """K_{s,n-s} in every color plus the inner collection on 0..s-1."""
    base = Graph.complete_bipartite(s, n - s).adj
    pad = (0,) * (n - s)
    groups = [
        (Graph(n, [a | b for a, b in zip(base, g.adj + pad)]), s * (n - s) + g.edge_count(), 1)
        for g in inner.graphs
    ]
    return _colored(family, *groups)


def _disjoint_star(n: int, start: int, leaves: int) -> Graph:
    return Graph.from_edges(n, [(start, start + j) for j in range(1, leaves + 1)])


def _star_blocks(n: int, count: int, ell: int, start: int = 0) -> list[Graph]:
    """count disjoint stars with ell leaves on consecutive (ell+1)-vertex
    blocks from start (edgeless stars on single vertices when ell = 0)."""
    if start + count * (ell + 1) > n:
        raise GuardViolated("star blocks do not fit the vertex set")
    return [_disjoint_star(n, start + i * (ell + 1), ell) for i in range(count)]


def _disjoint_clique(n: int, start: int, order: int, extra=()) -> Graph:
    """K_order on start.., plus the edges in extra."""
    return Graph.from_edges(
        n, [(start + a, start + b) for a in range(order) for b in range(a + 1, order)] + list(extra)
    )


def _cliques(n: int, start: int, count: int, order: int) -> list[tuple[Graph, int, int]]:
    """Groups of count disjoint K_order in blocks from start, one color each."""
    return [
        (_disjoint_clique(n, start + i * order, order), comb(order, 2), 1) for i in range(count)
    ]


# ---------------------------------------------------------------------
# builders


def _b_min_split(
    which: str, n: int, t: int, s: int, f: Graph, inner: Collection | None = None,
    *, budget: int | None = None,
) -> ConstructionInfo:
    fam, inner_family = _split_inner_family(which, f, n, t, s)
    return _split(n, s, _resolve_inner(s, t, inner_family, inner, budget), fam)


def _b_min_iii(
    n: int, t: int, p: int, f: Graph | None = None, s: int | None = None
) -> ConstructionInfo:
    if (f is None) != (s is None):
        raise GuardViolated("min.iii takes f and s together")
    if not 1 <= p <= n:
        raise GuardViolated("need 1 <= p <= n")
    fam = None
    if f is not None:
        pf = _min_class(f)
        if pf is None:
            raise GuardViolated("min.iii needs a bipartite pattern")
        if pf != p:
            raise GuardViolated(f"p={p} must equal the pattern's smaller class {pf}")
        if pf > s:
            raise GuardViolated("min.iii needs p(f) <= s")
        fam = _with_matching(t, s, f)
    return _colored(fam, (Graph.complete_bipartite(p - 1, n - p + 1), (p - 1) * (n - p + 1), t))


def _b_min_iv(
    n: int, t: int, f: Graph, s: int | None = None, inner: Collection | None = None,
    *, budget: int | None = None,
) -> ConstructionInfo:
    p, inner_family = _balanced_tree_part(f, n, t)
    fam = None
    if s is not None:
        fam = _with_matching(t, s, f)
        if p > s:
            raise GuardViolated("min.iv needs p(f) <= s")
    return _split(n, p - 1, _resolve_inner(p - 1, t, inner_family, inner, budget), fam)


def _b_kpp(n: int, t: int, s: int, p: int) -> ConstructionInfo:
    if not (2 <= p <= s < n):
        raise GuardViolated("need 2 <= p <= s < n")
    fam = _with_matching(t, s, Graph.complete_bipartite(p, p))
    edge_lists = [[] for _ in range(t)]
    for v in range(s):
        for ci in _kpp_colors(v, t, p):
            edge_lists[ci] += [(v, c) for c in range(s, n)]
    # the s-p+1 later vertices take L = (s-p+1)(p-1) color slots 0, 1, ...
    # mod t, so color c gets ceil((L-c)/t) of them besides the p-1 shared
    slots = (s - p + 1) * (p - 1)
    counts = [(n - s) * (p - 1 + max(0, -(-(slots - c) // t))) for c in range(t)]
    return _colored(fam, *((Graph.from_edges(n, e), count, 1) for e, count in zip(edge_lists, counts)))


def _kpp_colors(v: int, t: int, p: int):
    """The 0-based colors in which vertex v < s of min.kpp-remark joins
    s..n-1: every color for the first p-1 vertices, then the next p-1
    colors for each later vertex, cyclically."""
    if v < p - 1:
        return range(t)
    return [((v - p + 1) * (p - 1) + j) % t for j in range(p - 1)]


def _b_sum_cliques(n: int, t: int, f: Graph) -> ConstructionInfo:
    if f.edge_count() < 1:
        raise GuardViolated("pattern needs at least one edge")
    q = f.edge_count() - 1
    if t < f.edge_count():
        raise GuardViolated("need t >= |E(f)|")
    return _colored(_fam(f), (Graph.complete(n), comb(n, 2), q), (Graph.edgeless(n), 0, t - q))


def _b_sum_monochrome(n: int, t: int, f: Graph, *, budget: int | None = None) -> ConstructionInfo:
    if n > 10:
        raise GuardViolated("extremal pattern-free graphs are searched up to n = 10")
    value, g = turan_extremal(n, f, budget)
    if value < 0:
        raise GuardViolated("no f-free graph exists on this vertex count")
    return _colored(_fam(f), (g, value, t))


def _b_prod_matching(n: int, t: int, s: int) -> ConstructionInfo:
    fam = _prod_matching_guards(n, t, s)
    star = _disjoint_star(n, 0, n - 1)
    return _colored(fam, (Graph.complete(n), comb(n, 2), s - 1), (star, n - 1, t - s + 1))


def _b_clique_star(n: int, t: int, s: int, f: Graph | None = None) -> ConstructionInfo:
    fam = _with_matching(t, s, f)
    if f is not None and _is_star_with_matching(f):
        raise GuardViolated("pattern must not be a star with isolated edges")
    ell = n // (2 * s)
    star_start = (s - 1) * ell  # below n / 2
    star_sz = n - star_start - 1
    star = _disjoint_star(n, star_start, star_sz)
    cliques = [_disjoint_clique(n, i * ell, ell, star.edges()) for i in range(s - 1)]
    groups = [(g, comb(ell, 2) + star_sz, 1) for g in cliques] + [(star, star_sz, t - s + 1)]
    return _colored(fam if f is not None else None, *groups)


def _b_star_gt(n: int, t: int, s: int, r: int) -> ConstructionInfo:
    if r <= 2:
        raise GuardViolated("this branch needs r > 2")
    fam = _with_matching(t, s, Graph.star(r))
    if t <= s * (r - 1):
        raise GuardViolated("need t > s(r-1)")
    ell = n // (s * t)
    *stars, last = _star_blocks(n, s, ell)
    first_edge = _disjoint_star(n, (s - 1) * (ell + 1), min(ell, 1))  # of the last star
    leftover = (first_edge, min(ell, 1), t - s * (r - 1) + 1)
    return _colored(fam, *((g, ell, r - 1) for g in stars), (last, ell, r - 2), leftover)


def _star_runs(n: int, t: int, s: int, r: int, ell: int, start: int = 0) -> list[tuple[Graph, int, int]]:
    """The color groups of prod.star.lt on blocks of ell + 1 vertices from
    start: s - k cliques K_{ell+1}, one color each, then k stars with ell
    leaves, r - 1 colors each but the last, which takes what is left of
    t.  k is ceil((t - s)/(r - 2)), and s when t = s(r-1): then no clique
    is left and every star takes r - 1 colors, prod.star.eq's layout."""
    k = s if t == s * (r - 1) else ceil((t - s) / (r - 2))
    last = t - (s - k) - (k - 1) * (r - 1)  # j + 1 for t - s = (k - 1)(r - 2) + j, 1 <= j <= r - 2
    *stars, last_star = _star_blocks(n, k, ell, start + (s - k) * (ell + 1))
    return _cliques(n, start, s - k, ell + 1) + [(g, ell, r - 1) for g in stars] + [(last_star, ell, last)]


def _b_star_eq(n: int, t: int, s: int, r: int) -> ConstructionInfo:
    if r < 2:
        raise GuardViolated("need r >= 2")
    if t != s * (r - 1):
        raise GuardViolated("need t = s(r-1)")
    fam = _with_matching(t, s, Graph.star(r))
    return _colored(fam, *_star_runs(n, t, s, r, n // (s * t)))


def _b_star_lt(n: int, t: int, s: int, r: int) -> ConstructionInfo:
    if r <= 2:
        raise GuardViolated("this branch needs r > 2")
    fam = _with_matching(t, s, Graph.star(r))
    if t >= s * (r - 1):
        raise GuardViolated("need t < s(r-1)")
    return _colored(fam, *_star_runs(n, t, s, r, n // (s * t)))


def _b_star2(n: int, t: int, s: int) -> ConstructionInfo:
    fam = _with_matching(t, s, Graph.star(2))
    ell = n // (s * t)
    pair_start = (s - 1) * ell
    if pair_start + 1 >= n:
        raise GuardViolated("no room for the shared edge")
    shared = _disjoint_star(n, pair_start, 1)
    return _colored(fam, *_cliques(n, 0, s - 1, ell), (shared, 1, t - s + 1))


def _sm_guards(n: int, t: int, s: int, r: int, m: int) -> PatternFamily:
    if r < 2:
        raise GuardViolated("need r >= 2")
    if not 1 <= m <= s - 1:
        raise GuardViolated("need 1 <= m <= s-1")
    return _with_matching(t, s, Graph.star_plus_matching(r, m))


def _b_sm_bigstar(n: int, t: int, s: int, r: int, m: int) -> ConstructionInfo:
    fam = _sm_guards(n, t, s, r, m)
    if r - 1 < t - s + 1:
        raise GuardViolated("need r-1 >= t-s+1")
    q = (n - 1) // (s - 1)
    star = _disjoint_star(n, 0, n - 1)
    return _colored(fam, (star, n - 1, t - s + 1), *_cliques(n, 1, s - 1, q))


def _b_sm_star_clique(n: int, t: int, s: int, r: int, m: int) -> ConstructionInfo:
    fam = _sm_guards(n, t, s, r, m)
    ell = n // (s * t)  # m <= s - 1 and t >= s + 1, so m * ell + 1 <= n
    star = _disjoint_star(n, 0, ell)
    return _colored(fam, (star, ell, t - m + 1), *_cliques(n, ell + 1, m - 1, ell))


def _b_sm_mixed(n: int, t: int, s: int, r: int, m: int) -> ConstructionInfo:
    fam = _sm_guards(n, t, s, r, m)
    if r <= 2:
        raise GuardViolated("this branch needs r > 2")
    if not r + s - 2 < t < s * (r - 1):
        raise GuardViolated("need r+s-2 < t < s(r-1)")
    if m * (r - 2) > s * (r - 1) - t:
        raise GuardViolated("need m <= (s(r-1)-t)/(r-2)")
    c = (s * (r - 1) - t) // (r - 2)
    ell = n // (s * t)
    offset = c * ell
    # the star layout of s - c and t - c on the vertices after the cliques; the
    # guards above imply its own: s - c >= 2, max(r, s - c + 1) <= t - c <= (s - c)(r - 1)
    inner = _star_runs(n, t - c, s - c, r, (n - offset) // ((s - c) * (t - c)), offset)
    return _colored(fam, *_cliques(n, 0, c, ell), *inner)


# each builder takes its construction's parameters; the ones that search
# also take a keyword-only budget for those searches
_BUILDERS = {
    "min.i": partial(_b_min_split, "min.i"),
    "min.ii": partial(_b_min_split, "min.ii"),
    "min.iii": _b_min_iii,
    "min.iv": _b_min_iv,
    "min.kpp-remark": _b_kpp,
    "sum.cliques": _b_sum_cliques,
    "sum.monochrome-extremal": _b_sum_monochrome,
    "prod.matching": _b_prod_matching,
    "prod.clique-star": _b_clique_star,
    "prod.star.gt": _b_star_gt,
    "prod.star.eq": _b_star_eq,
    "prod.star.lt": _b_star_lt,
    "prod.star2": _b_star2,
    "prod.sm.star-clique": _b_sm_star_clique,
    "prod.sm.mixed": _b_sm_mixed,
    "prod.sm.bigstar": _b_sm_bigstar,
}
CONSTRUCTION_IDS = tuple(_BUILDERS)


def describe(cid: str, params: dict, budget: int | None = None) -> ConstructionInfo:
    """Build a construction along with its documented counts and family.

    ``params`` holds exactly the parameters the module docstring lists for
    ``cid``; a missing or unknown name raises GuardViolated.  An n outside
    1..``MAX_VERTICES`` (30) or a t above ``MAX_COLORS`` (1000) raises
    SizeError before anything is built: each color repeats its block, so
    the collection grows with t.  So every builder sees n >= 1.

    ``budget`` bounds each inner search (the inner collection of min.i,
    min.ii and min.iv, the extremal graph of sum.monochrome-extremal);
    None uses ``default_budget()``.
    """
    if cid not in _BUILDERS:
        raise KeyError(f"unknown construction id {cid!r}")
    builder = _BUILDERS[cid]
    args = _checked(builder, params)
    if not 1 <= args["n"] <= MAX_VERTICES:
        raise SizeError(f"vertex count {args['n']} outside 1..{MAX_VERTICES}")
    if args["t"] > MAX_COLORS:
        raise SizeError(f"color count {args['t']} above {MAX_COLORS}")
    if "budget" in _parameters(builder):
        args["budget"] = budget
    return builder(**args)


def build(cid: str, params: dict) -> Collection:
    return describe(cid, params).collection


def meshulam_collection(n: int, s: int, t: int) -> Collection:
    """The split graph (clique on s vertices joined to the rest), every color.

    Each color has s(n-s) + C(s,2) edges and every edge meets the s-set,
    so no matching of s+1 disjoint edges exists at all.
    """
    if not 0 <= s <= n:
        raise GuardViolated("need 0 <= s <= n")
    edges = [(a, b) for a in range(s) for b in range(a + 1, n)]
    return Collection([Graph.from_edges(n, edges)] * t)


# ---------------------------------------------------------------------
# claimed closed-form values


def claimed_value(fid: str, params: dict) -> int:
    """Exact integer value of a registered closed form.

    ``params`` holds exactly the formula's parameters; a missing or unknown
    name raises GuardViolated.
    Inner extremal terms (the constants on the small side of a split
    construction) are computed by the search module at desk scale.
    """
    if fid not in _FORMULAS:
        raise KeyError(f"unknown formula id {fid!r}")
    formula = _FORMULAS[fid]
    return formula(**_checked(formula, params))


def _v_meshulam(n: int, s: int) -> int:
    if not 0 <= s <= n:
        raise GuardViolated("need 0 <= s <= n")
    return s * (n - s) + comb(s, 2)


def _v_min_split(which: str, n: int, t: int, s: int, f: Graph) -> int:
    _, inner_family = _split_inner_family(which, f, n, t, s)
    return s * (n - s) + _inner_search(s, t, inner_family).value


def _v_min_iv(n: int, t: int, f: Graph) -> int:
    pf, inner_family = _balanced_tree_part(f, n, t)
    return (pf - 1) * (n - pf + 1) + _inner_search(pf - 1, t, inner_family).value


def _v_prod_matching(n: int, t: int, s: int) -> int:
    _prod_matching_guards(n, t, s)
    return (n - 1) ** (t - s + 1) * comb(n, 2) ** (s - 1)


def _v_sum_k3(n: int, s: int) -> int:
    if n < 1 or s < 1:
        raise GuardViolated("need n >= 1 and s >= 1")
    if s <= 2:
        return s * comb(n, 2)
    if s == 3:
        return n * (n - 1)
    return s * (n * n // 4)


def _v_sum_bipartite(n: int, f: Graph) -> int:
    if n < 1:
        raise GuardViolated("need n >= 1")
    if _min_class(f) is None:
        raise GuardViolated("formula applies to bipartite patterns")
    return (f.edge_count() - 1) * comb(n, 2)


def _v_sum_general_upper(n: int, t: int, f1: Graph, rest) -> int:
    if not isinstance(rest, PatternFamily):
        rest = PatternFamily.from_graphs(
            [_pattern(x) for x in (rest if isinstance(rest, (list, tuple)) else [rest])]
        )
    m = f1.edge_count() - 1
    if m < 1 or t <= m:
        raise GuardViolated("need |E(f1)| >= 2 and t > |E(f1)| - 1")
    inner = extremal_sum(ExtremalQuery("sum", n, m, rest))
    if not inner.exact:
        raise InnerInfeasible("inner sum search hit its node budget")
    return inner.value + (t - m) * turan_exact(n, f1)


_FORMULAS = {
    "meshulam": _v_meshulam,
    "min.i": partial(_v_min_split, "min.i"),
    "min.ii": partial(_v_min_split, "min.ii"),
    "min.iv": _v_min_iv,
    "prod.matching": _v_prod_matching,
    "sum.k3": _v_sum_k3,
    "sum.bipartite": _v_sum_bipartite,
    "sum.general-upper": _v_sum_general_upper,
}
FORMULA_IDS = tuple(_FORMULAS)


def certification_grid() -> list[tuple[str, dict]]:
    """Guard-respecting parameter rows covering every construction id.

    Kept within n <= 12, t <= 5, s <= 3, r <= 4, m <= 2; several star
    branches are forced degenerate there (block size n // (s t) reaching
    0 or 1) and certify the guards and empty-block paths.
    """
    return [
        ("min.i", {"n": 6, "t": 3, "s": 1, "f": "K3"}),
        ("min.i", {"n": 9, "t": 4, "s": 2, "f": "K3"}),
        ("min.i", {"n": 12, "t": 5, "s": 3, "f": "K3"}),
        ("min.ii", {"n": 6, "t": 4, "s": 1, "f": "K2,2"}),
        ("min.ii", {"n": 10, "t": 5, "s": 1, "f": "K2,2"}),
        ("min.ii", {"n": 10, "t": 3, "s": 1, "f": "P4"}),
        ("min.iii", {"n": 8, "t": 4, "p": 2, "f": "K2,2", "s": 2}),
        ("min.iii", {"n": 12, "t": 5, "p": 2, "f": "P4", "s": 3}),
        ("min.iii", {"n": 10, "t": 3, "p": 2, "f": "P4", "s": 2}),
        ("min.iv", {"n": 8, "t": 3, "f": "P4", "s": 2}),
        ("min.iv", {"n": 12, "t": 5, "f": "P6", "s": 3}),
        ("min.kpp-remark", {"n": 10, "t": 4, "s": 2, "p": 2}),
        ("min.kpp-remark", {"n": 10, "t": 4, "s": 3, "p": 2}),
        ("min.kpp-remark", {"n": 12, "t": 5, "s": 3, "p": 2}),
        ("sum.cliques", {"n": 8, "t": 3, "f": "K3"}),
        ("sum.cliques", {"n": 7, "t": 4, "f": "K2,2"}),
        ("sum.cliques", {"n": 6, "t": 3, "f": "M2"}),
        ("sum.monochrome-extremal", {"n": 7, "t": 3, "f": "K3"}),
        ("sum.monochrome-extremal", {"n": 6, "t": 2, "f": "M2"}),
        ("sum.monochrome-extremal", {"n": 6, "t": 3, "f": "S2"}),
        ("prod.matching", {"n": 5, "t": 3, "s": 2}),
        ("prod.matching", {"n": 9, "t": 4, "s": 2}),
        ("prod.matching", {"n": 12, "t": 5, "s": 3}),
        ("prod.clique-star", {"n": 8, "t": 3, "s": 2, "f": "P4"}),
        ("prod.clique-star", {"n": 12, "t": 5, "s": 3, "f": "K3"}),
        ("prod.star.gt", {"n": 12, "t": 3, "s": 1, "r": 3}),
        ("prod.star.gt", {"n": 12, "t": 5, "s": 2, "r": 3}),
        ("prod.star.gt", {"n": 12, "t": 4, "s": 1, "r": 4}),
        ("prod.star.eq", {"n": 12, "t": 4, "s": 2, "r": 3}),
        ("prod.star.eq", {"n": 8, "t": 4, "s": 2, "r": 3}),
        ("prod.star.lt", {"n": 12, "t": 5, "s": 2, "r": 4}),
        ("prod.star.lt", {"n": 12, "t": 4, "s": 3, "r": 3}),
        ("prod.star.lt", {"n": 12, "t": 5, "s": 3, "r": 4}),
        ("prod.star2", {"n": 12, "t": 3, "s": 2}),
        ("prod.star2", {"n": 12, "t": 4, "s": 3}),
        ("prod.sm.bigstar", {"n": 12, "t": 5, "s": 3, "r": 4, "m": 1}),
        ("prod.sm.bigstar", {"n": 9, "t": 5, "s": 3, "r": 4, "m": 1}),
        ("prod.sm.star-clique", {"n": 12, "t": 4, "s": 2, "r": 3, "m": 1}),
        ("prod.sm.star-clique", {"n": 12, "t": 5, "s": 2, "r": 4, "m": 1}),
        ("prod.sm.star-clique", {"n": 12, "t": 5, "s": 3, "r": 3, "m": 2}),
        ("prod.sm.mixed", {"n": 12, "t": 5, "s": 3, "r": 3, "m": 1}),
        ("prod.sm.mixed", {"n": 9, "t": 5, "s": 3, "r": 3, "m": 1}),
    ]
