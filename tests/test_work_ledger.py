"""The work ledger: how much search work each pinned query takes, kept
apart from its answers.

Values, exact flags, witnesses, ``.rcol`` bytes and report columns are
answers, and the tests that pin them hold them.  What a search spends on
them is work, and every pruning or symmetry change moves it.  So the work
of each query below is pinned once, in ``work_ledger.json`` next to this
file, keyed by query:

* ``nodes``: the result's node count (searches only);
* ``detector_calls``: anchored detector calls (``_exists_using_pair``);
  each call is also checked against the guards the detector leaves to its
  callers, and ``test_detector_runs_only_where_a_rainbow_copy_fits``
  (test_search.py) reads what fell outside them;
* ``plan_lookups``: ``_plan`` calls, in ``collection`` and ``search``;
* ``extension_attempts``: orderly-generation masks tried (the budget
  steps ``_turan_family`` takes, for min also in its seed);
* ``hits_pattern_searches``: vertex-seeded searches of orderly generation
  (``_hits_pattern``; a mask holding an earlier hit's residual
  neighbourhood needs none);
* ``counted_nodes``: nodes counted in one ``_Budget.take`` without a walk
  (min and prod: blind subtrees; sum: children the bound cuts at once);
* ``subtree_stops``: two budgets that stop inside such a counted subtree,
  the middle of the largest one and the middle of the middle one in
  search order (``test_skipping_blind_subtrees_changes_nothing`` runs them);
* ``prefix_accepted``, ``prefix_rejected`` and the SHA-256 of every
  ``canonical_prefix`` call, (color, mask, verdict) in order
  (``prefix_sha256``), and of the accepted ones alone
  (``prefix_accepted_sha256``); null without a call.  The masks of the
  earlier colors follow from the order, so the digests fix the tree the
  DFS proves, not just its size.

The test runs each query once with every counter installed and compares
the whole ledger for equality, printing each counter that moved, old ->
new.  That run is cached, so the tests in test_search.py that read the
detector guards, a search's result or its prefix digests share it.  A
change that moves work on purpose rewrites the ledger by running this file
as a script and quotes that diff in CHANGES.md:

    PYTHONPATH=src python tests/test_work_ledger.py

The script refuses to run with RTURAN_BUDGET set, since several queries
run at the default budget.  It writes sorted keys and a trailing newline,
so its output is the same bytes on every run and under any hash seed.
"""

import hashlib
import json
import os
import sys
from functools import cache, reduce
from itertools import chain
from operator import or_
from pathlib import Path

import pytest

from rturan import collection, search
from rturan.cli import _SEARCH_SUITE_ROWS
from rturan.graphcore import parse_family
from rturan.search import ExtremalQuery, _Budget, _CollectionSearch

LEDGER = Path(__file__).with_name("work_ledger.json")

# (mode, n, t, family, budget): the budget is given only where it stops the
# search.  The searches of test_search_answers_are_pinned and the
# blind-subtree test, those the canonicity and detector pins ran, the
# benchmark's search workload (tests/test_bench_smoke.py) and sum(6,3,{M3}),
# where the rows lex-leader rule of the sum search cuts (2,512 nodes
# without it); then the report's searches.
#
# Measured when the counts were first pinned: without the packing bound and
# the sum.cliques seed, sum(5,4,{K3}), sum(5,3,{P4}), sum(5,3,{M2}),
# sum(6,3,{K3}) and sum(7,3,{K3}) took 265, 88, 53, 622 and 4,702 nodes,
# and without the lex-leader rules as well 2,732, 283, 179, 7,889 and
# 236,700.  The detector runs only where a rainbow copy fits: min and prod
# check only members with at most k edges while color k fills; sum checks
# only members that fit the table's nonempty colors, refreshes only caps
# near the newest pair, and below a pair's first multiplicity only the caps
# that fell.  Without those guards min(5,3,{K3}), prod(5,3,{K3}),
# min(6,3,{M3}) at budget 20,000 and sum(6,3,{K3}) made 4,328, 29,559,
# 10,126 and 2,687 detector calls.  Without the packing bound and the seed,
# sum(6,3,{K3}) and sum(5,4,{K3}) made 1,176 and 759; refreshing every cap
# at every multiplicity as well, 1,578 and 933; without the lex-leader rules
# as well, 21,396 in 7,889 nodes and 9,842 in 2,732.  min(5,3,{K3}) made
# 1,131 plan lookups when each detector call looked its plan up.
SEARCHES = (
    ("prod", 5, 3, "{P3}", None),
    ("sum", 5, 4, "{K3}", None),
    ("min", 5, 3, "{P3}", None),
    ("min", 5, 3, "{M2}", None),
    ("prod", 4, 3, "{K3}", None),
    ("prod", 6, 2, "{M2}", None),
    ("sum", 5, 3, "{P4}", None),
    ("sum", 5, 3, "{M2}", None),
    ("sum", 6, 3, "{K3}", None),
    ("prod", 5, 3, "{K3}", None),
    ("min", 5, 3, "{K3}", None),
    ("sum", 7, 3, "{K3}", None),
    ("min", 6, 3, "{M3}", None),
    ("min", 6, 3, "{M3}", 20_000),
    ("min", 6, 3, "{K3}", 20_000),
    ("sum", 6, 3, "{M3}", None),
) + tuple((mode, n, t, forbid, None) for _, _, _, _, mode, n, t, forbid in _SEARCH_SUITE_ROWS)

# (n, family): orderly generation alone, as min's seed runs it
TURAN = ((7, "{K3}"), (7, "{K2,2}"), (7, "{K4}"), (8, "{P4}"), (6, "{M3}"), (7, "{K3,M3}"), (9, "{P5}"))


def query_key(mode: str, n: int, t: int, family: str, budget: int | None = None) -> str:
    """The ledger key of a search: ``min n=5 t=3 {K3}``, with
    `` budget=20000`` where the budget stops it."""
    return f"{mode} n={n} t={t} {family}" + (f" budget={budget}" if budget else "")


def pinned() -> dict:
    """The committed ledger."""
    return json.loads(LEDGER.read_text())


class _Work:
    """The counters of the query being run, written by the wrappers that
    ``_install`` puts on the library."""

    def __init__(self):
        self.unguarded: list[tuple[str, list]] = []  # (query key, member edges) of calls outside the guards

    def start(self, key: str, n: int, t: int):
        self.key, self.n, self.t = key, n, t  # the detector guards read them
        self.detector = self.plans = self.attempts = self.searches = 0
        self.prefix: list[str] = []  # "color mask verdict" per canonical_prefix call
        self.takes: list[tuple[int, int]] = []  # (steps used before, steps taken) per _Budget.take

    def counters(self) -> dict:
        skips = [(used, steps) for used, steps in self.takes if steps]
        stops = []
        if skips:  # the middle of the largest counted subtree and of the middle one
            largest = max(skips, key=lambda skip: skip[1])
            stops = sorted(used + steps // 2 for used, steps in (largest, skips[len(skips) // 2]))
        accepted = [line for line in self.prefix if line.endswith("True")]
        return {
            "detector_calls": self.detector,
            "plan_lookups": self.plans,
            "extension_attempts": self.attempts,
            "hits_pattern_searches": self.searches,
            "counted_nodes": sum(steps for _, steps in skips),
            "subtree_stops": stops,
            "prefix_accepted": len(accepted),
            "prefix_rejected": len(self.prefix) - len(accepted),
            "prefix_sha256": _digest(self.prefix),
            "prefix_accepted_sha256": _digest(accepted),
        }


def _digest(lines: list[str]) -> str | None:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() if lines else None


def _install(mp: pytest.MonkeyPatch, work: _Work):
    """Wrap every counted library function, counting into work."""
    detector, compile_plan = search._exists_using_pair, collection._plan
    turan_family, hits_pattern = search._turan_family, search._hits_pattern
    canonical_prefix, take = _CollectionSearch.canonical_prefix, _Budget.take

    def detecting(table, union, plan, pair, color, copies):
        # the guards the detector leaves to its callers: 1 <= e(F) <= t,
        # v(F) <= n, and at least e(F) colors in the table
        f = plan.pattern
        colors = reduce(or_, chain.from_iterable(table), 0)
        fits = 1 <= f.edge_count() <= work.t and f.n <= len(table) == work.n
        if not (fits and colors.bit_count() >= f.edge_count()):
            work.unguarded.append((work.key, f.edges()))
        work.detector += 1
        return detector(table, union, plan, pair, color, copies)

    def planning(pattern):
        work.plans += 1
        return compile_plan(pattern)

    def generating(n, members, budget):
        before = budget.used
        try:
            return turan_family(n, members, budget)
        finally:
            work.attempts += budget.used - before

    def hitting(rows, k, plans):
        work.searches += 1
        return hits_pattern(rows, k, plans)

    def checking(searcher, k, mask):
        verdict = canonical_prefix(searcher, k, mask)
        work.prefix.append(f"{k} {mask} {verdict}")
        return verdict

    def taking(budget, steps):
        work.takes.append((budget.used, steps))
        take(budget, steps)

    mp.setattr(search, "_exists_using_pair", detecting)
    mp.setattr(collection, "_plan", planning)
    mp.setattr(search, "_plan", planning)
    mp.setattr(search, "_turan_family", generating)
    mp.setattr(search, "_hits_pattern", hitting)
    mp.setattr(_CollectionSearch, "canonical_prefix", checking)
    mp.setattr(_Budget, "take", taking)


@cache
def measure() -> tuple[dict, dict, list]:
    """Run every query once with every counter installed, at the default
    budget whatever RTURAN_BUDGET says: the ledger, each search's result by
    query key, and the (query key, member edges) of every detector call
    outside its guards.  Cached: the callers only read it."""
    ledger, results, work = {}, {}, _Work()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RTURAN_BUDGET", raising=False)
        _install(mp, work)
        for mode, n, t, family, budget in dict.fromkeys(SEARCHES):  # a report row may repeat a search
            key = query_key(mode, n, t, family, budget)
            work.start(key, n, t)
            res = getattr(search, f"extremal_{mode}")(ExtremalQuery(mode, n, t, parse_family(family), budget))
            ledger[key], results[key] = {"nodes": res.nodes, **work.counters()}, res
        for n, family in TURAN:
            key = f"turan n={n} {family}"
            work.start(key, n, 0)
            search._turan_family(n, parse_family(family), _Budget(search.default_budget()))
            ledger[key] = work.counters()
    return ledger, results, work.unguarded


def moved(old: dict, new: dict) -> list[str]:
    """One line per counter that differs, ``query: counter old -> new``;
    a query or counter on one side only reads as absent on the other."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, {}), new.get(key, {})
        for name in sorted(was.keys() | now.keys()):
            if was.get(name, "absent") != now.get(name, "absent"):
                lines.append(f"{key}: {name} {was.get(name, 'absent')} -> {now.get(name, 'absent')}")
    return lines


def test_work_matches_the_ledger():
    diff = moved(pinned(), measure()[0])
    print("\n".join(diff))
    assert not diff, f"{len(diff)} counters moved: rewrite the ledger (run this file) and quote the diff in CHANGES.md"


if __name__ == "__main__":
    if os.environ.get("RTURAN_BUDGET"):
        sys.exit("unset RTURAN_BUDGET first: several ledger queries run at the default budget")
    old = pinned() if LEDGER.exists() else {}
    new = measure()[0]
    LEDGER.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print("\n".join(moved(old, new)) or "no counter moved")
