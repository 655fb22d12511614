"""Budget sweeps: what a min or prod search returns when its budget stops it.

A budget stop keeps the incumbent standing at the node where the budget ran
out.  The DFS charges some stretches of nodes in one ``_Budget.take`` (the
blind subtrees it counts without walking), so a stop inside such a stretch
must return exactly what the node-by-node walk returned there, and a change
to how nodes are walked or charged must leave every stop where it was.
Each stop of the queries below is pinned in ``budget_sweep.json``, next to
this file, as the value, the exact flag, the node count, the anchored
detector calls and the SHA-256 of the witness edge lists (one list of pairs
per color, as JSON):

* every budget from 1 to N + 1 of min(5,3,{P3}) and prod(5,3,{P3}), N the
  query's node count;
* 40 evenly spread budgets, 1 to N + 1, of min(5,3,{K3}), prod(5,3,{K3})
  and min(6,3,{M3}).

Each query's stops are kept as ``[budget, value, exact, nodes, detector
calls, witness]`` rows, where witness indexes the query's list of distinct
witness digests.  The pins were recorded by real budget stops, before blind
colors were painted into the table as diffs and before residual copies kept
their colors.  To re-pin after a change that moves node counts or
incumbents on purpose, run this file as a script (one real stop per
budget, about 12 s) and quote what moved in CHANGES.md:

    PYTHONPATH=src python tests/test_budget_sweep.py

A real stop per budget costs the walk up to it, so the test reads every
pinned stop off one unbudgeted run per query: a budget that never stops
notes, whenever its count first passes a pinned budget inside ``step`` or
``take``, the incumbent and the detector calls at that moment, which is
what a stop there raises with.  A second test runs
real stops at a sample of the pinned budgets, so the two readings are
checked against each other.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from rturan import search
from rturan.graphcore import parse_family
from rturan.search import ExtremalQuery, _Budget, _CollectionSearch

PINS = Path(__file__).with_name("budget_sweep.json")

# (mode, n, t, family, node count of the unbudgeted search, budgets: None for
# every budget 1..N + 1, else that many evenly spread over 1..N + 1)
SWEEPS = (
    ("min", 5, 3, "{P3}", 2_314, None),
    ("prod", 5, 3, "{P3}", 2_418, None),
    ("min", 5, 3, "{K3}", 8_042, 40),
    ("prod", 5, 3, "{K3}", 45_238, 40),
    ("min", 6, 3, "{M3}", 212_343, 40),
)


def budgets(nodes: int, spread: int | None) -> list[int]:
    if spread is None:
        return list(range(1, nodes + 2))
    return [1 + nodes * i // (spread - 1) for i in range(spread)]


def key(mode: str, n: int, t: int, family: str) -> str:
    return f"{mode} n={n} t={t} {family}"


def _digest(witness) -> str:
    return hashlib.sha256(json.dumps([g.edges() for g in witness.graphs]).encode()).hexdigest()


def _counting(mp: pytest.MonkeyPatch) -> list[int]:
    """Count anchored detector calls into the one-item list returned."""
    real, calls = search._exists_using_pair, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    mp.setattr(search, "_exists_using_pair", counting)
    return calls


def stopped(mode: str, n: int, t: int, family: str, stops: list[int]) -> list[list]:
    """One real budget stop per budget: [budget, value, exact, nodes,
    detector calls, witness digest] each."""
    fn, members = getattr(search, f"extremal_{mode}"), parse_family(family)
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RTURAN_BUDGET", raising=False)
        calls = _counting(mp)
        for budget in stops:
            calls[0] = 0
            res = fn(ExtremalQuery(mode, n, t, members, budget))
            rows.append([budget, res.value, res.exact, res.nodes, calls[0], _digest(res.witness)])
    return rows


def recorded(mode: str, n: int, t: int, family: str, stops: list[int]) -> list[list]:
    """The rows of ``stopped``, read off one run whose budget never stops
    it: when the count first passes a budget of ``stops``, the row of that
    budget is the incumbent and the detector calls at that moment."""
    ahead, rows, searches, digests = sorted(stops, reverse=True), {}, [], {}

    def incumbent(witness) -> str:
        if id(witness) not in digests:  # the witness is kept with its digest, so its id stays its own
            digests[id(witness)] = witness, _digest(witness)
        return digests[id(witness)][1]

    class Recording(_Budget):
        def __init__(self, limit):
            super().__init__(max(stops))  # N + 1: the search finishes

        def note(self):
            while ahead and self.used > ahead[-1]:
                budget = ahead.pop()
                s = searches[-1]
                rows[budget] = [budget, s.best, False, budget + 1, calls[0], incumbent(s.witness)]

        def step(self):
            super().step()
            self.note()

        def take(self, steps: int):
            super().take(steps)
            self.note()

    init = _CollectionSearch.__init__

    def registering(self, *args):
        init(self, *args)
        searches.append(self)

    with pytest.MonkeyPatch.context() as mp:
        calls = _counting(mp)
        mp.setattr(search, "_Budget", Recording)
        mp.setattr(_CollectionSearch, "__init__", registering)
        res = getattr(search, f"extremal_{mode}")(ExtremalQuery(mode, n, t, parse_family(family), 1))
    for budget in ahead:  # never passed: the search finished within it
        rows[budget] = [budget, res.value, res.exact, res.nodes, calls[0], _digest(res.witness)]
    return [rows[budget] for budget in stops]


def pinned(query) -> list[list]:
    """The committed rows of a query, with witness digests in place."""
    entry = json.loads(PINS.read_text())[key(*query[:4])]
    return [row[:5] + [entry["witnesses"][row[5]]] for row in entry["stops"]]


def render(sweeps: dict) -> str:
    """The pins as JSON, one stop row per line and each distinct witness
    digest once per query, the same bytes on every run."""
    blocks = []
    for name in sorted(sweeps):
        digests = list(dict.fromkeys(row[5] for row in sweeps[name]))
        rows = ",\n".join("   " + json.dumps(row[:5] + [digests.index(row[5])]) for row in sweeps[name])
        listed = ",\n".join("   " + json.dumps(d) for d in digests)
        blocks.append(f' {json.dumps(name)}: {{\n  "stops": [\n{rows}\n  ],\n  "witnesses": [\n{listed}\n  ]\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _check(query, rows: list[list], pins: list[list]):
    by_budget = {row[0]: row for row in pins}
    for new in rows:
        old = by_budget[new[0]]
        assert new == old, f"{key(*query[:4])} budget {old[0]}: [value, exact, nodes, calls, witness] {old[1:]} -> {new[1:]}"


@pytest.mark.parametrize("query", SWEEPS, ids=lambda q: key(*q[:4]))
def test_budget_stops_match_the_pins(query):
    pins = pinned(query)
    assert [row[0] for row in pins] == budgets(*query[4:])
    assert pins[-1][2], "the last budget lets the search finish"
    _check(query, recorded(*query[:4], budgets(*query[4:])), pins)


@pytest.mark.parametrize("query", SWEEPS, ids=lambda q: key(*q[:4]))
def test_real_stops_match_the_pins(query):
    # every 50th budget of a full sweep and every 8th of a spread one, the
    # finishing budget N + 1 included
    stops = budgets(*query[4:])
    sample = stops[:: 50 if query[5] is None else 8] + stops[-1:]
    _check(query, stopped(*query[:4], sample), pinned(query))


if __name__ == "__main__":
    PINS.write_text(render({key(*q[:4]): stopped(*q[:4], budgets(*q[4:])) for q in SWEEPS}))
    sys.exit(0)
