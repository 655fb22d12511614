"""One pass of every benchmark workload (bench/workloads.py) with its
checks.  The benchmark scores a wrong answer as a failed run, for example
an n = 6 min case that turns exact with a value other than the one
bench/expected.json records, so a library change that breaks a check
should fail here first."""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads(monkeypatch) -> dict:
    """bench/workloads.py run from its source, so no bytecode cache is
    written next to it; its dataclasses look their module up by name."""
    module = types.ModuleType("rturan_bench_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(sys, "path", sys.path[:])  # it puts src/ in front
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["search", "turan", "certify"])
def test_one_pass_of_each_workload_checks_clean(name, monkeypatch):
    monkeypatch.delenv("RTURAN_BUDGET", raising=False)  # every budget there is pinned
    queries = _workloads(monkeypatch)[name].setup(1)
    assert queries
    problems = {q.label: q.check(q.call()) for q in queries}
    assert {label: p for label, p in problems.items() if p} == {}


# The search workload's answers: (value, exact, nodes) of each query and
# the exit code and row statuses of each verify suite.  The benchmark only
# notes a node count that drifts from bench/expected.json on stderr (that
# file still holds an early seed's counts for the first two queries), so a
# change to the search tree should fail here.
PINNED_SEARCH_ANSWERS = {
    "min n=5 t=3 {K3} budget=200000": {"value": 6, "exact": True, "nodes": 8047},
    "sum n=5 t=4 {K3} budget=200000": {"value": 24, "exact": True, "nodes": 109},
    "prod n=5 t=3 {P3} budget=200000": {"value": 8, "exact": True, "nodes": 2418},
    "min n=6 t=3 {K3} budget=20000": {"value": 9, "exact": False, "nodes": 20001},
    "min n=6 t=3 {M3} budget=20000": {"value": 10, "exact": False, "nodes": 20001},
    "verify --suite meshulam": {"exit": 0, "rows": ["boundary", "match", "match", "match", "boundary"]},
    "verify --suite min-theorem": {"exit": 0, "rows": ["match"]},
    "verify --suite sum-k3": {"exit": 0, "rows": ["match", "match"]},
    "verify --suite prod-matching": {"exit": 0, "rows": ["match", "match"]},
    "verify --suite sum-bipartite": {"exit": 0, "rows": ["match"]},
}


def test_search_workload_answers_are_pinned(monkeypatch):
    monkeypatch.delenv("RTURAN_BUDGET", raising=False)
    queries = _workloads(monkeypatch)["search"].setup(1)
    assert {q.label: q.summary(q.call()) for q in queries} == PINNED_SEARCH_ANSWERS
