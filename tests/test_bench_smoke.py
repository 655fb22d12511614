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
