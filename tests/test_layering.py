"""The package's module graph is one-way: each module imports only the
modules below it in graphcore -> collection -> {lemmas, search} ->
constructions -> cli, and the package root sits on top.  An import inside
a function body runs after module load, which is how a cycle hides, so
none may name a package module."""

import ast
from pathlib import Path

import rturan

RANK = {"graphcore": 0, "collection": 1, "lemmas": 2, "search": 2, "constructions": 3, "cli": 4, "__init__": 5}


def _package_targets(node: ast.AST) -> list[str]:
    """Package modules an import statement names, relative or absolute."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "rturan":
                return []
            module = module.removeprefix("rturan").lstrip(".")
        return [module.split(".")[0]] if module else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("rturan.")]
    return []


def test_module_graph_is_one_way():
    files = sorted(Path(rturan.__file__).parent.glob("*.py"))
    assert {f.stem for f in files} == set(RANK), "rank every module of the package"
    edges, local = [], []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            edges += [(path.stem, target) for target in _package_targets(node)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{path.stem}.{node.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                    and (getattr(sub, "level", 0) > 0 or _package_targets(sub))
                ]
    assert local == [], "package imports inside function bodies"
    assert edges and all(target in RANK for _, target in edges), edges
    against = [(source, target) for source, target in edges if RANK[target] >= RANK[source]]
    assert against == [], "imports against graphcore -> collection -> {lemmas, search} -> constructions -> cli"
