"""The package's module graph is one-way: each module imports only the
modules below it in graphcore -> collection -> {lemmas, search} ->
constructions -> cli, and the package root sits on top.  An import inside
a function body runs after module load, which is how a cycle hides, so
none may name a package module."""

import ast
import importlib
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


def test_no_class_writes_its_own_value_semantics():
    """Value types are frozen dataclasses: no class hand-writes the
    assignment guard, equality or hash that the decorator generates."""
    files = sorted(Path(rturan.__file__).parent.glob("*.py"))
    written = [
        f"{path.stem}.{node.name}.{item.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__eq__", "__hash__")
    ]
    assert written == []


def test_public_name_lists_match_the_package_root():
    """``collection.__all__`` and ``search.__all__`` name exactly what the
    package root imports from those modules, and every name it imports
    exists."""
    init = Path(rturan.__file__)
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(init.read_text(), str(init))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    for module, names in imported.items():
        missing = [name for name in names if not hasattr(importlib.import_module(f"rturan.{module}"), name)]
        assert missing == [], module
    for module in ("collection", "search"):
        assert set(importlib.import_module(f"rturan.{module}").__all__) == imported[module], module


def _template(node: ast.JoinedStr) -> str:
    """An f-string's text with each replacement field written as {}."""
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)


def _raises(tree: ast.AST, prefix: str = ""):
    """(qualified name of the enclosing function, raised f-string template)
    for every ``raise E(f"...")`` under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(node, f"{prefix}{node.name}.")
        else:
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                for arg in node.exc.args:
                    if isinstance(arg, ast.JoinedStr):
                        yield prefix.rstrip("."), _template(arg)
            yield from _raises(node, prefix)


def test_color_range_has_one_owner():
    """``Collection.graph`` is the one check of a 1-based color argument:
    no other function raises the color-range message, lemmas has no
    argument checker of its own for colors, and no function in collection
    or lemmas tests a vertex range by comparison (``_vertices_in`` does)."""
    package = Path(rturan.__file__).parent
    owners = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners += [
            f"{path.stem}.{where}" for where, text in _raises(tree) if text.startswith("color {} outside 1..")
        ]
        if path.stem in ("collection", "lemmas"):
            ranges = [  # 0 <= v < col.n and the like
                ast.unparse(node)
                for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
                and isinstance(node.comparators[-1], ast.Attribute)
                and node.comparators[-1].attr == "n"
            ]
            assert ranges == [], path.stem
    assert owners == ["collection.Collection.graph"]
    lemmas = ast.parse((package / "lemmas.py").read_text())
    assert "_check_strong_args" not in {n.name for n in ast.walk(lemmas) if isinstance(n, ast.FunctionDef)}
