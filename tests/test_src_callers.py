"""Every top-level function, class and method in src/sqatk is named in
src outside its own definition, or in the bench scripts: an API that
only tests call is a candidate for deletion, and its assertions move to
the path that survives. Dunders and main are exempt."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "sqatk").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """Each identifier node names: variables, attributes and imports."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(tree: ast.Module):
    """The module's top-level functions and classes, and each class's methods."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, DEFS[:2]))


def _uncalled(paths, bench_text: str) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            outside = used[name] - _names(node)[name]
            if outside <= 0 and not re.search(rf"\b{re.escape(name)}\b", bench_text):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    return uncalled


def test_every_src_definition_has_a_caller_outside_the_tests():
    bench_text = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    assert _uncalled(SRC, bench_text) == []


def test_a_definition_only_its_own_body_names_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Used:\n    def method(self):\n        return Used()\n\n"
        "def caller():\n    return Used().method\n\n"
        "def in_bench():\n    pass\n\n"
        "def __getattr__(name):\n    pass\n"
    )
    assert _uncalled([module], "wrap(m, 'in_bench')") == ["m.py:1 recursive", "m.py:8 caller"]
