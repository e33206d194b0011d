import ast
from pathlib import Path

import pytest

import cayley_stiefel

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cayley_stiefel"
MODULES = ("kalg", "group", "stiefel", "optim", "cover")


def test_public_names_resolve_once():
    names = cayley_stiefel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cayley_stiefel, name), name


def _identifiers(node):
    """Every name and attribute name that node mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _program_statements():
    """(path, top-level statement) of every module in src/ and bench/ but __init__.py."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return [(p, stmt) for p in paths for stmt in ast.parse(p.read_text()).body]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_has_a_caller(module):
    # a public function or class that only tests reach belongs with the tests
    statements = _program_statements()
    path = PACKAGE / f"{module}.py"
    uncalled = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not any(node.name in _identifiers(stmt) for p, stmt in statements
                   if not (p == path and getattr(stmt, "name", None) == node.name)):
            uncalled.append(node.name)
    assert uncalled == []
