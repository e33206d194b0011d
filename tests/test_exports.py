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


def _program_units():
    """(path, top-level statement, unit) of every module in src/ and bench/ but
    __init__.py.  A unit is a top-level statement, or for a class each item of
    its body and each base and decorator, so that a method's own body is a unit
    apart from its callers."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    units = []
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                parts = stmt.body + stmt.bases + stmt.decorator_list
            units += [(path, stmt, part, set(_identifiers(part))) for part in parts]
    return units


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_has_a_caller(module):
    # a public function, class, method or property that only tests reach belongs
    # with the tests; a definition's own body does not count as its caller
    units = _program_units()
    path = PACKAGE / f"{module}.py"
    uncalled = []
    for node in ast.parse(path.read_text()).body:
        if _public(node) and not any(node.name in names for p, stmt, _, names in units
                                     if not (p == path and stmt.lineno == node.lineno)):
            uncalled.append(node.name)
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if _public(item) and not any(item.name in names for p, _, part, names in units
                                         if not (p == path and part.lineno == item.lineno)):
                uncalled.append(f"{node.name}.{item.name}")
    assert uncalled == []


@pytest.mark.parametrize("module", MODULES + ("cli", "__main__"))
def test_every_private_function_has_a_caller_in_src(module):
    # a module-level helper that only tests or the bench reach is dead code in the
    # library; its own body does not count as its caller
    units = [u for u in _program_units() if u[0].parent == PACKAGE]
    path = PACKAGE / f"{module}.py"
    uncalled = [node.name for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not any(node.name in names for p, stmt, _, names in units
                            if not (p == path and stmt.lineno == node.lineno))]
    assert uncalled == []


def test_inversions_and_svds_stay_in_kalg():
    # every singularity decision is kalg's: no other module inverts or runs an SVD
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("inv", "svd")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                found.append((path.name, node.module))
    assert found and {name for name, _ in found} == {"kalg.py"}


def test_search_stays_on_native_kernels():
    # every module computes on kalg's native kernel sets: a component product or
    # conjugate transpose, defined or referenced anywhere in the package, would
    # implement a kernel twice, and so would an operand for LAPACK outside the
    # sets (_Kernels.operand), or a decision that screens and builds it again
    # (_invertible_operand); nor does the search make a component norm, nor,
    # over H, build an adjoint per product: its native arrays there are the
    # adjoints (kalg._SEARCH_KERNELS)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set(_identifiers(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)  # getattr(kalg, "_product")
        forbidden = {"_product", "_conj_transpose", "invert_field", "_operand", "_from_operand",
                     "_invertible_operand"}
        if path.name == "optim.py":
            forbidden |= {"_norm", "_adjoint_product"}
        found += [(path.name, name) for name in sorted(names & forbidden)]
    assert found == []


def test_singularity_decisions_name_no_field():
    # the kernel set a decision takes carries its LAPACK operand, so no field
    # test, over H or any other ring, belongs in the decision code
    decisions = {"_screened_operand", "_svd_test", "_invert", "_invertible_stack"}
    found = {node.name: set(_identifiers(node)) & {"Field", "QUATERNION", "REAL", "COMPLEX"}
             for node in ast.parse((PACKAGE / "kalg.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in decisions}
    assert found == dict.fromkeys(decisions, set())


def test_tol_is_checked_once_where_it_enters():
    # the private decisions take a checked tol: each public entry that takes a
    # tol from its caller checks it once, and nothing else checks it
    checks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                checks += [node.name for sub in ast.walk(node) if isinstance(sub, ast.Call)
                           and "_validate_tol" in set(_identifiers(sub.func))]
    assert sorted(checks) == ["cover_membership", "gamma_inverse", "is_invertible",
                              "mat_inverse", "verify_cover"]
