"""No floats in the library.

Every module under ``src/`` is parsed with ``ast``; a float literal, a
``float(...)`` call or a ``math.inf`` / ``math.nan`` is an error.  The one
exception is ``coxeter.INFINITE_ORDER = math.inf``, the library's single
name for an infinite Coxeter order.
"""

import ast
from pathlib import Path

import pytest

import weylbuildings

SRC = Path(weylbuildings.__file__).resolve().parents[1]
MODULES = sorted(SRC.rglob("*.py"))
ALLOWED = ("weylbuildings/coxeter.py", "INFINITE_ORDER")


def _allowed_nodes(tree: ast.Module, name: str) -> set[int]:
    # the value of the module-level assignment INFINITE_ORDER = math.inf
    if name != ALLOWED[0]:
        return set()
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == [ALLOWED[1]]
    }


def float_uses(source: str, name: str) -> list[str]:
    """Float uses in the source of the module at ``name`` (relative to src/)."""
    tree = ast.parse(source, filename=name)
    allowed = _allowed_nodes(tree, name)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{name}:{node.lineno}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{name}:{node.lineno}: float(...) call")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("inf", "nan")
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append(f"{name}:{node.lineno}: math.{node.attr}")
    return found


def test_modules_found():
    assert len(MODULES) >= 10
    assert SRC / ALLOWED[0] in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_floats(path):
    name = path.relative_to(SRC).as_posix()
    assert float_uses(path.read_text(encoding="utf-8"), name) == []


def test_checker_sees_floats():
    source = "import math\nINFINITE_ORDER = math.inf\nx = 0.5\ny = float('inf')\nz = math.inf\n"
    assert float_uses(source, "weylbuildings/coxeter.py") == [
        "weylbuildings/coxeter.py:3: float literal 0.5",
        "weylbuildings/coxeter.py:4: float(...) call",
        "weylbuildings/coxeter.py:5: math.inf",
    ]
    assert float_uses(source, "weylbuildings/cli.py")[0] == "weylbuildings/cli.py:2: math.inf"
