"""One unchecked constructor.

A record is built without its ``__init__`` in one place only,
``exact._restore``: pickling and copying use it, as do ``ball`` for the
graph it leaves its derived fields unset in, a ball's chambers and faces
when they are first read, and the chambers of a star.  Every module under
``src/`` is parsed with ``ast``; outside that function, reading
``__new__`` off anything, or calling ``_set`` on anything but ``self``, is
an error.  ``super().__new__`` in ``SparseMap`` builds the tuple it is, not
a record, and is not counted.

A record's fields are filled one way too: through its slots' own setters,
by ``_set`` or ``_restore``, or, for a slot filled on its first read, by
that slot's setter.  Reading ``__setattr__`` off anything, as
``object.__setattr__(self, name, value)`` does, is an error everywhere.
"""

import ast
from pathlib import Path

import pytest

import weylbuildings

SRC = Path(weylbuildings.__file__).resolve().parents[1]
MODULES = sorted(SRC.rglob("*.py"))
ALLOWED = {("weylbuildings/exact.py", "_restore")}


def _is_super_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def unchecked_builds(source: str, name: str) -> list[str]:
    """Uses of ``__new__`` or of another object's ``_set`` in the source of
    the module at ``name`` (relative to src/), outside the allowed function."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (name, function) not in ALLOWED:
            if node.attr == "__new__" and not _is_super_call(node.value):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            elif node.attr == "_set" and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename=name), None)
    return found


def setattr_reads(source: str, name: str) -> list[str]:
    """Reads of ``__setattr__`` off anything in the source of the module at
    ``name``; defining a ``__setattr__`` method is not one."""
    found = [
        node for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
    ]
    return [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda n: n.lineno)]


def test_modules_found():
    assert len(MODULES) >= 10
    assert {SRC / rel for rel, _ in ALLOWED} <= set(MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_other_unchecked_constructor(path):
    name = path.relative_to(SRC).as_posix()
    assert unchecked_builds(path.read_text(encoding="utf-8"), name) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_field_is_set_by_name(path):
    name = path.relative_to(SRC).as_posix()
    assert setattr_reads(path.read_text(encoding="utf-8"), name) == []


@pytest.mark.parametrize("rel, function", sorted(ALLOWED))
def test_the_one_constructor_builds_without_init(rel, function):
    # the exempt function is defined once and does read __new__
    tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
    (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    assert any(isinstance(n, ast.Attribute) and n.attr == "__new__" for n in ast.walk(node))


def test_checker_sees_unchecked_builds():
    source = (
        "def boundary_value(parts):\n"
        "    g = BoundaryFunction.__new__(BoundaryFunction)\n"
        "    g._set(1, parts, None)\n"
        "    return g\n"
        "class Sparse(tuple):\n"
        "    def _of(cls, pairs):\n"
        "        self = super().__new__(cls, pairs)\n"
        "        self._set(pairs)\n"
        "        return self\n"
        "def _restore(cls, state):\n"
        "    new = object.__new__\n"
        "    return new(cls)\n"
    )
    assert unchecked_builds(source, "weylbuildings/boundary.py") == [
        "weylbuildings/boundary.py:2: BoundaryFunction.__new__",
        "weylbuildings/boundary.py:3: g._set",
        "weylbuildings/boundary.py:11: object.__new__",
    ]
    assert unchecked_builds(source, "weylbuildings/exact.py") == [
        "weylbuildings/exact.py:2: BoundaryFunction.__new__",
        "weylbuildings/exact.py:3: g._set",
    ]


def test_checker_sees_fields_set_by_name():
    source = (
        "class Face(Value):\n"
        "    def __setattr__(self, name, value):\n"
        "        raise FrozenInstanceError(name)\n"
        "    def __init__(self, classes):\n"
        "        object.__setattr__(self, 'classes', classes)\n"
        "        put = super().__setattr__\n"
        "        put('_hash', hash(classes))\n"
    )
    assert setattr_reads(source, "weylbuildings/building.py") == [
        "weylbuildings/building.py:5: object.__setattr__",
        "weylbuildings/building.py:6: super().__setattr__",
    ]
