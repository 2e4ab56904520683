"""Integer arguments are ints: a bool, a float or a string fails at the
boundary with a ValueError that names the argument and the value, and no
module under ``src/`` tests for an int with ``isinstance``, which lets a
bool through.  No module under ``src/`` imports ``dataclasses`` either: its
import alone costs a cold request more than most of the library."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import weylbuildings
from weylbuildings import (
    AffineTypeLabel,
    BoundaryFunction,
    Cochain,
    CoxeterDiagram,
    ExponentTable,
    GroupElement,
    PrimeContext,
    RationalFunction,
    absolute_majorant,
    absolute_tail,
    affine_diagram,
    affine_generator_matrix,
    ball,
    bfs_growth,
    bott_rational,
    convolve_chamber_function,
    element_from_word,
    end_count,
    evaluate,
    expand,
    exponents_for,
    face_of,
    geometric_lambda,
    lambda_closed,
    lambda_partial,
    lattice_from_rows,
    make_report,
    parse_type_label,
    sphere_vertex_count,
    standard_chamber,
    standard_lattice,
    vertex_tree,
    zero_cochain_from_map,
)
from weylbuildings.exact import _int

P2 = PrimeContext(p=2, n=2)
A1 = exponents_for("A1~")

# (argument name, call with that argument set to x)
INT_ARGUMENTS = [
    ("radius", lambda x: ball(P2, x)),
    ("radius", lambda x: vertex_tree(P2, standard_lattice(P2), x)),
    ("radius", lambda x: geometric_lambda(P2, x)),
    ("p", lambda x: sphere_vertex_count(x, 2)),
    ("r", lambda x: sphere_vertex_count(2, x)),
    ("p", lambda x: end_count(x, 2)),
    ("r", lambda x: end_count(2, x)),
    ("q", lambda x: lambda_partial("A1~", x, 3)),
    ("q", lambda x: lambda_closed("A1~", x)),
    ("q", lambda x: absolute_majorant("A1~", x)),
    ("q", lambda x: make_report("A1~", x, 3)),
    ("q", lambda x: absolute_tail(A1, x, 3)),
    ("cutoff", lambda x: bfs_growth(affine_diagram("A1~"), x)),
    ("cutoff", lambda x: expand(bott_rational(A1), x)),
    ("p", lambda x: PrimeContext(p=x, n=2)),
    ("n", lambda x: PrimeContext(p=2, n=x)),
    ("depth", lambda x: BoundaryFunction(depth=x, parts=())),
    ("rule parameter q", lambda x: Cochain(rule=(standard_chamber(P2), x))),
    ("p", lambda x: lattice_from_rows([[1, 0], [0, 1]], x)),
    ("rank", lambda x: AffineTypeLabel("A", x)),
    ("matrix entries", lambda x: GroupElement([[x, 0], [0, 1]])),
    ("diagonal order", lambda x: CoxeterDiagram(((x, 3), (3, 1)))),
    ("position", lambda x: face_of(standard_chamber(P2), x)),
    ("exponents", lambda x: ExponentTable(parse_type_label("A2~"), (x, 2))),
    ("coefficients", lambda x: RationalFunction((1,), (1, x))),
]


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize(
    "name, call", INT_ARGUMENTS, ids=[f"{i}-{name}" for i, (name, _) in enumerate(INT_ARGUMENTS)]
)
def test_integer_argument_refuses_non_int(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: element_from_word(affine_diagram("A1~"), [True]), "unknown generator True"),
        (
            lambda: affine_generator_matrix(P2, True),
            "generator index must be an int in 0..1, got True",
        ),
        (
            lambda: convolve_chamber_function({}, True, ball(P2, 2)),
            "unknown generator True: the generators are 0..1",
        ),
        (
            lambda: zero_cochain_from_map({standard_lattice(P2): True}),
            "values must be int or Fraction, got True",
        ),
        (lambda: evaluate(bott_rational(A1), True), "x must be int or Fraction, got True"),
    ],
    ids=["generator", "affine_generator_matrix", "convolve_chamber_function", "values", "x"],
)
def test_generators_and_rationals_refuse_bool(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lattice_from_rows([[1, 0], [0, 1]], 4), "4 is not prime"),
        (lambda: GroupElement("ab"), "matrix entries must be an int, got 'a'"),
        (lambda: parse_type_label(3), "malformed affine type label 3"),
        (
            lambda: CoxeterDiagram(((1, 3.0), (3.0, 1))),
            "an order must be an int or math.inf, got 3.0",
        ),
        (
            lambda: ExponentTable(parse_type_label("A2~"), 3),
            "exponents must be a sequence of ints, got 3",
        ),
    ],
    ids=[
        "lattice_from_rows", "GroupElement", "parse_type_label", "CoxeterDiagram", "ExponentTable"
    ],
)
def test_arguments_of_the_wrong_kind_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_infinite_orders_stay_admitted():
    assert CoxeterDiagram(((1, float("inf")), (float("inf"), 1))) == affine_diagram("A1~")


@pytest.mark.parametrize("position", [-1, 2, 5])
def test_face_of_refuses_a_position_outside_the_flag(position):
    with pytest.raises(ValueError, match=re.escape(f"position must be in 0..1, got {position}")):
        face_of(standard_chamber(P2), position)


def test_int_bounds():
    assert _int(0, "r", 0) == 0
    assert _int(2, "q", 2) == 2
    assert _int(-5, "depth") == -5
    with pytest.raises(ValueError, match=re.escape("r must be nonnegative, got -1")):
        _int(-1, "r", 0)
    with pytest.raises(ValueError, match=re.escape("q must be at least 2, got 1")):
        _int(1, "q", 2)
    with pytest.raises(ValueError, match=re.escape("q must be an int, got Fraction(2, 1)")):
        _int(Fraction(2), "q", 2)


SRC = Path(weylbuildings.__file__).resolve().parents[1]
MODULES = sorted(SRC.rglob("*.py"))


def _names_int(node: ast.expr) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_names_int(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


def int_isinstance_calls(source: str, name: str) -> list[str]:
    """Calls ``isinstance(<x>, int)``, or with a tuple that holds ``int``,
    in the source of the module at ``name``."""
    return [
        f"{name}:{node.lineno}: isinstance(..., int)"
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names_int(node.args[1])
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_int_isinstance(path):
    name = path.relative_to(SRC).as_posix()
    assert int_isinstance_calls(path.read_text(encoding="utf-8"), name) == []


def test_checker_sees_int_isinstance():
    source = (
        "a = isinstance(x, int)\nb = isinstance(x, (str, int))\n"
        "c = type(x) is int\nd = isinstance(x, bool)\n"
    )
    assert int_isinstance_calls(source, "m.py") == [
        "m.py:1: isinstance(..., int)",
        "m.py:2: isinstance(..., int)",
    ]


def dataclass_imports(source: str, name: str) -> list[str]:
    """``import dataclasses`` and ``from dataclasses import ...`` in the
    source of the module at ``name``."""
    return [
        f"{name}:{node.lineno}: imports dataclasses"
        for node in ast.walk(ast.parse(source, filename=name))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses" and not node.level)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_dataclasses_import(path):
    name = path.relative_to(SRC).as_posix()
    assert dataclass_imports(path.read_text(encoding="utf-8"), name) == []


def test_checker_sees_dataclasses_imports():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "import os, dataclasses as dc\nfrom .dataclasses import x\nimport dataclasses_json\n"
    )
    assert dataclass_imports(source, "m.py") == [
        "m.py:1: imports dataclasses",
        "m.py:2: imports dataclasses",
        "m.py:3: imports dataclasses",
    ]
