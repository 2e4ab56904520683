"""The library's immutable records keep the value semantics of frozen
dataclasses: equality and hash on the compared fields, the dataclass repr,
no assignment or deletion, and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from weylbuildings import (
    BoundaryFunction,
    Cochain,
    GroupElement,
    PrimeContext,
    affine_diagram,
    ball,
    basis_element,
    bfs_growth,
    bott_rational,
    coboundary,
    cochain_from_map,
    element_from_word,
    expand,
    exponents_for,
    face_of,
    iwahori_vector,
    make_report,
    parse_type_label,
    standard_chamber,
    standard_lattice,
    vertex_tree,
    zero_cochain_from_map,
)
from weylbuildings.exact import FrozenInstanceError, Value

P2 = PrimeContext(p=2, n=2)
P3 = PrimeContext(p=2, n=3)
CHAMBER = standard_chamber(P3)
TREE = vertex_tree(P2, standard_lattice(P2), 2)
ZERO = zero_cochain_from_map({standard_lattice(P2): 1, TREE.vertices[3]: Fraction(1, 3)})
A1 = affine_diagram("A1~")

# (value, its fields in constructor order, the fields == and hash ignore)
VALUES = [
    (P3, ("p", "n"), ()),
    (standard_lattice(P3), ("hnf", "valuation"), ("valuation",)),
    (CHAMBER, ("classes",), ()),
    (face_of(CHAMBER, 1), ("classes",), ()),
    (
        ball(P2, 1),
        ("ctx", "radius", "chambers", "distance", "parent", "crossed_type", "faces", "index"),
        ("index",),
    ),
    (ZERO, ("values",), ()),
    (coboundary(ZERO, P2), ("values",), ()),
    (TREE, ("ctx", "origin", "radius", "vertices", "depth", "parent", "index"), ()),
    (BoundaryFunction(2, tuple((e, 1) for e in TREE.ends())), ("depth", "parts", "chart"), ()),
    (parse_type_label("G2~"), ("family", "rank"), ()),
    (affine_diagram("G2~"), ("orders", "cartan", "kernel"), ("cartan", "kernel")),
    (bfs_growth(A1, 3), ("counts", "cutoff"), ()),
    (exponents_for("A2~"), ("label", "exponents"), ()),
    (bott_rational(exponents_for("A2~")), ("numerator", "denominator"), ()),
    (expand(bott_rational(exponents_for("A1~")), 3), ("coefficients",), ()),
    (iwahori_vector(CHAMBER, 2), ("values", "rule"), ()),
    (cochain_from_map({CHAMBER: 3}), ("values", "rule"), ()),
    (basis_element(A1, [0, 1], 3) * basis_element(A1, [1], 3), ("diagram", "q", "terms"), ()),
    (
        make_report("A1~", 2, 3),
        ("label", "q_f", "q_e", "cutoff", "partial_sums", "closed_form", "tail_bound", "majorant"),
        (),
    ),
]
IDS = [f"{i}-{type(x).__name__}" for i, (x, _, _) in enumerate(VALUES)]


def outcome(call):
    try:
        return call()
    except TypeError as exc:  # a ball or a tree holds a dict, as before
        return type(exc)


def replaced(x, name):
    # x with one field set to a fresh object, built past __init__ and the freeze
    y = object.__new__(type(x))
    for f in type(x).__slots__:
        object.__setattr__(y, f, object() if f == name else getattr(x, f))
    return y


def test_the_table_covers_every_value_class():
    # GroupElement is left out of the table: its equality compares matrices,
    # its hash is that of the point alone, and its methods fill three lazy
    # slots, so it has tests of its own below
    classes = {type(x) for x, _, _ in VALUES}
    assert len(classes) == 18
    assert classes | {GroupElement} == set(Value.__subclasses__())


@pytest.mark.parametrize("x, fields, uncompared", VALUES, ids=IDS)
def test_hash_is_that_of_the_compared_fields(x, fields, uncompared):
    assert type(x).__slots__ == fields
    key = tuple(getattr(x, f) for f in fields if f not in uncompared)
    assert outcome(lambda: hash(x)) == outcome(lambda: hash(key))


@pytest.mark.parametrize("x, fields, uncompared", VALUES, ids=IDS)
def test_equality_reads_the_compared_fields_only(x, fields, uncompared):
    assert x == copy.copy(x)
    assert x.__eq__(object()) is NotImplemented and x != (x,)
    for name in fields:
        y = replaced(x, name)
        if name in uncompared:
            assert x == y
            assert outcome(lambda: hash(x)) == outcome(lambda: hash(y))
        else:
            assert x != y


@pytest.mark.parametrize("x, fields, uncompared", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(x, fields, uncompared):
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_the_frozen_error_is_an_attribute_error_naming_the_field():
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'p'"):
        P3.p = 3
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'p'"):
        del P3.p


@pytest.mark.parametrize("x, fields, uncompared", VALUES, ids=IDS)
def test_pickling_gives_an_equal_value(x, fields, uncompared):
    # a vertex tree unpickles as the shared tree of its arguments
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x
    assert all(getattr(y, f) == getattr(x, f) for f in fields)


@pytest.mark.parametrize(
    "x, text",
    [
        (P3, "PrimeContext(p=2, n=3)"),
        (PrimeContext(p=3, n=2, precision=8), "PrimeContext(p=3, n=2)"),
        (standard_lattice(P2), "LatticeClass(hnf=((1, 0), (0, 1)), valuation=0)"),
        (parse_type_label("G2~"), "AffineTypeLabel(family='G', rank=2)"),
        (A1, "CoxeterDiagram(orders=((1, inf), (inf, 1)))"),
        (bfs_growth(A1, 3), "GrowthTable(counts=(1, 2, 2, 2), cutoff=3)"),
        (
            exponents_for("A2~"),
            "ExponentTable(label=AffineTypeLabel(family='A', rank=2), exponents=(1, 2))",
        ),
        (
            expand(bott_rational(exponents_for("A1~")), 1),
            "SeriesTruncation(coefficients=(Fraction(1, 1), Fraction(2, 1)))",
        ),
        (
            cochain_from_map({standard_chamber(P2): 3}),
            "Cochain(values=((FlagChamber(classes=(LatticeClass(hnf=((1, 0), (0, 1)), "
            "valuation=0), LatticeClass(hnf=((1, 0), (0, 2)), valuation=1))), "
            "Fraction(3, 1)),), rule=None)",
        ),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_repr_is_the_dataclass_repr(x, text):
    assert repr(x) == text


def test_keywords_and_defaults_are_kept():
    assert PrimeContext(n=2, p=3) == PrimeContext(3, 2, None)
    ends = tuple((e, 1) for e in TREE.ends())
    assert BoundaryFunction(depth=2, parts=ends).chart is None
    with pytest.raises(ValueError, match="exactly one of values and rule"):
        Cochain()


@pytest.mark.parametrize("name", ["point", "_matrix", "_diagram", "_peel", "other"])
def test_a_group_element_is_frozen(name):
    # reassigning the point would leave the element filed under its old hash
    w = (basis_element(A1, [0], 2) * basis_element(A1, [1], 2)).support[0]
    u = GroupElement(w.matrix)
    for x in (w, u):
        before = (x.point, x.matrix, x._diagram, x._peel)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, (5, -3))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        assert (x.point, x.matrix, x._diagram, x._peel) == before


def test_a_frozen_group_element_keeps_its_coefficient():
    x = basis_element(A1, [0], 2)
    w = x.support[0]
    with pytest.raises(FrozenInstanceError):
        w.point = (5, -3)
    assert x.coefficient(w) == x.coefficient(element_from_word(A1, [0])) == 1


def test_a_group_element_fills_its_lazy_slots_and_pickles():
    w = element_from_word(A1, [0, 1])
    assert w._matrix is None and w._peel is None
    assert w.matrix == ((3, -2), (2, -1)) == w._matrix
    u = GroupElement(w.matrix)
    assert u._diagram is None and u == w and hash(u) == hash(w) == hash(w.point)
    assert repr(u) == repr(w) == "GroupElement(matrix=((3, -2), (2, -1)))"
    for x in (w, u):
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is GroupElement and y == x and y.point == x.point
    assert copy.copy(w) == w
