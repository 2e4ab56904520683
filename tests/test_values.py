"""The library's immutable records keep the value semantics of frozen
dataclasses: equality and hash on the compared fields, the dataclass repr,
no assignment or deletion, and pickling."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from weylbuildings import (
    BoundaryFunction,
    Cochain,
    ExponentTable,
    Face,
    GroupElement,
    PrimeContext,
    absolute_tail,
    affine_diagram,
    ball,
    basis_element,
    bfs_growth,
    bott_rational,
    coboundary,
    cochain_from_map,
    element_from_word,
    evaluate,
    expand,
    exponents_for,
    face_of,
    geometric_shell_terms,
    iwahori_vector,
    make_report,
    parse_type_label,
    report_to_json,
    standard_chamber,
    standard_lattice,
    vertex_tree,
    zero_cochain_from_map,
)
from weylbuildings.boundary import OneCochain, ZeroCochain
from weylbuildings.exact import FrozenInstanceError, Value, _restore
from weylbuildings.hecke import HeckeElement

P2 = PrimeContext(p=2, n=2)
P3 = PrimeContext(p=2, n=3)
CHAMBER = standard_chamber(P3)
TREE = vertex_tree(P2, standard_lattice(P2), 2)
ZERO = zero_cochain_from_map({standard_lattice(P2): 1, TREE.vertices[3]: Fraction(1, 3)})
EDGES = OneCochain((((TREE.vertices[0], TREE.vertices[1]), 1),))
A1 = affine_diagram("A1~")

# (value, its fields in constructor order, the fields == and hash ignore,
# the slots after the fields that hold what the fields determine)
VALUES = [
    (P3, ("p", "n"), (), ()),
    (standard_lattice(P3), ("hnf", "valuation"), ("valuation",), ()),
    (CHAMBER, ("classes",), (), ()),
    (face_of(CHAMBER, 1), ("classes",), (), ("_hash",)),
    (
        ball(P2, 1),
        ("ctx", "radius", "chambers", "distance", "parent", "crossed_type", "faces", "index"),
        ("index",),
        ("_profile", "_flags", "_face_classes", "_face_members", "_face_types"),
    ),
    (ZERO, ("values",), (), ()),
    (coboundary(ZERO, P2), ("values",), (), ()),
    (
        TREE,
        ("ctx", "origin", "radius", "vertices", "depth", "parent", "index"),
        (),
        ("_at", "_rim"),
    ),
    (BoundaryFunction(2, tuple((e, 1) for e in TREE.ends())), ("depth", "parts"), (), ()),
    (parse_type_label("G2~"), ("family", "rank"), (), ()),
    (
        affine_diagram("G2~"),
        ("orders", "cartan", "kernel", "neighbors"),
        ("cartan", "kernel", "neighbors"),
        (),
    ),
    (bfs_growth(A1, 3), ("counts",), (), ()),
    (exponents_for("A2~"), ("label", "exponents"), (), ()),
    (bott_rational(exponents_for("A2~")), ("numerator", "denominator"), (), ()),
    (expand(bott_rational(exponents_for("A1~")), 3), ("coefficients",), (), ()),
    (iwahori_vector(CHAMBER, 2), ("values", "rule"), (), ()),
    (cochain_from_map({CHAMBER: 3}), ("values", "rule"), (), ()),
    (basis_element(A1, [0, 1], 3) * basis_element(A1, [1], 3), ("diagram", "q", "terms"), (), ()),
    (
        make_report("A1~", 2, 3),
        ("label", "q_f", "partial_sums", "closed_form", "tail_bound", "majorant"),
        (),
        (),
    ),
]
IDS = [f"{i}-{type(x).__name__}" for i, (x, _, _, _) in enumerate(VALUES)]


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
    classes = {type(x) for x, _, _, _ in VALUES}
    assert len(classes) == 18
    assert classes | {GroupElement} == set(Value.__subclasses__())


@pytest.mark.parametrize("x, fields, uncompared, derived", VALUES, ids=IDS)
def test_hash_is_that_of_the_compared_fields(x, fields, uncompared, derived):
    assert type(x).__slots__ == fields + derived
    key = tuple(getattr(x, f) for f in fields if f not in uncompared)
    assert outcome(lambda: hash(x)) == outcome(lambda: hash(key))


@pytest.mark.parametrize("x, fields, uncompared, derived", VALUES, ids=IDS)
def test_equality_reads_the_compared_fields_only(x, fields, uncompared, derived):
    assert x == copy.copy(x)
    assert x.__eq__(object()) is NotImplemented and x != (x,)
    for name in fields:
        y = replaced(x, name)
        if name in uncompared:
            assert x == y
            assert outcome(lambda: hash(x)) == outcome(lambda: hash(y))
        else:
            assert x != y


@pytest.mark.parametrize("x, fields, uncompared, derived", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(x, fields, uncompared, derived):
    for name in (*fields, *derived, "other"):
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


@pytest.mark.parametrize("x, fields, uncompared, derived", VALUES, ids=IDS)
def test_pickling_gives_an_equal_value(x, fields, uncompared, derived):
    # a vertex tree unpickles as the shared tree of its arguments
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x
    assert all(getattr(y, f) == getattr(x, f) for f in fields + derived)


@pytest.mark.parametrize(
    "x, text",
    [
        (P3, "PrimeContext(p=2, n=3)"),
        (PrimeContext(p=3, n=2, precision=8), "PrimeContext(p=3, n=2)"),
        (standard_lattice(P2), "LatticeClass(hnf=((1, 0), (0, 1)), valuation=0)"),
        (parse_type_label("G2~"), "AffineTypeLabel(family='G', rank=2)"),
        (A1, "CoxeterDiagram(orders=((1, inf), (inf, 1)))"),
        (bfs_growth(A1, 3), "GrowthTable(counts=(1, 2, 2, 2))"),
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


def test_a_face_keeps_the_hash_of_its_key_however_it_is_built():
    # the hidden slot holds hash((classes,)), the hash of the compared key,
    # on every route that makes a face: the constructor, face_of, the
    # unchecked faces of a ball, copying and unpickling
    face = face_of(CHAMBER, 1)
    built = [
        face,
        Face(tuple(reversed(face.classes))),
        *(face_of(CHAMBER, pos) for pos in range(3)),
        *ball(P3, 2).faces,
        *ball(P2, 2).faces,
        copy.copy(face),
        copy.deepcopy(face),
        pickle.loads(pickle.dumps(face)),
    ]
    for f in built:
        assert f._hash == hash((f.classes,)) == hash(f)
    assert built[1] == face and built[1]._hash == face._hash
    assert "_hash" not in repr(face) and repr(face).startswith("Face(classes=(LatticeClass(")


def test_an_exponent_table_stores_its_exponents_as_a_tuple():
    # a list would leave the table unhashable
    table = ExponentTable(parse_type_label("A2~"), [1, 2])
    assert table.exponents == (1, 2)
    assert table == exponents_for("A2~") and hash(table) == hash(exponents_for("A2~"))


def test_keywords_and_defaults_are_kept():
    assert PrimeContext(n=2, p=3) == PrimeContext(3, 2, None)
    ends = tuple((e, 1) for e in TREE.ends())
    assert BoundaryFunction(depth=2, parts=ends) == BoundaryFunction(2, ends)
    with pytest.raises(ValueError, match="exactly one of values and rule"):
        Cochain()


EVERY = [x for x, _, _, _ in VALUES] + [element_from_word(A1, [0, 1]), GroupElement(((3, -2), (2, -1)))]


@pytest.mark.parametrize("x", EVERY, ids=[*IDS, "GroupElement", "GroupElement-caller"])
def test_every_value_sets_its_slots_through_their_setters(x):
    cls = type(x)
    # the setters are the slots' own, one per slot, in __slots__ order
    assert [put.__self__.__name__ for put in cls._setters] == list(cls.__slots__)
    slots = [put.__self__ for put in cls._setters]
    state = tuple(getattr(x, name) for name in cls.__slots__)  # a ball derives its lazy fields
    assert tuple(slot.__get__(x, cls) for slot in slots) == state
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x
    assert tuple(slot.__get__(_restore(cls, state), cls) for slot in slots) == state
    # a shorter state sets the leading slots and leaves the others unset
    short = _restore(cls, state[:1])
    assert slots[0].__get__(short, cls) is state[0]
    for slot in slots[1:]:
        with pytest.raises(AttributeError):
            slot.__get__(short, cls)
    for name in cls.__slots__:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1)
    assert tuple(slot.__get__(x, cls) for slot in slots) == state


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ZeroCochain(((1, 2),)), "key of the wrong type: 1$"),
        (lambda: ZeroCochain(((CHAMBER, 2),)), r"key of the wrong type: FlagChamber\("),
        (lambda: OneCochain((((1, 2), 1),)), r"an edge must join two lattice classes, got \(1, 2\)"),
        (lambda: OneCochain(((1, 2),)), "an edge must join two lattice classes, got 1$"),
        (lambda: Cochain(values=((1, 2),)), "key of the wrong type: 1$"),
        (lambda: Cochain(values=((standard_lattice(P3), 2),)), r"key of the wrong type: LatticeClass\("),
        (lambda: Cochain(values=((face_of(CHAMBER, 0), 1),)), r"key of the wrong type: Face\("),
        (lambda: HeckeElement(A1, 2, ((1, 1),)), "key of the wrong type: 1$"),
        (lambda: BoundaryFunction(1, (((1, 2), 1),)), r"an edge must join two lattice classes, got \(1, 2\)"),
    ],
    ids=[
        "zero-cochain", "zero-cochain-chamber", "one-cochain", "one-cochain-int",
        "cochain", "cochain-class", "cochain-face", "hecke", "boundary",
    ],
)
def test_a_key_of_the_wrong_type_is_refused_by_name(build, message):
    # each record's order reads an attribute its keys have; any other key
    # is named in a ValueError, not met by an AttributeError
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: ZERO.value(None), "key of the wrong type: None$"),
        (lambda: ZERO.value(CHAMBER), r"key of the wrong type: FlagChamber\("),
        (lambda: ZERO.value([1]), r"key of the wrong type: \[1\]$"),
        (lambda: basis_element(A1, [0], 2).coefficient("x"), "key of the wrong type: 'x'$"),
        (
            lambda: cochain_from_map({CHAMBER: 1}).value(face_of(CHAMBER, 0), ball(P3, 1)),
            r"key of the wrong type: Face\(",
        ),
        (lambda: EDGES.value(1, TREE.vertices[0]), r"key of the wrong type: \(1, LatticeClass\("),
        (lambda: EDGES.value(TREE.vertices[0], "x"), r"key of the wrong type: \(LatticeClass\(.*, 'x'\)$"),
        (lambda: iwahori_vector(CHAMBER, 2).value([1], ball(P3, 1)), r"key of the wrong type: \[1\]$"),
        (lambda: iwahori_vector(CHAMBER, 2).value("x", ball(P3, 1)), "key of the wrong type: 'x'$"),
        (lambda: iwahori_vector(CHAMBER, 2).value(None, ball(P3, 1)), "key of the wrong type: None$"),
        (lambda: iwahori_vector(CHAMBER, 2).value(1.5, ball(P3, 1)), "key of the wrong type: 1.5$"),
        (
            lambda: iwahori_vector(CHAMBER, 2).value(face_of(CHAMBER, 0), ball(P3, 1)),
            r"key of the wrong type: Face\(",
        ),
    ],
    ids=[
        "zero-cochain-none", "zero-cochain-chamber", "zero-cochain-list", "hecke", "cochain-face",
        "one-cochain-int", "one-cochain-str", "rule-list", "rule-str", "rule-none", "rule-float",
        "rule-face",
    ],
)
def test_a_lookup_of_the_wrong_type_is_refused_by_name(read, message):
    # a key of the map's kind outside the support reads 0 (or, for the rule
    # form, outside the ball is refused as such); any other key is named,
    # where it read 0 before (or, unhashable, raised TypeError)
    with pytest.raises(ValueError, match=message):
        read()


def test_a_lookup_outside_the_support_reads_zero():
    assert ZERO.value(TREE.vertices[1]) == 0
    v = TREE.vertices
    assert EDGES.value(v[0], v[1]) == -EDGES.value(v[1], v[0]) == 1 and EDGES.value(v[1], v[2]) == 0
    assert basis_element(A1, [0], 2).coefficient(element_from_word(A1, [1])) == 0
    assert cochain_from_map({CHAMBER: 1}).value(ball(P3, 1).chambers[1], None) == 0


# a call whose first read is of a record's field, and the error naming it
FIRST_READS = {
    "ExponentTable-label": (lambda x: ExponentTable(x, (1, 2)), "label must be a AffineTypeLabel"),
    "bott_rational": (bott_rational, "table must be a ExponentTable"),
    "absolute_tail": (lambda x: absolute_tail(x, 2, 3), "table must be a ExponentTable"),
    "expand": (lambda x: expand(x, 3), "rf must be a RationalFunction"),
    "evaluate": (lambda x: evaluate(x, 1), "rf must be a RationalFunction"),
    "face_of": (lambda x: face_of(x, 0), "chamber must be a FlagChamber"),
    "geometric_shell_terms": (geometric_shell_terms, "graph must be a BallGraph"),
    "report_to_json": (report_to_json, "report must be a PeriodReport"),
}


@pytest.mark.parametrize("x", ["x", None, 1.5, object()], ids=["str", "None", "float", "object"])
@pytest.mark.parametrize("call, message", FIRST_READS.values(), ids=FIRST_READS.keys())
def test_a_record_of_the_wrong_kind_is_named_at_its_first_read(call, message, x):
    # one ValueError naming the parameter, where an AttributeError came before
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {x!r}")):
        call(x)
