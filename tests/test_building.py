"""Lattice classes, chambers, the group action, and enumerated balls."""

import copy
import functools
import hashlib
import inspect
import itertools
import json
import pickle
import re
import sys
import threading
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from types import MappingProxyType
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylbuildings.action as action
import weylbuildings.building as building
import weylbuildings.cli
import weylbuildings.lattice as lattice
from weylbuildings import (
    BallGraph,
    Face,
    FlagChamber,
    LatticeClass,
    PrimeContext,
    act,
    affine_diagram,
    affine_generator_matrix,
    ball,
    ball_to_json,
    bfs_growth,
    chambers_containing,
    classes_adjacent,
    convolve_chamber_function,
    element_from_word,
    end_chart,
    epsilon,
    epsilon_from_determinant,
    epsilon_from_labels,
    face_of,
    face_type,
    generator_face_types,
    geometric_lambda,
    label_shift_matrix,
    lattice_from_rows,
    length,
    make_chamber,
    reduced_word,
    standard_chamber,
    standard_lattice,
    vertex_label,
    vertex_neighbors,
    vertex_tree,
    weyl_to_chamber,
)
from weylbuildings.action import _class_of
from weylbuildings.boundary import VertexTree
from weylbuildings.building import _canonical
from weylbuildings.exact import _int
from weylbuildings.lattice import _coordinates

from references import matmul

# -- canonical forms -------------------------------------------------------------


def test_canonical_form_is_primitive_not_diagonal():
    # the minimal valuation over all entries is zero, even when every
    # diagonal entry is divisible by p
    cls = lattice_from_rows([[2, 1], [0, 2]], 2)
    assert cls.hnf == ((2, 1), (0, 2))
    assert any(v % 2 for row in cls.hnf for v in row)


def test_canonical_form_scales_away_common_power():
    assert lattice_from_rows([[2, 0], [0, 2]], 2) == standard_lattice(
        PrimeContext(p=2, n=2)
    )
    assert lattice_from_rows([[4, 0], [0, 8]], 2).hnf == ((1, 0), (0, 2))


def test_canonical_form_row_operations_invariant():
    p = 3
    a = lattice_from_rows([[1, 5], [0, 9]], p)
    b = lattice_from_rows([[0, 9], [1, 5]], p)  # swapped
    c = lattice_from_rows([[1, 14], [0, 9]], p)  # row1 += row2
    d = lattice_from_rows([[3, 15], [0, 27]], p)  # scaled by p
    assert a == b == c == d


def test_canonical_form_fraction_rows():
    cls = lattice_from_rows([[Fraction(1, 2), 0], [0, 2]], 2)
    assert cls.hnf == ((1, 0), (0, 4))
    with pytest.raises(ValueError):
        lattice_from_rows([[Fraction(1, 3), 0], [0, 1]], 2)


@pytest.mark.parametrize("entry", [0.1, 0.5, 2.0, "1/2"], ids=repr)
def test_non_rational_entries_rejected(entry):
    # a float converts exactly to a Fraction, so it must be refused by type
    ctx = PrimeContext(p=2, n=2)
    rows = [[entry, 0], [0, 1]]
    message = re.escape(f"entries must be int or Fraction, got {entry!r}")
    with pytest.raises(ValueError, match=message):
        lattice_from_rows(rows, 2)
    for x in (standard_lattice(ctx), standard_chamber(ctx)):
        with pytest.raises(ValueError, match=message):
            act(rows, x, ctx)
    for route in (epsilon_from_determinant, epsilon_from_labels, epsilon):
        with pytest.raises(ValueError, match=message):
            route(rows, ctx)


def test_canonical_form_overdetermined_rows():
    p = 2
    a = lattice_from_rows([[1, 0], [0, 2], [1, 2]], p)
    b = lattice_from_rows([[1, 0], [0, 2]], p)
    assert a == b
    with pytest.raises(ValueError, match="rows do not span a full lattice"):
        lattice_from_rows([[1, 2], [2, 4]], p)  # rank deficient
    with pytest.raises(ValueError, match="need at least 2 rows of length 2"):
        lattice_from_rows([[1, 2]], p)  # too few rows


@pytest.mark.parametrize("rows", [[], [[]], [[], []]], ids=repr)
def test_empty_rows_rejected(rows):
    with pytest.raises(ValueError, match="need at least n rows of length n"):
        lattice_from_rows(rows, 2)


@pytest.mark.parametrize("rows", [[1, 2], [[1, 0], 2], 5, None], ids=repr)
def test_rows_that_are_not_rows_are_named(rows):
    message = f"rows must be a sequence of rows of entries, got {rows!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lattice_from_rows(rows, 2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ),
    st.integers(min_value=0, max_value=2),
)
def test_canonical_form_unimodular_invariance(rows, shift):
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det == 0:
        return
    p = 2
    base = lattice_from_rows(rows, p)
    swapped = lattice_from_rows([rows[1], rows[0]], p)
    sheared = lattice_from_rows(
        [[rows[0][0] + shift * rows[1][0], rows[0][1] + shift * rows[1][1]], rows[1]], p
    )
    scaled = lattice_from_rows([[p * v for v in r] for r in rows], p)
    assert base == swapped == sheared == scaled


def _vdet(rows, p):
    """v_p of the determinant of the Z_p-span: least valuation of a maximal
    minor, or None when the rows do not span a full lattice."""
    vals = []
    for a, b, c in combinations(rows, 3):
        d = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if d:
            vals.append(_val(Fraction(d), p))
    return min(vals, default=None)


def _val(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _spans_contain(rows, vec, p):
    # vec lies in the span iff adding it leaves the determinant valuation alone
    return _vdet(list(rows) + [vec], p) == _vdet(rows, p)


@st.composite
def _rational_rows(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    entry = st.builds(
        lambda a, e: Fraction(a, p**e),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=0, max_value=2),
    )
    rows = draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=4))
    return p, rows


@settings(max_examples=60, deadline=None)
@given(_rational_rows(), st.integers(min_value=-3, max_value=3), st.integers(0, 3))
def test_canonical_form_gl3_rational_rows(case, shear, k):
    p, rows = case
    assume(_vdet(rows, p) is not None)
    cls = lattice_from_rows(rows, p)
    swapped = [rows[1], rows[0]] + rows[2:]
    sheared = [[x + shear * y for x, y in zip(rows[0], rows[-1])]] + rows[1:]
    for variant in (
        swapped,
        sheared,
        [[x * p**k for x in row] for row in rows],
        [[x / p for x in row] for row in rows],
    ):
        assert lattice_from_rows(variant, p) == cls
    # the canonical rows span the input lattice rescaled to be primitive
    low = min(_val(x, p) for row in rows for x in row if x)
    scaled = [[x / Fraction(p) ** low for x in row] for row in rows]
    assert all(_spans_contain(cls.hnf, row, p) for row in scaled)
    assert all(_spans_contain(scaled, row, p) for row in cls.hnf)


# -- the normal form, checked by its definition ---------------------------------------
#
# ``action._class_of`` writes every class of caller rows and of the group
# action, and the reference ``_insertions`` below reaches it through
# ``_canonical`` as well, so the predicate here is written out from the
# definition instead.


def _is_normal_form(hnf, valuation, p):
    """Upper triangular, a diagonal of powers of p whose exponents sum to
    the valuation, each entry above the diagonal in [0, the diagonal entry
    below it), and some entry prime to p."""
    n = len(hnf)
    if any(len(row) != n for row in hnf) or any(hnf[i][j] for i in range(n) for j in range(i)):
        return False
    diagonal = [hnf[i][i] for i in range(n)]
    if any(d < 1 or d != p ** _val(d, p) for d in diagonal):
        return False
    if sum(_val(d, p) for d in diagonal) != valuation:
        return False
    if any(not 0 <= hnf[i][j] < hnf[j][j] for j in range(n) for i in range(j)):
        return False
    return any(x % p for row in hnf for x in row)


def _leibniz_det(rows):
    total = 0
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        total += sign * prod(rows[i][j] for i, j in enumerate(perm))
    return total


def _over_triangular(basis, vec):
    # the x with x . basis = vec, by forward substitution in Fractions
    x = []
    for j in range(len(vec)):
        x.append((Fraction(vec[j]) - sum(x[i] * basis[i][j] for i in range(j))) / basis[j][j])
    return x


@pytest.mark.parametrize("n, p, radius", [(2, 3, 4), (3, 2, 4), (3, 3, 3)])
def test_every_ball_class_is_in_normal_form(n, p, radius):
    # the classes of the ball's chambers and of every star of its faces:
    # the ball stores a chamber as first found, so the stars' copies of the
    # classes, valuations included, are checked too
    ctx = PrimeContext(p=p, n=n)
    graph = ball(ctx, radius)
    stars = [chamber for face in graph.faces for chamber in chambers_containing(face, ctx)]
    for chamber in graph.chambers + tuple(stars):
        for c in chamber.classes:
            assert _is_normal_form(c.hnf, c.valuation, p), c


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(min_value=0, max_value=3),
)
def test_lattice_from_rows_gives_the_normal_form_of_the_class(p, rows, k):
    # integer rows with a common power p^k; the form spans the input lattice
    # once rescaled by p^s, where n s is the gap between the two valuations
    rows = [[p**k * x for x in row] for row in rows]
    det = _leibniz_det(rows)
    assume(det != 0)
    n = len(rows)
    cls = lattice_from_rows(rows, p)
    assert _is_normal_form(cls.hnf, cls.valuation, p)
    s, rest = divmod(_val(det, p) - cls.valuation, n)
    assert rest == 0 and s >= k
    # the input lies in p^s times the form, and both have one valuation
    scaled = [[p**s * x for x in row] for row in cls.hnf]
    for row in rows:
        assert all(x == 0 or _val(x, p) >= 0 for x in _over_triangular(scaled, row))


# -- labels and adjacency ----------------------------------------------------------


def test_vertex_labels():
    ctx = PrimeContext(p=2, n=2)
    assert vertex_label(standard_lattice(ctx), ctx) == 0
    assert vertex_label(lattice_from_rows([[1, 0], [0, 2]], 2), ctx) == 1
    ctx3 = PrimeContext(p=2, n=3)
    assert vertex_label(lattice_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2), ctx3) == 1
    assert vertex_label(lattice_from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]], 2), ctx3) == 2


def test_adjacency_tree():
    ctx = PrimeContext(p=2, n=2)
    o = standard_lattice(ctx)
    near = lattice_from_rows([[1, 0], [0, 2]], 2)
    far = lattice_from_rows([[1, 0], [0, 4]], 2)
    assert classes_adjacent(o, near, ctx)
    assert classes_adjacent(near, o, ctx)
    assert not classes_adjacent(o, far, ctx)
    assert not classes_adjacent(o, o, ctx)
    assert classes_adjacent(near, far, ctx)


def test_chambers_containing_vertex_tree():
    ctx = PrimeContext(p=3, n=2)
    o = standard_lattice(ctx)
    stars = chambers_containing(Face((o,)), ctx)
    assert len(stars) == 4  # p + 1
    for chamber in stars:
        assert o in chamber.classes


def test_chambers_containing_edge_gl3():
    ctx = PrimeContext(p=2, n=3)
    chamber = standard_chamber(ctx)
    for pos in range(3):
        face = face_of(chamber, pos)
        star = chambers_containing(face, ctx)
        assert len(star) == 3  # p + 1
        assert chamber in star
        for other in star:
            for cls in face.classes:
                assert cls in other.classes


def _old_adjacency(u, v, ctx):
    # the rule before labels fixed the orientation: try both index-p steps
    step = building._chain_step
    return step(u, v, ctx) is not None or step(v, u, ctx) is not None


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (3, 2, 2)])
def test_adjacency_by_label_matches_both_orientations(n, p, radius):
    ctx = PrimeContext(p=p, n=n)
    graph = ball(ctx, radius)
    vertices = sorted({c for ch in graph.chambers for c in ch.classes}, key=lambda c: c.hnf)
    for u, v in combinations(vertices, 2):
        adjacent = classes_adjacent(u, v, ctx)
        assert adjacent == classes_adjacent(v, u, ctx) == _old_adjacency(u, v, ctx)
    for chamber in graph.chambers:
        for u, v in combinations(chamber.classes, 2):
            assert classes_adjacent(u, v, ctx)


def test_gl3_star_does_not_depend_on_class_order(gl3_p2):
    ctx = gl3_p2.ctx
    for face in gl3_p2.faces:
        a, b = face.classes
        star = chambers_containing(face, ctx)
        assert chambers_containing((a, b), ctx) == chambers_containing((b, a), ctx) == star


def test_gl3_non_faces_rejected():
    ctx = PrimeContext(p=2, n=3)
    o = standard_lattice(ctx)
    same_label = lattice_from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 2)  # label 0, like o
    # label 1, one more than same_label's, but 2 far does not lie in same_label
    far = lattice_from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert vertex_label(far, ctx) == (vertex_label(same_label, ctx) + 1) % 3
    assert not _old_adjacency(same_label, far, ctx)
    for pair in ((o, same_label), (o, o), (same_label, far)):
        for face in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="codimension-1 face"):
                chambers_containing(face, ctx)


def test_face_classes_of_another_size_rejected():
    ctx2, ctx3 = PrimeContext(p=2, n=2), PrimeContext(p=2, n=3)
    v2, v3 = standard_lattice(ctx2), standard_lattice(ctx3)
    with pytest.raises(ValueError, match=re.escape(f"expected a 2x2 class, got 3x3: {v3.hnf}")):
        chambers_containing(Face((v3,)), ctx2)
    with pytest.raises(ValueError, match=re.escape(f"expected a 3x3 class, got 2x2: {v2.hnf}")):
        chambers_containing((v3, v2), ctx3)


P2, P3 = PrimeContext(p=2, n=2), PrimeContext(p=3, n=2)
O2 = standard_lattice(P2)
ONE_THREE = lattice_from_rows([[1, 0], [0, 3]], 3)  # a vertex of the p = 3 tree


@pytest.mark.parametrize(
    "call",
    [
        lambda: chambers_containing(Face((ONE_THREE,)), P2),
        lambda: vertex_neighbors(ONE_THREE, P2),
        lambda: vertex_tree(P2, ONE_THREE, 1),
        lambda: end_chart((O2, ONE_THREE), P2),
        lambda: classes_adjacent(O2, ONE_THREE, P2),
        lambda: make_chamber([O2, ONE_THREE], P2),
        lambda: act([[1, 0], [0, 1]], ONE_THREE, P2),
        lambda: ball(P2, 1, center=building.FlagChamber((O2, ONE_THREE))),
        lambda: vertex_label(ONE_THREE, P2),
        lambda: face_type(Face((ONE_THREE,)), P2),
    ],
    ids=[
        "chambers_containing",
        "vertex_neighbors",
        "vertex_tree",
        "end_chart",
        "classes_adjacent",
        "make_chamber",
        "act",
        "ball",
        "vertex_label",
        "face_type",
    ],
)
def test_a_class_of_another_prime_is_refused(call):
    # its Hermite diagonal (1, 3) is not a power of 2, so no answer about
    # the p = 2 tree can be right
    with pytest.raises(ValueError, match=re.escape("expected a class of the p = 2 building, got ((1, 0), (0, 3))")):
        call()


CONTEXT_CALLS = {
    "standard_lattice": lambda x: standard_lattice(x),
    "vertex_label": lambda x: vertex_label(O2, x),
    "classes_adjacent": lambda x: classes_adjacent(O2, O2, x),
    "make_chamber": lambda x: make_chamber(standard_chamber(P2).classes, x),
    "standard_chamber": lambda x: standard_chamber(x),
    "face_type": lambda x: face_type(Face((O2,)), x),
    "chambers_containing": lambda x: chambers_containing((O2,), x),
    "chambers_containing-face": lambda x: chambers_containing(Face((O2,)), x),
    "act": lambda x: act([[1, 0], [0, 1]], O2, x),
    "epsilon": lambda x: epsilon([[1, 0], [0, 1]], x),
    "epsilon_from_labels": lambda x: epsilon_from_labels([[1, 0], [0, 1]], x),
    "epsilon_from_determinant": lambda x: epsilon_from_determinant([[1, 0], [0, 1]], x),
    "label_shift_matrix": lambda x: label_shift_matrix(x),
    "affine_generator_matrix": lambda x: affine_generator_matrix(x, 0),
    "generator_face_types": lambda x: generator_face_types(x),
    "weyl_to_chamber": lambda x: weyl_to_chamber((0,), x),
    "ball": lambda x: ball(x, 1),
    "ball-centered": lambda x: ball(x, 1, center=standard_chamber(P2)),
    "geometric_lambda": lambda x: geometric_lambda(x, 2),
}


@pytest.mark.parametrize("call", CONTEXT_CALLS.values(), ids=CONTEXT_CALLS.keys())
@pytest.mark.parametrize("ctx", ["x", None, O2], ids=["str", "None", "class"])
def test_a_context_of_the_wrong_kind_is_named(call, ctx):
    # one ValueError naming ctx, where "'str' object has no attribute 'n'"
    # came before
    with pytest.raises(ValueError, match=re.escape(f"ctx must be a PrimeContext, got {ctx!r}")):
        call(ctx)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_chamber([O2, "x"], P2),
        lambda: vertex_neighbors("x", P2),
        lambda: chambers_containing(["x"], P2),
        lambda: vertex_label("x", P2),
        lambda: Face(("x",)),
        lambda: FlagChamber(("x",)),
        lambda: Face((O2, "x")),
        lambda: FlagChamber((O2, "x")),
    ],
    ids=[
        "make_chamber",
        "vertex_neighbors",
        "chambers_containing",
        "vertex_label",
        "Face",
        "FlagChamber",
        "Face-second",
        "FlagChamber-second",
    ],
)
def test_a_value_that_is_not_a_class_is_refused(call):
    with pytest.raises(ValueError, match=re.escape("expected a lattice class, got 'x'")):
        call()


def test_labels_and_face_types_refuse_a_class_of_another_size_or_a_non_face():
    ctx3 = PrimeContext(p=2, n=3)
    v3 = standard_lattice(ctx3)
    with pytest.raises(ValueError, match=re.escape(f"expected a 2x2 class, got 3x3: {v3.hnf}")):
        vertex_label(v3, P2)
    face = face_of(standard_chamber(ctx3), 2)
    assert face.classes[0] == v3
    with pytest.raises(ValueError, match=re.escape(f"expected a 2x2 class, got 3x3: {v3.hnf}")):
        face_type(face, P2)
    with pytest.raises(ValueError, match=re.escape("face must be a Face, got 'x'")):
        face_type("x", P2)


def test_a_center_of_another_building_is_refused():
    with pytest.raises(ValueError, match=re.escape("expected a class of the p = 3 building, got ((1, 0), (0, 2))")):
        ball(P3, 1, center=standard_chamber(P2))
    with pytest.raises(ValueError, match="a chamber needs exactly 3 classes"):
        ball(PrimeContext(p=2, n=3), 1, center=standard_chamber(P2))
    with pytest.raises(ValueError, match=re.escape("center must be a FlagChamber, got 'x'")):
        ball(P2, 1, center="x")


def test_act_refuses_a_class_of_another_size():
    v3 = standard_lattice(PrimeContext(p=2, n=3))
    with pytest.raises(ValueError, match=re.escape(f"expected a 2x2 class, got 3x3: {v3.hnf}")):
        act([[1, 0], [0, 1]], v3, P2)
    with pytest.raises(ValueError, match=re.escape("expected a 2x2 class, got 3x3")):
        act([[1, 0], [0, 1]], standard_chamber(PrimeContext(p=2, n=3)), P2)
    with pytest.raises(ValueError, match=re.escape("expected a 2x2 class, got 3x3")):
        make_chamber([v3, v3], P2)


P23 = PrimeContext(p=2, n=3)
O3 = standard_lattice(P23)
LABEL_0 = lattice_from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 2)  # label 0, like O3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lattice_from_rows([[1, 2], [3]], 2), "need at least 2 rows of length 2"),
        (lambda: lattice_from_rows([[0, 0], [0, 0]], 2), "zero matrix spans no lattice"),
        (lambda: lattice_from_rows([[1, 2], [2, 4], [0, 0]], 2), "rows do not span a full lattice"),
        (lambda: FlagChamber(()), "empty flag"),
        (lambda: make_chamber([O2, O2], P2), "flag classes must be distinct"),
        (lambda: make_chamber([O3, O3, O3], P23), "flag classes must be distinct"),
        (lambda: face_type(Face((O3, LABEL_0)), P23), "face vertices do not carry distinct labels"),
        (lambda: chambers_containing((O2, O2), P2), "a codimension-1 face has 1 classes"),
        (lambda: chambers_containing((O3,), P23), "a codimension-1 face has 2 classes"),
        (lambda: act([[1, 0, 0], [0, 1, 0], [0, 0, 1]], O2, P2), "matrix must be 2 x 2"),
        (lambda: epsilon_from_determinant([[1, 0], [0]], P2), "matrix must be 2 x 2"),
        (lambda: act([[1, 2], [2, 4]], O2, P2), "matrix is singular"),
        (lambda: epsilon([[2, 0, 0], [0, 1, 0], [0, 0, 0]], P23), "matrix is singular"),
    ],
    ids=[
        "ragged-rows",
        "zero-matrix",
        "rank-deficient",
        "empty-flag",
        "repeated-class-n2",
        "repeated-class-n3",
        "face-labels-repeat",
        "two-classes-at-n2",
        "one-class-at-n3",
        "matrix-too-large",
        "ragged-matrix",
        "singular-act",
        "singular-epsilon",
    ],
)
def test_a_malformed_input_is_refused_by_name(call, message):
    # each of these inputs reaches the one check that names it; without
    # that check it would fail later under another name, or not at all
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("p, n, radius", [(3, 2, 4), (3, 3, 2)])
def test_chambers_are_stored_from_their_least_rotation(p, n, radius):
    for chamber in ball(PrimeContext(p=p, n=n), radius).chambers:
        assert chamber.n == n
        cs = chamber.classes
        rotations = [cs[i:] + cs[:i] for i in range(n)]
        assert cs == min(rotations, key=lambda r: tuple(c.hnf for c in r))


def test_face_types_partition():
    ctx = PrimeContext(p=2, n=3)
    chamber = standard_chamber(ctx)
    types = sorted(face_type(face_of(chamber, pos), ctx) for pos in range(3))
    assert types == [0, 1, 2]


# -- the group action ---------------------------------------------------------------


def test_action_identity_and_scalars():
    ctx = PrimeContext(p=2, n=2)
    chamber = standard_chamber(ctx)
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert act(ident, chamber, ctx) == chamber
    scalar = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert act(scalar, chamber, ctx) == chamber
    half = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    assert act(half, chamber, ctx) == chamber


def test_label_shift_stabilizes_standard_chamber():
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        pi = label_shift_matrix(ctx)
        chamber = standard_chamber(ctx)
        assert act(pi, chamber, ctx) == chamber
        # but it rotates the labels of the individual vertices
        o = standard_lattice(ctx)
        image = act(pi, o, ctx)
        assert vertex_label(image, ctx) == 1 % n


@pytest.mark.parametrize("p", [2, 3])
def test_action_with_large_valuations_by_hand(p):
    # diag(p^-5, 1) Z_p^2 = p^-5 (Z_p + p^5 Z_p): the class of diag(1, p^5)
    ctx = PrimeContext(p=p, n=2)
    image = act([[Fraction(1, p**5), 0], [0, 1]], standard_lattice(ctx), ctx)
    assert image.hnf == ((1, 0), (0, p**5))
    assert image.valuation == 5
    # g e1 = e1, g e2 = p^-4 e1 + e2, g e3 = p^3 e3; times p^4 the span is
    # (p^4, 0, 0), (1, p^4, 0), (0, 0, p^7), whose Hermite form is below
    ctx3 = PrimeContext(p=p, n=3)
    g = [[1, Fraction(1, p**4), 0], [0, 1, 0], [0, 0, p**3]]
    image = act(g, standard_lattice(ctx3), ctx3)
    assert image.hnf == ((1, p**4, 0), (0, p**8, 0), (0, 0, p**7))
    assert image.valuation == 15
    assert image == lattice_from_rows([[1, 0, 0], [Fraction(1, p**4), 1, 0], [0, 0, p**3]], p)


@pytest.mark.parametrize("entry", [Fraction(1, 3), Fraction(1, 6), Fraction(5, 12)], ids=str)
def test_action_rejects_entries_with_foreign_denominators(entry):
    ctx = PrimeContext(p=2, n=2)
    g = [[entry, 0], [0, 1]]
    for x in (standard_lattice(ctx), standard_chamber(ctx)):
        with pytest.raises(ValueError, match="denominators must be powers of p"):
            act(g, x, ctx)


# -- the sign character --------------------------------------------------------------


def test_epsilon_frozen_values():
    ctx = PrimeContext(p=2, n=2)
    f = Fraction
    assert epsilon([[f(1), f(0)], [f(0), f(1)]], ctx) == 1
    assert epsilon([[f(2), f(0)], [f(0), f(1)]], ctx) == -1
    assert epsilon([[f(2), f(0)], [f(0), f(2)]], ctx) == 1
    assert epsilon([[f(0), f(1)], [f(1), f(0)]], ctx) == 1  # unit determinant
    ctx3 = PrimeContext(p=2, n=3)
    assert epsilon([[f(2), f(0), f(0)], [f(0), f(1), f(0)], [f(0), f(0), f(1)]], ctx3) == 1
    assert (
        epsilon([[f(2), f(0), f(0)], [f(0), f(2), f(0)], [f(0), f(0), f(1)]], ctx3) == 1
    )


def test_epsilon_rejects_entries_with_foreign_denominators():
    # det = 1 passes the determinant check, but entries must have p-power denominators
    ctx = PrimeContext(p=2, n=2)
    m = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(3)]]
    for route in (epsilon_from_determinant, epsilon_from_labels, epsilon):
        with pytest.raises(ValueError, match="denominators must be powers of p"):
            route(m, ctx)


def test_a_label_route_that_permutes_no_labels_is_caught(monkeypatch):
    # the label route reads the images of the standard flag; an action that
    # sends every class to one vertex gives no permutation to sign
    monkeypatch.setattr(action, "act", lambda g, x, ctx: standard_lattice(ctx))
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        with pytest.raises(ValueError, match="the matrix does not permute the vertex labels"):
            epsilon_from_labels(label_shift_matrix(ctx), ctx)


def test_disagreeing_sign_routes_are_caught(monkeypatch):
    # epsilon computes the sign both ways; a determinant route off by a
    # sign must fail its comparison, not pick one of the two
    determinant = action.epsilon_from_determinant
    monkeypatch.setattr(action, "epsilon_from_determinant", lambda g, ctx: -determinant(g, ctx))
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        for g in (label_shift_matrix(ctx), affine_generator_matrix(ctx, 1)):
            with pytest.raises(AssertionError, match="label signature disagrees with determinant parity"):
                epsilon(g, ctx)


def test_epsilon_routes_agree_and_multiply():
    import random

    rng = random.Random(11)
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        mats = []
        for _ in range(30):
            perm = list(range(n))
            rng.shuffle(perm)
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                m[i][perm[i]] = Fraction(2) ** rng.randint(-2, 2) * rng.choice([1, -1, 3])
            mats.append(m)
        for m in mats:
            assert epsilon_from_labels(m, ctx) == epsilon_from_determinant(m, ctx)
        for a in mats[:6]:
            for b in mats[:6]:
                prod = [
                    [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
                assert epsilon(prod, ctx) == epsilon(a, ctx) * epsilon(b, ctx)


# -- enumerated balls -----------------------------------------------------------------


def test_shell_sizes_match_counting_formula(tree_p2, tree_p3, gl3_p2):
    a1 = bfs_growth(affine_diagram("A1~"), 8).counts
    assert tree_p2.shell_sizes() == tuple(a1[k] * 2**k for k in range(9))
    assert tree_p3.shell_sizes() == tuple(a1[k] * 3**k for k in range(9))
    a2 = bfs_growth(affine_diagram("A2~"), 3).counts
    assert gl3_p2.shell_sizes() == tuple(a2[k] * 2**k for k in range(4))


@pytest.mark.parametrize("n, p, radius", [(2, 7, 3), (2, 11, 3), (3, 5, 3)])
def test_shell_sizes_at_larger_primes(n, p, radius):
    growth = bfs_growth(affine_diagram("A1~" if n == 2 else "A2~"), radius).counts
    graph = ball(PrimeContext(p=p, n=n), radius)
    assert graph.shell_sizes() == tuple(growth[k] * p**k for k in range(radius + 1))


def test_ball_structure_invariants(gl3_p2):
    g = gl3_p2
    for i in range(1, len(g)):
        j = g.parent[i]
        assert g.distance[i] == g.distance[j] + 1
        shared = set(g.chambers[i].classes) & set(g.chambers[j].classes)
        assert len(shared) == g.ctx.n - 1
        assert face_type(Face(tuple(shared)), g.ctx) == g.crossed_type[i]
    for i in range(len(g)):
        for j in g.neighbors(i):
            assert i in g.neighbors(j)
            assert abs(g.distance[i] - g.distance[j]) <= 1
    for face, members in g.faces.items():
        assert len(members) <= g.ctx.p + 1
        for i in members:
            assert set(face.classes) <= set(g.chambers[i].classes)


@pytest.mark.parametrize("n, p, radius", [(2, 3, 4), (3, 2, 3)])
def test_ball_enumerates_each_star_once(n, p, radius, monkeypatch):
    # ball writes its stars with the private ``_star``, on checked classes
    ctx = PrimeContext(p=p, n=n)
    seen = []
    star = building._star

    def counted(classes, ctx):
        seen.append(Face(classes))
        return star(classes, ctx)

    monkeypatch.setattr(building, "_star", counted)
    g = ball(ctx, radius)
    expanded = {
        face_of(c, pos)
        for c, d in zip(g.chambers, g.distance)
        if d < radius
        for pos in range(n)
    }
    assert len(seen) == len(expanded)
    assert set(seen) == expanded
    for members in g.faces.values():
        assert all(a < b for a, b in zip(members, members[1:]))


@pytest.mark.parametrize("radius", [2.0, "2", None], ids=repr)
def test_ball_rejects_non_int_radius(ctx22, radius):
    with pytest.raises(ValueError, match=re.escape(f"radius must be an int, got {radius!r}")):
        ball(ctx22, radius)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        ball(ctx22, -1)


def test_interior_faces_are_full_stars(tree_p2):
    for face in tree_p2.interior_faces():
        assert len(tree_p2.chambers_of_face(face)) == 3


def test_distance_equals_word_length(tree_p2, gl3_p2):
    d1 = affine_diagram("A1~")
    ctx2 = tree_p2.ctx
    for word in product((0, 1), repeat=5):
        w = element_from_word(d1, list(word))
        i = tree_p2.index[weyl_to_chamber(list(word), ctx2)]
        assert tree_p2.distance[i] == length(d1, w)
    d2 = affine_diagram("A2~")
    ctx3 = gl3_p2.ctx
    for word in product((0, 1, 2), repeat=3):
        w = element_from_word(d2, list(word))
        i = gl3_p2.index[weyl_to_chamber(list(word), ctx3)]
        assert gl3_p2.distance[i] == length(d2, w)


def test_cells_have_residue_power_sizes(gl3_p2):
    from collections import Counter

    from weylbuildings import GroupElement

    d = affine_diagram("A2~")
    cells = Counter()
    for i in range(len(gl3_p2)):
        w = element_from_word(d, list(gl3_p2.weyl_word(i)))
        cells[w.matrix] += 1
    for matrix, size in cells.items():
        assert size == 2 ** length(d, GroupElement(matrix))


def test_generator_face_types_bijective():
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        mapping = generator_face_types(ctx)
        assert sorted(mapping) == list(range(n))
        assert sorted(mapping.values()) == list(range(n))


def _crossed_face_types(ctx):
    """Reference for ``generator_face_types``: the type of the one face that
    the standard chamber shares with its image under each generator."""
    base = standard_chamber(ctx)
    base_faces = {face_of(base, pos) for pos in range(ctx.n)}
    mapping = {}
    for i in range(ctx.n):
        image = act(affine_generator_matrix(ctx, i), base, ctx)
        assert image != base
        common = base_faces & {face_of(image, pos) for pos in range(ctx.n)}
        assert len(common) == 1
        mapping[i] = face_type(common.pop(), ctx)
    return mapping


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generator_face_types_match_the_action(n, p):
    ctx = PrimeContext(p=p, n=n)
    assert generator_face_types(ctx) == _crossed_face_types(ctx)


@pytest.mark.parametrize("letter", [2, -1, 1.0, "1"], ids=repr)
def test_generator_matrix_rejects_non_index(letter):
    ctx = PrimeContext(p=2, n=2)
    kind = "in 0..1" if type(letter) is int else "an int"
    message = re.escape(f"generator must be {kind}, got {letter!r}")
    with pytest.raises(ValueError, match=message):
        affine_generator_matrix(ctx, letter)
    with pytest.raises(ValueError, match=message):
        weyl_to_chamber([0, letter], ctx)


def test_generator_matrices_are_involutions():
    for n in (2, 3):
        ctx = PrimeContext(p=3, n=n)
        chamber = standard_chamber(ctx)
        for i in range(n):
            m = affine_generator_matrix(ctx, i)
            moved = act(m, chamber, ctx)
            assert moved != chamber
            assert act(m, moved, ctx) == chamber


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_affine_generator_is_conjugate_by_label_shift(n, p):
    ctx = PrimeContext(p=p, n=n)
    shift = label_shift_matrix(ctx)
    s0, s1 = affine_generator_matrix(ctx, 0), affine_generator_matrix(ctx, 1)
    assert matmul(s0, shift) == matmul(shift, s1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, longest", [(2, 4), (3, 3)])
def test_weyl_to_chamber_is_the_action_of_the_word_matrix(n, longest, p):
    ctx = PrimeContext(p=p, n=n)
    base = standard_chamber(ctx)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(longest + 1):
        for word in product(range(n), repeat=k):
            g = eye
            for letter in word:
                g = matmul(g, affine_generator_matrix(ctx, letter))
            assert weyl_to_chamber(word, ctx) == act(g, base, ctx), word


def _unipotent(ctx, i, t):
    """u_i(t) = I + t E(i-1, i) for i >= 1 and u_0(t) = I + t p E(n-1, 0)."""
    n = ctx.n
    u = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    r, c, scale = (i - 1, i, 1) if i else (n - 1, 0, ctx.p)
    u[r][c] = Fraction(t * scale)
    return u


def _reduced_words_by_length(diagram, radius):
    """One reduced word per group element, grouped by length 0..radius."""
    shells = [{()}]
    for k in range(1, radius + 1):
        shells.append(
            {
                reduced_word(diagram, w)
                for word in shells[-1]
                for s in diagram.generators
                if length(diagram, w := element_from_word(diagram, word + (s,))) == k
            }
        )
    return shells


@pytest.mark.parametrize("n, p, radius", [(2, 3, 4), (3, 2, 3), (3, 3, 2), (2, 5, 3)])
def test_bruhat_iwahori_galleries_give_the_ball(n, p, radius):
    """Second route to every ball (Iwahori and Matsumoto 1965): the chambers
    at gallery distance k are u_i1(t1) s_i1 ... u_ik(tk) s_ik applied to the
    standard chamber, over one reduced word i1..ik per element of length k
    and all t in {0..p-1}^k, each chamber once."""
    ctx = PrimeContext(p=p, n=n)
    graph = ball(ctx, radius)
    d = affine_diagram(f"A{n - 1}~")
    base = standard_chamber(ctx)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k, words in enumerate(_reduced_words_by_length(d, radius)):
        reached = {}
        for word in words:
            for ts in product(range(p), repeat=k):
                g = eye
                for i, t in zip(word, ts):
                    g = matmul(matmul(g, _unipotent(ctx, i, t)), affine_generator_matrix(ctx, i))
                reached[act(g, base, ctx)] = word
        assert len(reached) == len(words) * p**k
        assert set(reached) == {graph.chambers[i] for i in graph.shell(k)}
        for chamber, word in reached.items():
            found = graph.weyl_word(graph.index[chamber])
            assert element_from_word(d, found) == element_from_word(d, word), (found, word)


@pytest.mark.parametrize("name, value", [("p", 2.0), ("n", 2.0), ("p", "2"), ("n", Fraction(2))])
def test_context_rejects_non_int_parameters(name, value):
    kwargs = {"p": 2, "n": 2, name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
        PrimeContext(**kwargs)


def test_ball_center_choice(tree_p2):
    ctx = tree_p2.ctx
    other = tree_p2.chambers[5]
    g = ball(ctx, 2, center=other)
    assert g.chambers[0] == other
    assert g.shell_sizes() == (1, 4, 8)


def test_ball_json_deterministic_and_adjacent(gl3_p2):
    ctx = gl3_p2.ctx
    blob1 = json.dumps(ball_to_json(ball(ctx, 2)), sort_keys=True)
    blob2 = json.dumps(ball_to_json(ball(ctx, 2)), sort_keys=True)
    assert blob1 == blob2
    data = ball_to_json(gl3_p2)
    assert data["chamber_count"] == len(gl3_p2)
    assert data["shell_sizes"] == [1, 6, 24, 72]
    adjacency = data["adjacency"]
    assert len(adjacency) == len(gl3_p2)
    for i, pairs in enumerate(adjacency):
        for ftype, j in pairs:
            assert 0 <= ftype < 3
            assert (ftype, i) in {tuple(pair) for pair in adjacency[j]}


@pytest.mark.parametrize(
    "n, p, radius, digest",
    [
        (2, 3, 5, "a7ef97a35308f9c24cc0aad502b3de0bbb006e6e515dd1345e8e51a37b1337a9"),
        (3, 2, 3, "237ec9006a34e04723c981b2faf4a31dc7a7933eadae458e8ebb104fe8d34b6f"),
        (3, 3, 2, "1871bf67241c59f89b3c1e608690b67c16e66d39963f9201db0f01e33d2744c5"),
        (3, 3, 4, "3a16183973eb20c99739c5bc9cfff6dbe91dd7a0c6e9f343cb213dfc68481526"),
        (2, 5, 4, "496193c57b8f15af2e8d031e6498efe67aa07d773f811bd80619fa6c1b945751"),
    ],
)
def test_ball_json_literal(n, p, radius, digest):
    ctx = PrimeContext(p=p, n=n)
    text = json.dumps(ball_to_json(ball(ctx, radius)), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Per-field digests (conftest ``field_digests``) of balls recorded before
# ``ball`` and the vertex tree shared one shell search; "faces" and
# "index" pin the maps' iteration order too.
BALL_FIELDS = {
    (2, 3, 6, None): {
        "ctx": "7aa397fe15389834", "radius": "e7f6c011776e8db7", "chambers": "49533d0248cac975",
        "distance": "177d3e501d9efa99", "parent": "63dc5b4b128c9890",
        "crossed_type": "bf816b5929bae2ae", "faces": "173f39e319cdb149", "index": "80adbf25ccdee57f",
    },
    (2, 5, 4, None): {
        "ctx": "a46fe8dd3891c4ed", "radius": "4b227777d4dd1fc6", "chambers": "dc851911471753c4",
        "distance": "078e98e8a4dd762c", "parent": "01e26a89fa8da0e0",
        "crossed_type": "b3033b63aa658f21", "faces": "763e0b33e049957d", "index": "f4866ba98c6281d0",
    },
    (3, 2, 4, None): {
        "ctx": "1970f320eb50221c", "radius": "4b227777d4dd1fc6", "chambers": "19517cb414d5cae3",
        "distance": "5162878bc889ae8b", "parent": "bc2ee434feaf2b80",
        "crossed_type": "eee494d09e1a10e8", "faces": "5e57c5585a87f291", "index": "65797e17edd5fa9e",
    },
    (3, 3, 3, None): {
        "ctx": "d10324bca3f40124", "radius": "4e07408562bedb8b", "chambers": "9dcd149b456fd7bb",
        "distance": "3bdf3dde22cc10a4", "parent": "51835edd12d29a87",
        "crossed_type": "2d26b3a5aeee7203", "faces": "4396b59aa6ab6a68", "index": "853947660bbfe32a",
    },
    (3, 2, 3, (0, 1, 2)): {
        "ctx": "1970f320eb50221c", "radius": "4e07408562bedb8b", "chambers": "d67ebe1068f85eeb",
        "distance": "6b81a67b8c4ea874", "parent": "69d024a44e6bfcbd",
        "crossed_type": "6fef46ef217d3472", "faces": "12811ea1e35584d9", "index": "6262a6abec45a1c1",
    },
}


@pytest.mark.parametrize("key", list(BALL_FIELDS), ids=str)
def test_ball_fields_are_pinned(key, field_digests):
    n, p, radius, word = key
    ctx = PrimeContext(p=p, n=n)
    center = None if word is None else weyl_to_chamber(word, ctx)
    assert field_digests(ball(ctx, radius, center)) == BALL_FIELDS[key]


# -- the ball against the route it replaced ------------------------------------
#
# Until ``ball`` searched on Hermite-tuple keys and built each chamber and
# face once, it ran ``_shells`` on ``FlagChamber`` items and ``Face`` keys
# through public ``chambers_containing``, and ``ball_to_json`` sorted each
# adjacency list and wrote chambers as lists.  Those three, and the vertex
# tree on the old search, stay here unchanged as the reference.


def _reference_shells(start, radius: int, step, key) -> tuple:
    """Breadth-first shells out to the radius.  ``step(i, item)`` returns
    (tag, neighbors) groups; a neighbor's first finder is its parent, and
    each new shell is indexed in ``key`` order.  Returns the items, index
    map, distances, parents and tags, and the last (unexpanded) shell."""
    items, index, distance, parent, tags = [start], {start: 0}, [0], [None], [None]
    frontier = [0]
    for depth in range(1, radius + 1):
        discovered: dict[object, tuple[int, object]] = {}
        for i in frontier:
            for tag, group in step(i, items[i]):
                for other in group:
                    if other not in index and other not in discovered:
                        discovered[other] = (i, tag)
        frontier = []
        for item in sorted(discovered, key=key):
            src, tag = discovered[item]
            frontier.append(len(items))
            index[item] = len(items)
            items.append(item)
            distance.append(depth)
            parent.append(src)
            tags.append(tag)
    return tuple(items), index, tuple(distance), tuple(parent), tuple(tags), frontier


def _reference_ball(ctx, radius, center=None):
    _int(radius, "radius", 0)
    if center is not None and not isinstance(center, FlagChamber):
        raise ValueError(f"center must be a FlagChamber, got {center!r}")
    start = standard_chamber(ctx) if center is None else make_chamber(center.classes, ctx)
    # face -> in-ball chambers in index order; the first expanded chamber to
    # meet a face discovers its whole star, so later ones only append
    faces: dict[Face, list[int]] = {}

    def stars(i: int, chamber: FlagChamber):
        groups = []
        for pos in range(ctx.n):
            face = face_of(chamber, pos)
            if face in faces:
                faces[face].append(i)
                continue
            faces[face] = [i]
            groups.append((chamber.classes[pos].valuation % ctx.n, chambers_containing(face, ctx)))
        return groups

    chambers, index, distance, parent, crossed, last = _reference_shells(
        start, radius, stars, FlagChamber.sort_key
    )
    # the last shell is never expanded; it enters here, after every
    # expanded chamber, so faces keep the order of their first chamber
    for i in last:
        for pos in range(ctx.n):
            faces.setdefault(face_of(chambers[i], pos), []).append(i)
    return BallGraph(
        ctx=ctx,
        radius=radius,
        chambers=chambers,
        distance=distance,
        parent=parent,
        crossed_type=crossed,
        faces={f: tuple(m) for f, m in faces.items()},
        index=index,
    )


def _reference_ball_to_json(graph):
    adjacency: list[list[list[int]]] = [[] for _ in graph.chambers]
    for face, members in graph.faces.items():
        ftype = face_type(face, graph.ctx)
        for i in members:
            adjacency[i].extend([ftype, j] for j in members if j != i)
    for pairs in adjacency:
        pairs.sort()
    return {
        "p": graph.ctx.p,
        "n": graph.ctx.n,
        "radius": graph.radius,
        "chamber_count": len(graph.chambers),
        "shell_sizes": list(graph.shell_sizes()),
        "chambers": [
            [[list(row) for row in cls.hnf] for cls in chamber.classes]
            for chamber in graph.chambers
        ],
        "adjacency": adjacency,
        "distance": list(graph.distance),
        "parent": [(-1 if x is None else x) for x in graph.parent],
        "crossed_type": [(-1 if x is None else x) for x in graph.crossed_type],
    }


def _reference_vertex_tree(ctx, origin, radius):
    vertices, index, depth, parent, _, _ = _reference_shells(
        origin, radius, lambda i, v: ((None, building._tree_neighbors(v, ctx.p)),), lambda v: v.hnf
    )
    return VertexTree(ctx, origin, radius, vertices, depth, parent, MappingProxyType(index))


@pytest.mark.parametrize(
    "n, p, radius, word",
    [
        (2, 3, 7, None),
        (2, 5, 4, None),
        (2, 7, 3, None),
        (3, 2, 5, None),
        (3, 3, 4, None),
        (3, 5, 2, None),
        (2, 3, 5, (1, 0, 1)),
        (3, 3, 3, (2, 0, 1, 2)),
    ],
    ids=str,
)
def test_ball_matches_the_reference_route(n, p, radius, word, field_values):
    # every field, the maps' order and the JSON bytes, at sizes beyond the pins
    ctx = PrimeContext(p=p, n=n)
    center = None if word is None else weyl_to_chamber(word, ctx)
    graph, reference = ball(ctx, radius, center), _reference_ball(ctx, radius, center)
    assert field_values(graph) == field_values(reference)
    assert list(graph.index.items()) == list(reference.index.items())
    assert json.dumps(ball_to_json(graph)) == json.dumps(_reference_ball_to_json(reference))


@pytest.mark.parametrize("p, radius", [(2, 8), (3, 5), (5, 3)])
def test_vertex_tree_matches_the_reference_route(p, radius, field_values):
    ctx = PrimeContext(p=p, n=2)
    for origin in (standard_lattice(ctx), lattice_from_rows([[1, 1], [0, p]], p)):
        tree = vertex_tree(ctx, origin, radius)
        assert field_values(tree) == field_values(_reference_vertex_tree(ctx, origin, radius))


@pytest.mark.parametrize(
    "n, p, radius", [(2, 2, 0), (2, 2, 7), (2, 2, 8), (3, 3, 0), (3, 2, 4), (3, 3, 4)], ids=str
)
def test_row_makers_join_to_ball_to_json_at_every_slice(n, p, radius):
    # 1 chamber, and counts below and above the writer's slice; each maker,
    # cut at widths below, at and above the chamber count, and at the
    # writer's own, joins to ball_to_json's list
    graph = ball(PrimeContext(p=p, n=n), radius)
    whole, count = ball_to_json(graph), len(graph)
    for width in sorted({1, 7, max(count - 1, 1), count, count + 1, weylbuildings.cli._SLICE}):
        makers = building._ball_rows(graph)
        for key, rows in makers.items():
            if callable(rows):
                parts = [rows(lo, lo + width) for lo in range(0, count + width, width)]
                assert [x for part in parts for x in part] == whole[key], (key, width)
                assert parts[-1] == [] and all(len(part) == width for part in parts[:-2])
            else:
                assert rows == whole[key]


@pytest.mark.parametrize("n, p, radius", [(2, 3, 5), (3, 2, 3)], ids=str)
def test_ball_to_json_shares_each_face_pair(n, p, radius):
    # a pair (t, j) is member j of chamber j's face of type t, so each face
    # builds it once and its other members' lists share that one tuple
    adjacency = ball_to_json(ball(PrimeContext(p=p, n=n), radius))["adjacency"]
    pairs = [pair for row in adjacency for pair in row]
    assert all(type(pair) is tuple for pair in pairs)
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs)


@pytest.mark.parametrize("n, p, radius", [(2, 3, 6), (3, 2, 4)])
def test_ball_hashes_each_public_key_once(n, p, radius, monkeypatch):
    # the search runs on Hermite tuples; chambers and faces are hashed only
    # as the keys of the public index and face map
    calls = {FlagChamber: 0, Face: 0}
    for kind in calls:

        def counted(self, kind=kind, original=kind.__hash__):
            calls[kind] += 1
            return original(self)

        monkeypatch.setattr(kind, "__hash__", counted)
    graph = ball(PrimeContext(p=p, n=n), radius)
    assert calls[FlagChamber] <= len(graph.chambers)
    assert calls[Face] <= len(graph.faces)


# -- what a ball builds only when it is read -------------------------------------------


@pytest.mark.parametrize("n, p, radius", [(2, 3, 6), (3, 2, 4)])
def test_a_ball_and_its_json_build_no_chamber_or_face(n, p, radius, monkeypatch):
    # chambers and faces the building makes itself are built by _restore
    calls = {FlagChamber: 0, Face: 0}
    original = building._restore

    def counted(cls, state):
        if cls in calls:
            calls[cls] += 1
        return original(cls, state)

    monkeypatch.setattr(building, "_restore", counted)
    graph = ball(PrimeContext(p=p, n=n), radius)
    ball_to_json(graph)
    convolve_chamber_function({0: 1}, 0, graph)
    assert graph.shell_sizes() and len(graph) == len(graph.distance)
    assert calls == {FlagChamber: 0, Face: 0}
    # the counter sees what a read builds: each chamber and face once
    assert len(graph.faces) == calls[Face] and calls[FlagChamber] == 0
    assert len(graph.index) == len(graph.chambers) == calls[FlagChamber]


@pytest.mark.parametrize("order", list(permutations(("index", "faces", "chambers"))), ids="-".join)
def test_the_derived_fields_read_the_same_in_any_order(order, field_values):
    ctx = PrimeContext(p=2, n=3)
    reference = _reference_ball(ctx, 3)
    graph = ball(ctx, 3)
    for name in order:
        getattr(graph, name)
    assert field_values(graph) == field_values(reference)
    assert list(graph.index.items()) == list(reference.index.items())
    # the index's keys are the chambers themselves, each built once
    assert all(a is b for a, b in zip(graph.index, graph.chambers))


@pytest.mark.parametrize("n, p, radius, word", [(2, 3, 4, None), (3, 2, 3, (0, 1, 2))], ids=str)
def test_a_ball_is_the_graph_of_its_fields(n, p, radius, word):
    ctx = PrimeContext(p=p, n=n)
    center = None if word is None else weyl_to_chamber(word, ctx)
    graph = ball(ctx, radius, center)
    fields = {name: getattr(ball(ctx, radius, center), name) for name in BallGraph._shown}
    built = BallGraph(**fields)
    # the JSON first, while the ball's derived fields are still unset
    assert ball_to_json(graph) == ball_to_json(built)
    for name in BallGraph._search:
        assert getattr(graph, name) == getattr(built, name)
    assert graph == built and repr(graph) == repr(built)
    for x in (graph, built):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == built and repr(y) == repr(built)
            assert ball_to_json(y) == ball_to_json(built)
    with pytest.raises(AttributeError, match="'BallGraph' object has no attribute 'colour'"):
        graph.colour


def test_threads_reading_the_faces_of_a_fresh_ball_get_equal_maps():
    # more threads than cores, switching often, all reading at once: each may
    # build its own map, and every map must read the same, in the same order
    expected = list(ball(PrimeContext(p=3, n=2), 5).faces.items())
    graph = ball(PrimeContext(p=3, n=2), 5)
    start = threading.Barrier(4, timeout=30)
    got = [None] * 4

    def read(k):
        start.wait()
        got[k] = graph.faces

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for faces in [*got, graph.faces]:
        assert list(faces.items()) == expected


def test_make_chamber_validation():
    ctx = PrimeContext(p=2, n=2)
    o = standard_lattice(ctx)
    near = lattice_from_rows([[1, 0], [0, 2]], 2)
    far = lattice_from_rows([[1, 0], [0, 4]], 2)
    assert make_chamber((o, near), ctx) == make_chamber((near, o), ctx)
    with pytest.raises(ValueError):
        make_chamber((o, far), ctx)
    with pytest.raises(ValueError):
        make_chamber((o, o), ctx)


# -- what chambers_containing builds without re-validating ------------------------------


@pytest.mark.parametrize(
    "n, p, radius", [(2, 3, 4), (2, 5, 3), (3, 2, 3), (3, 3, 2), (2, 7, 3), (3, 5, 2)]
)
def test_constructed_flags_pass_the_full_checks(n, p, radius):
    # chambers_containing skips make_chamber and the minor bound; every flag
    # it builds, inside the ball and one step beyond, must still pass them
    ctx = PrimeContext(p=p, n=n)
    graph = ball(ctx, radius)
    built = {c for face in graph.faces for c in chambers_containing(face, ctx)}
    assert set(graph.chambers) <= built
    for chamber in built:
        assert make_chamber(chamber.classes, ctx) == chamber
        for pos, cls in enumerate(chamber.classes):
            assert cls.valuation == sum(_val(cls.hnf[i][i], p) for i in range(n))
            assert face_type(face_of(chamber, pos), ctx) == vertex_label(cls, ctx)


def test_canonical_asserts_the_given_valuation():
    rows = [[1, 0], [0, 9]]  # v_3(det) = 2
    assert building._canonical(rows, 3, 2) == lattice_from_rows(rows, 3)
    assert lattice_from_rows(rows, 3).valuation == 2
    for wrong in (1, 3):
        with pytest.raises(AssertionError, match="expected valuation"):
            building._canonical(rows, 3, wrong)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_valuation_refuses_zero(p):
    assert [lattice._val_int(x, p) for x in (1, -p, p**3 * 7)] == [0, 1, 3]
    with pytest.raises(ValueError, match=re.escape("the valuation of x = 0 is not defined")):
        lattice._val_int(0, p)


# -- the star rule against the two rules it replaced ------------------------------------
#
# ``_quotient_basis`` and ``_insertions`` built every n = 3 star until a
# kernel rule replaced them: the inner lattice of a face gap plus one line
# of its residue plane, each sum put in Hermite form by ``_canonical``.
# That kernel rule, ``_functionals`` and ``_sublattices``, scanned all
# p^2 + p + 1 functionals for those that vanish on the line, until
# ``building._kernels`` wrote them out from the line's residues.  Both
# stay here, unchanged, as references.


def _quotient_basis(
    outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]], p: int
) -> tuple[list[int], list[int]]:
    """Two rows of the outer basis spanning the quotient outer / inner.

    Requires p * outer <= inner <= outer with a two-dimensional quotient,
    so inner / p outer is a line (n = 3) or zero (n = 2).  In coordinates
    over the upper-triangular outer basis, an inner row nonzero mod p spans
    that line, and the outer rows but the one at its first coordinate prime
    to p span the quotient (a row inside p outer leads at None).  Rows
    leading at two columns span more than a line; rank 2 at one column
    leaves a line inside inner, which ``_canonical`` refuses by valuation.
    """
    leads = set()
    for row in inner_rows:
        coords = _coordinates(outer_rows, row)
        if coords is None:
            raise ValueError("inner rows do not lie in the outer lattice")
        leads.add(next((c for c, x in enumerate(coords) if x % p), None))
    free = [row for c, row in enumerate(outer_rows) if c not in leads]
    if len(free) != 2:
        raise ValueError("quotient of the face gap is not two-dimensional")
    return list(free[0]), list(free[1])


def _insertions(
    outer_rows: Sequence[Sequence[int]],
    inner_rows: Sequence[Sequence[int]],
    inner_valuation: int,
    p: int,
) -> list[LatticeClass]:
    """The p + 1 classes strictly between outer and inner when the quotient
    is a plane over F_p: inner plus one of the p + 1 lines of the plane.

    Each sum M of inner and one line lies between inner and outer; both
    steps have index p exactly when v_p(det M) = v_p(det inner) - 1, which
    ``_canonical`` asserts, so no membership test is needed.
    """
    u, v = _quotient_basis(outer_rows, inner_rows, p)
    lines = [[x + t * y for x, y in zip(u, v)] for t in range(p)] + [v]
    return [_canonical(list(inner_rows) + [w], p, inner_valuation - 1) for w in lines]


@functools.lru_cache(maxsize=32)  # a process meets few primes; the bound caps a long-lived one
def _functionals(n: int, p: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonzero functionals phi on F_p^n up to scalars, each scaled to 1
    at its last nonzero entry j, as pairs (j, phi)."""
    return tuple(
        (j, head + (1,) + (0,) * (n - 1 - j))
        for j in range(n)
        for head in itertools.product(range(p), repeat=j)
    )


def _sublattices(vertex: LatticeClass, line: Sequence[int], p: int) -> list[LatticeClass]:
    """Classes of the index-p sublattices of L = vertex that contain a line
    of L / pL, given over L's Hermite rows r_0..r_(n-1); the zero line
    gives all of them.  They are the kernels of the ``_functionals`` phi
    that vanish on the line, r_i - phi_i r_j (i < j), p r_j, r_i (i > j):
    upper triangular with a p-power diagonal, so ``_class_of`` reduces them
    and strips their p-content, which is 0 or 1 since the kernel contains
    pL with L primitive."""
    basis, n = vertex.hnf, vertex.n
    v = vertex.valuation + 1
    out = []
    for j, phi in _functionals(n, p):
        if sum(f * x for f, x in zip(phi, line)) % p:
            continue
        rj = basis[j]
        rows = [[x - f * y for x, y in zip(r, rj)] for r, f in zip(basis[:j], phi)]
        rows += [[p * y for y in rj]] + [list(r) for r in basis[j + 1 :]]
        out.append(_class_of(rows, p, v))
    return out


def _face_gap(face, ctx):
    # the gap p^k last > p first that an n = 3 face leaves open: outer rows,
    # inner rows and the inner valuation
    first, last = face.classes
    if (vertex_label(last, ctx) - vertex_label(first, ctx)) % 3 != 1:
        first, last = last, first
    k = (first.valuation + 1 - last.valuation) // 3
    return last.scaled_rows(ctx.p, k), first.scaled_rows(ctx.p, 1), first.valuation + 3


def _reference_star(face, ctx):
    # the sorted chambers of an n = 3 face by the line insertions
    first, last = face.classes
    if (vertex_label(last, ctx) - vertex_label(first, ctx)) % 3 != 1:
        first, last = last, first
    middles = _insertions(*_face_gap(face, ctx), ctx.p)
    return sorted((FlagChamber((first, last, m)) for m in middles), key=FlagChamber.sort_key)


def _spans_lattice(rows, basis, p):
    # the rows lie in the lattice of the triangular basis, and their span
    # has its determinant valuation (the least over maximal minors)
    if any(_coordinates(basis, row) is None for row in rows):
        return False
    minors = [building._det(list(m)) for m in combinations(rows, len(basis))]
    return min(_val(d, p) for d in minors if d) == _val(building._det(basis), p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_basis_completes_every_face_gap(p):
    ctx = PrimeContext(p=p, n=3)
    for face in ball(ctx, 2).faces:
        outer, inner, _ = _face_gap(face, ctx)
        u, v = _quotient_basis(outer, inner, p)
        assert u in outer and v in outer and u != v
        assert _spans_lattice(inner + [u, v], outer, p)
        assert not _spans_lattice(inner + [u], outer, p)
        assert not _spans_lattice(inner + [v], outer, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_one_dimensional_face_gap_is_refused(p):
    # inner plus one quotient row leaves a line, not a plane: its rows lead
    # at two columns
    ctx = PrimeContext(p=p, n=3)
    for face in ball(ctx, 1).faces:
        outer, inner, valuation = _face_gap(face, ctx)
        u, _ = _quotient_basis(outer, inner, p)
        with pytest.raises(ValueError, match="quotient of the face gap is not two-dimensional"):
            _insertions(outer, inner + [u], valuation - 1, p)


def test_a_line_gap_leading_at_one_column_fails_the_valuation_check():
    # rank 2 mod p with both rows leading at column 0: the rule returns
    # e1, e2, and the line e1 lies inside inner
    outer = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    inner = [[1, 0, 0], [1, 1, 0], [0, 0, 3]]
    with pytest.raises(AssertionError, match="expected valuation"):
        _insertions(outer, inner, 1, 3)


def _generic_tree_neighbors(v, p):
    # the generic star of a vertex of the tree: p L plus one line of L / p L
    return _insertions(v.hnf, v.scaled_rows(p, 1), v.valuation + 2, p)


def _classes(classes):
    return {(c.hnf, c.valuation) for c in classes}


@pytest.mark.parametrize("n", [2, 3])
def test_insertion_inside_the_inner_lattice_fails_the_valuation_check(n, monkeypatch, capsys):
    # a "line" taken from the inner lattice adds nothing, so the reference
    # sum keeps the inner valuation instead of dropping it by one
    def inner_lines(outer_rows, inner_rows, p):
        return list(inner_rows[0]), list(inner_rows[1])

    monkeypatch.setattr(sys.modules[__name__], "_quotient_basis", inner_lines)
    ctx = PrimeContext(p=3, n=n)
    face = face_of(standard_chamber(ctx), 0)
    with pytest.raises(AssertionError, match="expected valuation"):
        if n == 2:
            _generic_tree_neighbors(face.classes[0], 3)
        else:
            _insertions(*_face_gap(face, ctx), 3)
    if n == 3:
        # the kernel rule, handed a line inside p outer, would keep every
        # functional; it refuses the line as a failed invariant instead
        # (``_star`` writes the stars of both chambers_containing and ball)
        line = "missing = _kernels(last, line, p)"
        source = inspect.getsource(building._star)
        assert source.count(line) == 1
        namespace = dict(vars(building))
        exec(source.replace(line, "missing = _kernels(last, [p * x for x in line], p)"), namespace)
        monkeypatch.setattr(building, "_star", namespace["_star"])
        with pytest.raises(AssertionError, match="the line of a face is zero mod p"):
            chambers_containing(face, ctx)
        from weylbuildings.cli import main

        assert main(["ball", "--n", "3", "--p", "3", "--R", "2"]) == 1
        assert "the line of a face is zero mod p" in capsys.readouterr().err


def _line_case(line, p):
    # which of ``building._kernels``'s three cases a line falls in: the
    # index of its first entry nonzero mod p
    return next(i for i, x in enumerate(line) if x % p)


@pytest.mark.parametrize("p, radius", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_the_kernel_rule_matches_the_line_insertions(p, radius, monkeypatch):
    # second route to every n = 3 star: the kernels of the functionals
    # against the reference sums, chambers and valuations, on every face;
    # the faces checked meet all three cases of the line
    ctx = PrimeContext(p=p, n=3)
    graph = ball(ctx, radius)
    cases = set()
    kernels = building._kernels

    def recording(vertex, line, p):
        cases.add(_line_case(line, p))
        return kernels(vertex, line, p)

    monkeypatch.setattr(building, "_kernels", recording)
    for face in graph.faces:
        reference = _reference_star(face, ctx)
        star = chambers_containing(face, ctx)
        assert list(star) == reference
        assert _classes(c.classes[2] for c in star) == _classes(c.classes[2] for c in reference)
    assert cases == {0, 1, 2}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_kernel_rule_matches_the_functional_scan(p):
    # every nonzero line of L / pL, in residues and shifted by p, on the
    # vertices of a ball: the written-out kernels against the scan over all
    # functionals, classes and valuations; a zero line is refused
    ctx = PrimeContext(p=p, n=3)
    vertices = {c for chamber in ball(ctx, 1).chambers for c in chamber.classes}
    lines = [line for line in product(range(p), repeat=3) if any(line)]
    for v in vertices:
        for line in lines:
            kernels = building._kernels(v, line, p)
            assert len(kernels) == p + 1
            assert _classes(kernels) == _classes(_sublattices(v, line, p))
            shifted = [x + p * i for i, x in enumerate(line)]
            assert _classes(building._kernels(v, shifted, p)) == _classes(kernels)
    assert {_line_case(line, p) for line in lines} == {0, 1, 2}
    # a zero line would keep every functional, and nothing after the rule
    # would notice: the star count holds on the p + 1 it would give
    for line in [(0, 0, 0), (p, 0, -p), (3 * p, 2 * p, p)]:
        with pytest.raises(AssertionError, match="the line of a face is zero mod p"):
            building._kernels(standard_lattice(ctx), line, p)


def test_stars_need_no_hermite_elimination(monkeypatch):
    # every star is written in Hermite form directly; the elimination serves
    # only lattice_from_rows and act
    def refuse(*args, **kwargs):
        raise AssertionError("a star ran the Hermite elimination")

    # the elimination lives in the group action's module, beside ``act``
    monkeypatch.setattr(action, "_hermite_rows", refuse)
    monkeypatch.setattr(action, "_canonical", refuse)
    for n, p, radius in [(2, 3, 5), (3, 3, 3), (3, 2, 4)]:
        ctx = PrimeContext(p=p, n=n)
        graph = ball(ctx, radius)
        for face in graph.faces:
            assert len(chambers_containing(face, ctx)) == p + 1


@pytest.mark.parametrize(
    "line, mutant",
    [
        ("y + t * z", "y"),  # r0 in place of r0 + t r1
        ("(p * x, p * y % z, z)", "(x, y, p * z)"),  # <r0, p r1> in place of <p r0, r1>
    ],
)
def test_a_mutated_tree_neighbor_rule_fails_the_star_count(line, mutant, monkeypatch, capsys):
    # each mutant repeats a neighbor, so some n = 2 star has fewer than
    # p + 1 chambers; the count check must catch it, and the CLI exits 1
    source = inspect.getsource(building._tree_neighbors)
    assert source.count(line) == 1
    namespace = dict(vars(building))
    exec(source.replace(line, mutant), namespace)
    monkeypatch.setattr(building, "_tree_neighbors", namespace["_tree_neighbors"])
    ctx = PrimeContext(p=3, n=2)
    with pytest.raises(AssertionError, match=r"exactly p \+ 1 chambers"):
        chambers_containing(face_of(standard_chamber(ctx), 0), ctx)
    from weylbuildings.cli import main

    assert main(["ball", "--n", "2", "--p", "3", "--R", "2"]) == 1
    assert "exactly p + 1 chambers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, line, mutant, failure",
    [
        # the j = 2 rows taken with phi scaled to -1 at j: phi vanishes on
        # the line, the rows are the kernel of another functional, and a
        # flag beyond the ball breaks
        (
            "_kernels",
            "m02 - g * x2, x1, m12 - h * x2",
            "m02 + g * x2, x1, m12 + h * x2",
            "classes do not bound a codimension-1 face",
        ),
        # entries above the diagonal of column 1 left unreduced: one class,
        # two forms
        ("_reduced", "t, b = divmod(b, d)", "t = 0", "all equal: no"),
        # a kernel inside pL kept whole: not primitive, so not canonical
        (
            "_reduced",
            "if a % p or b % p or c % p or d % p or e % p or f % p:",
            "if True:",
            "all equal: no",
        ),
        # the line's condition dropped from the j = 2 functionals when
        # l0 != 0: p^2 + 1 of them, so p^2 + 2 chambers on one face
        (
            "_kernels",
            "[((h * l1 + l2) * s % p, h) for h in range(p)]",
            "[(g, h) for g in range(p) for h in range(p)]",
            "exactly p + 1 chambers",
        ),
    ],
    ids=["phi-not-scaled", "reduction-skipped", "content-kept", "line-filter-dropped"],
)
def test_a_mutated_kernel_rule_is_caught(name, line, mutant, failure, monkeypatch, capsys):
    # the mutant's stars differ from the reference on some face of a ball
    # built by the real rule, and the CLI exits 1 on a radius-3 ball; the
    # reference stars are taken first, from the real rule's faces
    ctx = PrimeContext(p=3, n=3)
    references = {face: _reference_star(face, ctx) for face in ball(ctx, 2).faces}
    source = inspect.getsource(getattr(building, name))
    assert source.count(line) == 1
    namespace = dict(vars(building))
    exec(source.replace(line, mutant), namespace)
    monkeypatch.setattr(building, name, namespace[name])

    def agrees(face):
        try:
            return list(chambers_containing(face, ctx)) == references[face]
        except AssertionError:
            return False

    assert not all(agrees(face) for face in references)
    from weylbuildings.cli import main

    assert main(["ball", "--n", "3", "--p", "3", "--R", "3"]) == 1
    out = capsys.readouterr()
    assert failure in out.out + out.err


@pytest.mark.parametrize("p, radius", [(2, 4), (3, 4), (5, 3), (7, 3), (11, 2)])
def test_tree_neighbors_match_the_generic_insertions(p, radius):
    # the closed form against the generic star and against the kernel rule
    # with the zero line, neighbor set and valuations, on every vertex of
    # two vertex trees
    ctx = PrimeContext(p=p, n=2)
    for origin in (standard_lattice(ctx), lattice_from_rows([[1, 1], [0, p]], p)):
        tree = vertex_tree(ctx, origin, radius)
        for v in tree.vertices:
            closed = [(c.hnf, c.valuation) for c in building._tree_neighbors(v, p)]
            assert len(set(closed)) == p + 1
            assert set(closed) == _classes(_generic_tree_neighbors(v, p))
            assert set(closed) == _classes(_sublattices(v, [0, 0], p))
            assert all(val == sum(_val(row[i], p) for i, row in enumerate(h)) for h, val in closed)


def test_weyl_word_needs_no_group_action(tree_p2, monkeypatch):
    calls = []
    real_act = action.act

    def counting_act(g, x, ctx):
        calls.append(ctx)
        return real_act(g, x, ctx)

    monkeypatch.setattr(action, "act", counting_act)
    words = [tree_p2.weyl_word(i) for i in range(len(tree_p2))]
    assert calls == []  # the face types are read off the generator indices
    assert {words[i] for i in tree_p2.shell(1)} == {(0,), (1,)}
    mapping = generator_face_types(tree_p2.ctx)
    mapping.clear()  # callers get their own dict
    assert sorted(generator_face_types(tree_p2.ctx)) == [0, 1]
    assert calls == []


@pytest.mark.parametrize("method", ["gallery_types", "weyl_word", "neighbors"])
def test_ball_methods_refuse_an_index_outside_the_ball(method):
    g = ball(PrimeContext(p=2, n=2), 2)
    last = len(g) - 1
    read = getattr(g, method)
    read(0), read(last)
    for i in (-1, -len(g), last + 1, 10**6):
        message = f"chamber index must be in 0..{last}, got {i}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read(i)
    for i in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=re.escape(f"chamber index must be an int, got {i!r}")):
            read(i)


@pytest.mark.parametrize("given", [None, 1.5, object()], ids=["None", "float", "object"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: make_chamber(x, P2), "classes must be a sequence of lattice classes"),
        (lambda x: chambers_containing(x, P2), "face must be a sequence of lattice classes"),
        (lambda x: weyl_to_chamber(x, P2), "word must be a sequence of generator indices"),
    ],
    ids=["make_chamber", "chambers_containing", "weyl_to_chamber"],
)
def test_a_sequence_argument_that_is_not_one_is_named(call, message, given):
    # one ValueError naming the parameter, where "'NoneType' object is not
    # iterable" or "'float' object is not reversible" came before
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {given!r}")):
        call(given)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: ball_to_json("x"), "graph must be a BallGraph, got 'x'"),
        (lambda g: g.shell("x"), "k must be an int, got 'x'"),
        (lambda g: g.chambers_of_face("x"), "face must be a Face, got 'x'"),
    ],
    ids=["ball_to_json", "shell", "chambers_of_face"],
)
def test_a_ball_reader_refuses_a_value_of_the_wrong_kind(call, message):
    # one ValueError naming the argument, where an AttributeError or
    # KeyError came before, or an empty shell
    g = ball(PrimeContext(p=2, n=2), 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(g)
