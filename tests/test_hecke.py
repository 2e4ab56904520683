"""Deformed group algebra on the Weyl basis, plus its chamber realization."""

import collections
import random
import re
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbuildings import coxeter
from weylbuildings import (
    GroupElement,
    HeckeElement,
    affine_diagram,
    basis_element,
    convolve_chamber_function,
    element_from_word,
    face_of,
    generator_face_types,
    identity_element,
    iwahori_vector,
    length,
    multiply,
    special_character,
    unit,
    vertex_label,
)

from references import dense_product, reduced, reflections, word_matrix

PARAMS = [Fraction(2), Fraction(3), Fraction(4), Fraction(7, 2)]


@pytest.mark.parametrize("label", ["A1~", "A2~", "A3~", "C2~"])
@pytest.mark.parametrize("q", PARAMS, ids=str)
def test_quadratic_relation(label, q):
    d = affine_diagram(label)
    one = unit(d, q)
    for s in d.generators:
        e = basis_element(d, [s], q)
        assert multiply(e, e) == (q - 1) * e + q * one


@pytest.mark.parametrize("label", ["A1~", "A2~", "A3~", "C2~"])
@pytest.mark.parametrize("q", PARAMS, ids=str)
def test_braid_relation(label, q):
    d = affine_diagram(label)
    one = unit(d, q)
    for i, s in enumerate(d.generators):
        for t in d.generators[i + 1 :]:
            m = d.order(s, t)
            if m == float("inf"):
                continue
            left = right = one
            for j in range(int(m)):
                left = multiply(left, basis_element(d, [s if j % 2 == 0 else t], q))
                right = multiply(right, basis_element(d, [t if j % 2 == 0 else s], q))
            assert left == right


def test_basis_multiplication_sorts_by_length():
    d = affine_diagram("A2~")
    q = Fraction(3)
    e0 = basis_element(d, [0], q)
    e01 = basis_element(d, [0, 1], q)
    assert multiply(e0, basis_element(d, [1], q)) == e01
    # descent: e_0 * e_01 = (q-1) e_01 + q e_1
    prod = multiply(e0, e01)
    assert prod == (q - 1) * e01 + q * basis_element(d, [1], q)


def test_unit_and_linearity():
    d = affine_diagram("A1~")
    q = Fraction(7, 2)
    one = unit(d, q)
    a = basis_element(d, [0], q)
    b = basis_element(d, [0, 1], q)
    combo = 3 * a - b
    assert multiply(one, combo) == combo
    assert multiply(combo, one) == combo
    assert combo + b == 3 * a
    assert combo - combo == a - a
    assert (combo - combo).is_zero()
    assert not combo.is_zero()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=4),
    st.lists(st.integers(min_value=0, max_value=2), max_size=4),
    st.lists(st.integers(min_value=0, max_value=2), max_size=4),
)
def test_associativity(u, v, w):
    d = affine_diagram("A2~")
    q = Fraction(2)
    a = basis_element(d, u, q)
    b = basis_element(d, v, q)
    c = basis_element(d, w, q)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("total", [80, 200])
def test_a1_products_beyond_64(total):
    d = affine_diagram("A1~")
    q = Fraction(3)
    v = [0, 1] * (total // 4)
    w = [0, 1] * (total // 4)
    assert multiply(basis_element(d, v, q), basis_element(d, w, q)) == basis_element(d, v + w, q)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["A1~", "A2~"]), st.data())
def test_associativity_beyond_64(label, data):
    """A prefix of a power of a Coxeter element is reduced in an affine group
    (Speyer 2009), so the long factor below has length above 64."""
    d = affine_diagram(label)
    q = Fraction(2)
    coxeter = data.draw(st.permutations(d.generators))
    size = data.draw(st.integers(min_value=65, max_value=90))
    long_word = (list(coxeter) * size)[:size]
    assert length(d, element_from_word(d, long_word)) == size
    short = st.lists(st.sampled_from(d.generators), max_size=4)
    factors = [basis_element(d, data.draw(short), q) for _ in range(2)]
    factors.insert(data.draw(st.integers(min_value=0, max_value=2)), basis_element(d, long_word, q))
    a, b, c = factors
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_non_member_factor_rejected():
    # a term is checked where the Hecke element is built, before any product
    d = affine_diagram("A1~")
    q = Fraction(2)
    swap_term = ((GroupElement(((0, 1), (1, 0))), Fraction(1)),)
    with pytest.raises(ValueError, match="not an element of the group"):
        HeckeElement(d, q, swap_term)


def test_products_derive_no_matrix(monkeypatch):
    # terms are stepped and compared as points; a matrix is built only when read
    d = affine_diagram("B3~")
    q = Fraction(5, 3)
    a = basis_element(d, [0, 1, 2, 3, 2, 1], q) + 2 * basis_element(d, [3, 2], q)
    b = basis_element(d, [1, 2, 1, 0, 3], q)
    expected = multiply(a, b)

    def refuse(*args):
        raise AssertionError("a matrix was derived")

    monkeypatch.setattr(coxeter, "_matrix_of", refuse)
    product = multiply(a, b)
    assert product == expected
    assert special_character(product) == special_character(a) * special_character(b)
    monkeypatch.undo()
    # read once the refusal is lifted, the terms' matrices are the expected ones
    assert [(w.matrix, c) for w, c in product.terms] == [(w.matrix, c) for w, c in expected.terms]


def test_character_on_basis():
    d = affine_diagram("A2~")
    q = Fraction(3)
    assert special_character(unit(d, q)) == 1
    assert special_character(basis_element(d, [0], q)) == -1
    assert special_character(basis_element(d, [0, 1], q)) == 1


def test_character_multiplicative_on_all_short_pairs():
    d = affine_diagram("A2~")
    q = Fraction(3)
    elements = {}
    for L in range(5):
        for word in product((0, 1, 2), repeat=L):
            w = element_from_word(d, list(word))
            if length(d, w) == L:
                elements[w.matrix] = w
    assert len(elements) == 1 + 3 + 6 + 9 + 12
    elems = list(elements.values())
    for v in elems:
        for w in elems:
            ev = basis_element(d, v, q)
            ew = basis_element(d, w, q)
            assert special_character(multiply(ev, ew)) == special_character(
                ev
            ) * special_character(ew)


def test_parameter_mismatch_rejected():
    d = affine_diagram("A1~")
    a = basis_element(d, [0], Fraction(2))
    b = basis_element(d, [1], Fraction(3))
    for combine in (multiply, HeckeElement.__add__, HeckeElement.__sub__):
        with pytest.raises(ValueError, match="elements carry different parameters q"):
            combine(a, b)


def test_diagram_mismatch_rejected():
    a = basis_element(affine_diagram("A1~"), [0], Fraction(2))
    b = basis_element(affine_diagram("A2~"), [0], Fraction(2))
    for combine in (multiply, HeckeElement.__add__, HeckeElement.__sub__):
        with pytest.raises(ValueError, match="elements live over different diagrams"):
            combine(a, b)


# -- products against a dense matrix route ----------------------------------------

REFERENCE_TYPES = ("A1~", "A2~", "C2~", "G2~", "A3~", "B3~")
REFERENCE_Q = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 2), Fraction(5, 3))


def _distinct_terms(mats, rng, longest, coefficients):
    """Up to three (reduced word, coefficient) pairs, one per element."""
    by_matrix = {}
    for _ in range(3):
        w = reduced(mats, rng, rng.randint(0, longest))
        by_matrix[word_matrix(mats, w)] = (w, rng.choice(coefficients))
    return list(by_matrix.values())


def _combination(d, mats, q, pairs):
    return HeckeElement(d, q, tuple((GroupElement(word_matrix(mats, w)), c) for w, c in pairs))


def _assert_matches_dense(d, mats, q, a, b):
    product = multiply(_combination(d, mats, q, a), _combination(d, mats, q, b))
    expected = dense_product(mats, q, a, b)
    assert {w.matrix: c for w, c in product.terms} == expected
    # one normalized Fraction per nonzero entry, in point order: the
    # element the constructor builds of the same terms
    assert all(type(c) is Fraction and c for _, c in product.terms)
    assert product == HeckeElement(d, q, tuple((GroupElement(m), c) for m, c in expected.items()))
    assert product.diagram is d and product.q == q


@pytest.mark.parametrize("label", REFERENCE_TYPES)
@pytest.mark.parametrize("q", REFERENCE_Q, ids=str)
def test_products_match_the_dense_matrix_route(label, q):
    d = affine_diagram(label)
    mats = reflections(d)
    rng = random.Random(f"dense {label} {q}")
    coefficients = [Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-5, 3)]
    for _ in range(6):
        a = [(reduced(mats, rng, rng.randint(0, 6)), Fraction(1))]
        b = [(reduced(mats, rng, rng.randint(0, 6)), Fraction(1))]
        _assert_matches_dense(d, mats, q, a, b)
    for _ in range(3):
        # multi-term factors with signed coefficients
        a, b = (_distinct_terms(mats, rng, 5, coefficients) for _ in "ab")
        _assert_matches_dense(d, mats, q, a, b)
    # (e_s + (1 - q) e_1) e_s = q e_1: the two terms at s cancel in a step
    # with a descent (with q = 1 the descent's own coefficient is 0)
    cancel = multiply(_combination(d, mats, q, [([0], 1), ([], 1 - q)]), _combination(d, mats, q, [([0], 1)]))
    assert cancel.terms == ((identity_element(d), q),)


@pytest.mark.parametrize("q", REFERENCE_Q, ids=str)
def test_long_a1_products_match_the_dense_matrix_route(q):
    # in A1~ every alternating word is reduced; the factors are longer than
    # the Cayley index cutoff of 64, and so are their products' terms
    d = affine_diagram("A1~")
    mats = reflections(d)
    rng = random.Random(f"long {q}")
    for _ in range(3):
        a = [([(i + j) % 2 for i in range(rng.randint(30, 70))], Fraction(j + 1, 2)) for j in range(2)]
        b = [([(i + j) % 2 for i in range(rng.randint(36, 70))], Fraction(1 - 2 * j)) for j in range(2)]
        _assert_matches_dense(d, mats, q, a, b)


def test_a_warm_product_of_basis_elements_steps_and_builds_in_place():
    # the points are stepped inline and the product built from its sorted
    # points: no reflection helper, no element helper, no dict of elements
    # and so no element hash; one unchecked build per term and one for the
    # product
    package = Path(multiply.__code__.co_filename).parent
    rng = random.Random(1)
    cases = []
    for label in REFERENCE_TYPES:
        d = affine_diagram(label)
        mats = reflections(d)
        for q in REFERENCE_Q:
            a, b = (_combination(d, mats, q, [(reduced(mats, rng, rng.randint(3, 8)), 1)]) for _ in "ab")
            cases.append((a, b, multiply(a, b)))
    entered = collections.Counter()

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == package:
            entered[Path(code.co_filename).name, code.co_name] += 1

    sys.setprofile(profiler)
    try:
        products = [multiply(a, b) for a, b, _ in cases]
    finally:
        sys.setprofile(None)
    assert products == [expected for _, _, expected in cases]
    for name in (("coxeter.py", "_times"), ("coxeter.py", "_element"), ("exact.py", "_of"),
                 ("coxeter.py", "__hash__")):
        assert entered[name] == 0, name
    assert entered["hecke.py", "multiply"] == len(cases)
    assert entered["exact.py", "_restore"] == sum(len(p.terms) + 1 for p in products)


# -- arguments of the wrong kind ----------------------------------------------------

A2 = affine_diagram("A2~")
E0 = basis_element(A2, [0], 2)

WRONG_KIND_CALLS = {
    "multiply-a": (lambda x: multiply(x, E0), "a must be a HeckeElement"),
    "multiply-b": (lambda x: multiply(E0, x), "b must be a HeckeElement"),
    "special_character": (lambda x: special_character(x), "x must be a HeckeElement"),
    "HeckeElement": (lambda x: HeckeElement(x, 2, ()), "diagram must be a CoxeterDiagram"),
    "basis_element": (lambda x: basis_element(x, [0], 2), "diagram must be a CoxeterDiagram"),
    "basis_element-element": (
        lambda x: basis_element(x, element_from_word(A2, [0]), 2), "diagram must be a CoxeterDiagram"),
    "unit": (lambda x: unit(x, 2), "diagram must be a CoxeterDiagram"),
}


@pytest.mark.parametrize("call, message", WRONG_KIND_CALLS.values(), ids=WRONG_KIND_CALLS.keys())
@pytest.mark.parametrize("x", ["x", 5, None], ids=repr)
def test_a_hecke_argument_of_the_wrong_kind_is_named(call, message, x):
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {x!r}")):
        call(x)


@pytest.mark.parametrize("x", [5, None, 1.5, [1, 2]], ids=repr)
def test_hecke_terms_that_are_not_pairs_are_named(x):
    with pytest.raises(ValueError, match=re.escape(f"terms must be (element, coefficient) pairs, got {x!r}")):
        HeckeElement(A2, 2, x)


@pytest.mark.parametrize("x", [5, None, 1.5], ids=repr)
def test_a_basis_element_of_no_word_names_w(x):
    with pytest.raises(ValueError, match=re.escape(f"w must be a GroupElement or a word, got {x!r}")):
        basis_element(A2, x, 2)


@pytest.mark.parametrize("x", ["x", 5, None, element_from_word(A2, [0])], ids=repr)
def test_sums_with_another_kind_are_not_implemented(x):
    assert E0.__add__(x) is NotImplemented and E0.__sub__(x) is NotImplemented
    assert E0.__mul__(x) is NotImplemented
    for combine in (lambda: E0 + x, lambda: E0 - x, lambda: x + E0, lambda: E0 * x):
        with pytest.raises(TypeError):
            combine()


# -- the chamber realization ---------------------------------------------------------


def test_convolution_satisfies_quadratic_relation(tree_p2):
    """(f * e_s) * e_s = (q - 1)(f * e_s) + q f on chamber functions."""
    import random

    g = tree_p2
    q = Fraction(g.ctx.p)
    rng = random.Random(5)
    inner = [i for i in range(len(g)) if g.distance[i] <= 6]
    for trial in range(20):
        support = rng.sample(range(len(g)), k=rng.randint(1, 6))
        f = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in support}
        f = {i: v for i, v in f.items() if v}
        for s in (0, 1):
            once = convolve_chamber_function(f, s, g)
            twice = convolve_chamber_function(once, s, g)
            for i in inner:
                lhs = twice.get(i, Fraction(0))
                rhs = (q - 1) * once.get(i, Fraction(0)) + q * f.get(i, Fraction(0))
                assert lhs == rhs


def test_convolution_realizes_right_multiplication(tree_p2):
    """Cell indicators convolve exactly as the basis elements multiply."""
    g = tree_p2
    d = affine_diagram("A1~")
    q = Fraction(g.ctx.p)
    cells = defaultdict(list)
    for i in range(len(g)):
        w = element_from_word(d, list(g.weyl_word(i)))
        cells[w.matrix].append(i)
    inner = [i for i in range(len(g)) if g.distance[i] <= 6]
    for matrix in list(cells):
        w = GroupElement(matrix)
        if length(d, w) > 3:
            continue
        f = {i: Fraction(1) for i in cells[matrix]}
        e_w = basis_element(d, w, q)
        for s in (0, 1):
            conv = convolve_chamber_function(f, s, g)
            prod = multiply(e_w, basis_element(d, [s], q))
            expected: dict[int, Fraction] = defaultdict(Fraction)
            for v in prod.support:
                c = prod.coefficient(v)
                for i in cells[v.matrix]:
                    expected[i] += c
            for i in inner:
                assert conv.get(i, Fraction(0)) == expected.get(i, Fraction(0))


def _convolve_by_chamber(f, generator, graph):
    """f * e_s by its definition: at each chamber, find its face of the
    generator's type by label, then sum f over the other chambers of that
    face if the face is interior."""
    ctx = graph.ctx
    ftype = generator_face_types(ctx)[generator]
    out = {}
    for i, chamber in enumerate(graph.chambers):
        pos = next(k for k in range(ctx.n) if vertex_label(chamber.classes[k], ctx) == ftype)
        members = graph.faces[face_of(chamber, pos)]
        if len(members) == ctx.p + 1:
            out[i] = sum((f.get(j, Fraction(0)) for j in members if j != i), Fraction(0))
    return out


@pytest.mark.parametrize("fixture", ["gl3_p2", "tree_p2"])
def test_convolution_matches_per_chamber_definition(fixture, request):
    import random

    g = request.getfixturevalue(fixture)
    rng = random.Random(3)
    functions = [
        {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(len(g))},
        {i: Fraction(rng.randint(1, 9)) for i in rng.sample(range(len(g)), k=7)},
        {},
    ]
    for f in functions:
        for s in range(g.ctx.n):
            assert convolve_chamber_function(f, s, g) == _convolve_by_chamber(f, s, g)


@pytest.mark.parametrize("value", [0.1, 2.0, "1/2"], ids=repr)
def test_non_rational_q_and_scalars_rejected(value):
    d = affine_diagram("A1~")
    for name, build in (
        ("q", lambda: unit(d, value)),
        ("q", lambda: basis_element(d, [0], value)),
        ("q", lambda: HeckeElement(d, value, ())),
        ("scalar", lambda: value * unit(d, 2)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be int or Fraction, got {value!r}")):
            build()


@pytest.mark.parametrize("value", [0.5, 2.0, "1/2"], ids=repr)
def test_convolution_rejects_non_rational_values(tree_p2, value):
    with pytest.raises(ValueError, match=re.escape(f"values must be int or Fraction, got {value!r}")):
        convolve_chamber_function({0: Fraction(1), 1: value}, 1, tree_p2)


@pytest.mark.parametrize("generator", [5, 2, -1, 1.0])
def test_convolution_rejects_unknown_generator(tree_p2, generator):
    with pytest.raises(ValueError, match=rf"unknown generator {generator}: .* 0\.\.1"):
        convolve_chamber_function({0: Fraction(1)}, generator, tree_p2)


def test_harmonic_vector_is_sign_eigenvector(tree_p2):
    g = tree_p2
    vector = iwahori_vector(g.chambers[0], g.ctx.p)
    f = {i: vector.value_at_index(i, g) for i in range(len(g))}
    for s in (0, 1):
        conv = convolve_chamber_function(f, s, g)
        for i in range(len(g)):
            if g.distance[i] <= 6:
                assert conv[i] == -f[i]


@pytest.mark.parametrize("f", ["x", None, 5, [1, 2]], ids=repr)
def test_convolution_names_an_f_that_is_not_a_mapping(tree_p2, f):
    with pytest.raises(ValueError, match=re.escape(f"f must be a mapping of chamber indices, got {f!r}")):
        convolve_chamber_function(f, 0, tree_p2)


def test_convolution_refuses_a_value_that_is_not_a_ball():
    with pytest.raises(ValueError, match=re.escape("graph must be a BallGraph, got 'x'")):
        convolve_chamber_function({}, 0, "x")
