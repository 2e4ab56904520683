"""The shared exact layer: the finite-map contract and the row reduction.

Chamber cochains in map form, vertex and edge cochains on the tree and
Hecke elements all store a finitely supported map to Fraction; each owner
must drop zeros, reject duplicate keys, ignore input order and read a
missing key as 0.  ``row_reduce`` must give the reduced echelon form that
dense Gauss-Jordan elimination gives over Q.
"""

import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbuildings import (
    BoundaryFunction,
    Cochain,
    HeckeElement,
    OneCochain,
    PrimeContext,
    ZeroCochain,
    affine_diagram,
    ball,
    element_from_word,
    standard_lattice,
    vertex_neighbors,
    vertex_tree,
)
from weylbuildings.coxeter import row_reduce

CTX = PrimeContext(p=2, n=2)


def _cochain():
    graph = ball(CTX, 2)
    return (
        lambda pairs: Cochain(values=tuple(pairs)),
        lambda f, chamber: f.value(chamber, graph),
        lambda f: f.values,
        graph.chambers[:4],
    )


def _zero_cochain():
    tree = vertex_tree(CTX, standard_lattice(CTX), 2)
    return (
        lambda pairs: ZeroCochain(tuple(pairs)),
        lambda f, v: f.value(v),
        lambda f: f.values,
        tree.vertices[:4],
    )


def _one_cochain():
    o = standard_lattice(CTX)
    a = vertex_neighbors(o, CTX)[0]
    b = next(t for t in vertex_neighbors(a, CTX) if t != o)
    edges = [(o, t) for t in vertex_neighbors(o, CTX)] + [(b, a)]
    return (
        lambda pairs: OneCochain(tuple(pairs)),
        lambda f, e: f.value(*e),
        lambda f: f.values,
        edges,
    )


def _hecke_element():
    d = affine_diagram("A2~")
    words = ([], [0], [0, 1], [2, 1, 0])
    return (
        lambda pairs: HeckeElement(d, Fraction(3), tuple(pairs)),
        lambda x, w: x.coefficient(w),
        lambda x: x.terms,
        [element_from_word(d, w) for w in words],
    )


OWNERS = {
    "Cochain": _cochain,
    "ZeroCochain": _zero_cochain,
    "OneCochain": _one_cochain,
    "HeckeElement": _hecke_element,
}


@pytest.fixture(params=sorted(OWNERS))
def owner(request):
    return OWNERS[request.param]()


def test_equality_ignores_input_order(owner):
    build, _, _, keys = owner
    pairs = [(k, Fraction(i + 1, 3)) for i, k in enumerate(keys)]
    forward, backward = build(pairs), build(reversed(pairs))
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert forward != build(pairs[:-1])


def test_zero_entries_are_dropped(owner):
    build, read, stored, keys = owner
    first, *rest = keys
    f = build([(first, 0)] + [(k, 2) for k in rest])
    assert f == build([(k, 2) for k in rest])
    assert len(stored(f)) == len(rest)
    assert all(x != 0 for _, x in stored(f))
    assert read(f, first) == 0


def test_duplicate_keys_raise(owner):
    build, _, _, keys = owner
    with pytest.raises(ValueError):
        build([(keys[0], 1), (keys[1], 2), (keys[0], 3)])


def test_missing_key_reads_zero(owner):
    build, read, _, keys = owner
    f = build([(keys[0], Fraction(5, 7))])
    assert read(f, keys[0]) == Fraction(5, 7)
    assert all(read(f, k) == 0 and isinstance(read(f, k), Fraction) for k in keys[1:])


@pytest.mark.parametrize(
    "build, name, given",
    [
        (lambda x: HeckeElement(affine_diagram("A2~"), 2, x), "terms", "x"),
        (lambda x: HeckeElement(affine_diagram("A2~"), 2, x), "terms", [[1]]),
        (lambda x: Cochain(values=x), "values", [1]),
        (lambda x: ZeroCochain(x), "values", [1]),
        (lambda x: OneCochain(x), "values", [1]),
        (lambda x: OneCochain(x), "values", 5),
        (lambda x: BoundaryFunction(1, x), "parts", [1]),
        (lambda x: BoundaryFunction(1, x), "parts", None),
        (lambda x: BoundaryFunction(1, x), "parts", 5),
    ],
    ids=["hecke-str", "hecke-short-item", "cochain", "zero-cochain", "one-cochain-int-item",
         "one-cochain-int", "boundary-function-int-item", "boundary-function-none",
         "boundary-function-int"],
)
def test_items_that_are_not_pairs_are_named(build, name, given):
    # one ValueError naming the owner's field, where "not enough values to
    # unpack" or a TypeError came before
    with pytest.raises(ValueError, match=re.escape(f"{name} must be (element, coefficient) pairs, got {given!r}")):
        build(given)


def test_pickle_round_trip(owner):
    build, read, _, keys = owner
    f = build([(k, Fraction(-i, 2)) for i, k in enumerate(keys)])
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    assert [read(g, k) for k in keys] == [read(f, k) for k in keys]


@pytest.mark.parametrize("value", [0.1, 2.0, "1/2"], ids=repr)
def test_non_rational_values_rejected(owner, value):
    # a float or a string converts to a Fraction, but not to the value meant
    build, _, _, keys = owner
    with pytest.raises(ValueError, match=re.escape(f"values must be int or Fraction, got {value!r}")):
        build([(keys[0], 1), (keys[1], value)])


def test_one_cochain_rejects_conflicting_orientations():
    build, read, _, edges = _one_cochain()
    s, t = edges[0]
    assert read(build([((s, t), 2), ((t, s), -2)]), (t, s)) == -2
    with pytest.raises(ValueError, match="conflicting"):
        build([((s, t), 2), ((t, s), 2)])


# -- row reduction -----------------------------------------------------------------


def _dense_rref(matrix, ncols):
    """Column-by-column Gauss-Jordan on dense rows, kept as the reference:
    {pivot column: reduced dense row}."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return {col: rows[i] for i, col in enumerate(pivots)}


@st.composite
def _small_fractions(draw):
    """Fraction(k, d) with d in 1..4 and |k| <= 3 d: the values of
    st.fractions(-3, 3, max_denominator=4), drawn at about half its cost."""
    d = draw(st.integers(1, 4))
    return Fraction(draw(st.integers(-3 * d, 3 * d)), d)


@st.composite
def _matrices(draw):
    """(column count, rows) over Q: up to 8 x 8, zero rows and dependent
    rows included."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), _small_fractions())
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    if rows:
        weights = st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows))
        for ws in draw(st.lists(weights, max_size=8 - len(rows))):
            rows.append([sum(w * r[j] for w, r in zip(ws, rows)) for j in range(ncols)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_row_reduce_matches_dense_gauss_jordan(case):
    ncols, matrix = case
    # sparse rows; zeros at odd columns are stored, which must not matter
    sparse = [{j: x for j, x in enumerate(row) if x or j % 2} for row in matrix]
    reduced = row_reduce(sparse)
    expected = _dense_rref(matrix, ncols)
    assert list(reduced) == list(expected)
    for col, row in expected.items():
        assert reduced[col] == {j: x for j, x in enumerate(row) if x}
    assert row_reduce(reversed(sparse)) == reduced
    for free in (c for c in range(ncols) if c not in reduced):
        v = [int(c == free) for c in range(ncols)]
        for col, row in reduced.items():
            v[col] = -row.get(free, 0)
        for row in matrix:
            assert sum(x * y for x, y in zip(row, v)) == 0


def test_row_reduce_values_are_canonical():
    reduced = row_reduce([{0: 2, 1: 4, 2: 0}, {0: 1, 1: 2, 2: 1}])
    assert reduced == {0: {0: 1, 1: 2}, 2: {2: 1}}
    assert all(isinstance(x, Fraction) for row in reduced.values() for x in row.values())
    assert row_reduce([{}, {3: 0}]) == {}
