"""The finite-map contract shared by every sparse exact function.

Chamber cochains in map form, vertex and edge cochains on the tree and
Hecke elements all store a finitely supported map to Fraction; each owner
must drop zeros, reject duplicate keys, ignore input order and read a
missing key as 0.
"""

import pickle
from fractions import Fraction

import pytest

from weylbuildings import (
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

CTX = PrimeContext(p=2, n=2, precision=8)


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


def test_pickle_round_trip(owner):
    build, read, _, keys = owner
    f = build([(k, Fraction(-i, 2)) for i, k in enumerate(keys)])
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    assert [read(g, k) for k in keys] == [read(f, k) for k in keys]


def test_one_cochain_rejects_conflicting_orientations():
    build, read, _, edges = _one_cochain()
    s, t = edges[0]
    assert read(build([((s, t), 2), ((t, s), -2)]), (t, s)) == -2
    with pytest.raises(ValueError, match="conflicting"):
        build([((s, t), 2), ((t, s), 2)])
