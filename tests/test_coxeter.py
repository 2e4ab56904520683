"""Coxeter diagrams, the reflection representation, and word-metric growth.

Growth tables are cross-checked against two independent oracles that never
touch the reflection representation: the affine-permutation (window) model
for the cyclic types, and exact affine-isometry models of the plane for the
two exceptional rank-2 types.  A third oracle, a breadth-first search of the
reflection matrices themselves, checks lengths, reduced words and growth of
every family against the descent arithmetic.
"""

import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbuildings import (
    INFINITE_ORDER,
    GroupElement,
    affine_diagram,
    bfs_growth,
    element_from_word,
    exponents_for,
    generator_matrices,
    identity_element,
    lambda_closed,
    length,
    parse_type_label,
    reduced_word,
)

# -- frozen growth tables ------------------------------------------------------

FROZEN_COUNTS = {
    "A1~": (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    "A2~": (1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30),
    "A3~": (1, 4, 10, 20, 34, 52, 74, 100, 130, 164, 202),
    "C2~": (1, 3, 5, 8, 11, 13, 16, 19, 21, 24, 27),
    "G2~": (1, 3, 5, 7, 9, 12, 15, 17, 19, 21, 24),
}


@pytest.mark.parametrize("label", sorted(FROZEN_COUNTS))
def test_growth_frozen(label):
    counts = bfs_growth(affine_diagram(label), 10).counts
    assert counts == FROZEN_COUNTS[label]


# -- oracle 1: affine permutations in window notation -------------------------


def _affine_permutation_counts(n: int, depth: int) -> tuple[int, ...]:
    """Growth of the rank n - 1 cyclic type via the window model.

    Elements are bijections w of the integers with w(i + n) = w(i) + n and
    normalized value sum, stored as the window (w(1), ..., w(n)).  Right
    multiplication by the swap generators and the wrap-around generator
    never touches any matrix.
    """
    ident = tuple(range(1, n + 1))

    def step(w: tuple[int, ...], i: int) -> tuple[int, ...]:
        if i == 0:
            return (w[-1] - n,) + w[1:-1] + (w[0] + n,)
        out = list(w)
        out[i - 1], out[i] = out[i], out[i - 1]
        return tuple(out)

    seen = {ident}
    frontier = [ident]
    counts = [1]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for i in range(n):
                u = step(w, i)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        counts.append(len(nxt))
        frontier = nxt
    return tuple(counts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_growth_matches_window_model(n):
    depth = 8
    expected = _affine_permutation_counts(n, depth)
    assert bfs_growth(affine_diagram(f"A{n - 1}~"), depth).counts == expected


# -- oracle 2: exact affine isometries of the plane ---------------------------


def _isometry_counts(generators, depth: int) -> tuple[int, ...]:
    """BFS growth for affine maps x -> Ax + b composed exactly."""

    def compose(f, g):  # f after g
        fa, fb = f
        ga, gb = g
        size = len(fa)
        mat = tuple(
            tuple(sum(fa[i][k] * ga[k][j] for k in range(size)) for j in range(size))
            for i in range(size)
        )
        off = tuple(
            sum(fa[i][k] * gb[k] for k in range(size)) + fb[i] for i in range(size)
        )
        return (mat, off)

    size = len(generators[0][0])
    ident = (
        tuple(tuple(int(i == j) for j in range(size)) for i in range(size)),
        tuple(0 for _ in range(size)),
    )
    seen = {ident}
    frontier = [ident]
    counts = [1]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for g in generators:
                u = compose(w, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        counts.append(len(nxt))
        frontier = nxt
    return tuple(counts)


def test_c2_growth_matches_plane_isometries():
    # reflections bounding the alcove of the rank-2 type with two double bonds:
    # coordinate swap, sign flip of x2, and the affine flip x1 -> 1 - x1
    s1 = (((0, 1), (1, 0)), (0, 0))
    s2 = (((1, 0), (0, -1)), (0, 0))
    s0 = (((-1, 0), (0, 1)), (1, 0))
    expected = _isometry_counts([s0, s1, s2], 8)
    assert bfs_growth(affine_diagram("C2~"), 8).counts == expected


def test_g2_growth_matches_plane_isometries():
    # the hexagonal type, realized on the sum-zero plane of 3-space with
    # exact rational offsets; theta = (-1, -1, 2) is the highest root
    F = Fraction
    s1 = (
        ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))),
        (F(0), F(0), F(0)),
    )
    s2 = (
        ((F(-1), F(0), F(0)), (F(1), F(1), F(0)), (F(1), F(0), F(1))),
        (F(0), F(0), F(0)),
    )
    s0 = (
        ((F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(0), F(0), F(-1))),
        (F(-1, 3), F(-1, 3), F(2, 3)),
    )
    expected = _isometry_counts([s0, s1, s2], 8)
    assert bfs_growth(affine_diagram("G2~"), 8).counts == expected


# -- oracle 3: breadth-first search of the reflection matrices ---------------


def _matrix_bfs(diagram, depth: int) -> dict:
    """Matrix -> reduced word, from a Cayley-graph BFS that right multiplies
    by the generators in diagram order; the first parent found gives the word."""
    columns = [list(zip(*g)) for g in generator_matrices(diagram)]
    ident = identity_element(diagram).matrix
    words = {ident: ()}
    frontier = [ident]
    for _ in range(depth):
        nxt = []
        for m in frontier:
            for letter, cols in zip(diagram.generators, columns):
                prod = tuple(tuple(sum(a * b for a, b in zip(row, c)) for c in cols) for row in m)
                if prod not in words:
                    words[prod] = words[m] + (letter,)
                    nxt.append(prod)
        frontier = nxt
    return words


ORACLE_DEPTH = {
    "A1~": 20, "A2~": 8, "A3~": 7, "A4~": 6, "B3~": 6, "B4~": 5, "C2~": 9, "C3~": 6,
    "D4~": 5, "D5~": 5, "E6~": 4, "E7~": 4, "E8~": 4, "F4~": 5, "G2~": 9,
}


@pytest.mark.parametrize("label", sorted(ORACLE_DEPTH))
def test_descents_match_matrix_bfs(label):
    d = affine_diagram(label)
    depth = ORACLE_DEPTH[label]
    counts = [0] * (depth + 1)
    for matrix, word in _matrix_bfs(d, depth).items():
        counts[len(word)] += 1
        w = GroupElement(matrix)
        assert length(d, w) == len(word)
        assert reduced_word(d, w) == word
    assert bfs_growth(d, depth).counts == tuple(counts)


# -- labels and diagrams -------------------------------------------------------

def test_label_parsing_and_rank_windows():
    assert str(parse_type_label("A2~")) == "A2~"
    assert parse_type_label("E8~").rank == 8
    for bad in ("Z9~", "A0~", "B1~", "D3~", "E9~", "F5~", "G3~", "A2", ""):
        with pytest.raises(ValueError):
            parse_type_label(bad)


def test_parsed_label_passes_through():
    label = parse_type_label("C3~")
    assert parse_type_label(label) is label
    assert affine_diagram(label) == affine_diagram("C3~")
    assert exponents_for(label) == exponents_for("C3~")
    assert lambda_closed(label, 3) == lambda_closed("C3~", 3)


def test_affine_diagram_shapes():
    d = affine_diagram("A2~")
    assert d.size == 3
    assert d.order(0, 1) == d.order(1, 2) == d.order(0, 2) == 3
    d = affine_diagram("A1~")
    assert d.order(0, 1) == INFINITE_ORDER
    d = affine_diagram("C2~")
    assert sorted(d.order(s, t) for s in (0, 1, 2) for t in (0, 1, 2) if s < t) == [2, 4, 4]
    d = affine_diagram("G2~")
    assert sorted(d.order(s, t) for s in (0, 1, 2) for t in (0, 1, 2) if s < t) == [2, 3, 6]
    b3 = affine_diagram("B3~")
    c3 = affine_diagram("C3~")
    assert b3.orders != c3.orders  # fork versus chain
    assert bfs_growth(b3, 6).counts == bfs_growth(c3, 6).counts  # same sizes anyway


def test_generator_involutions_and_braid_orders():
    d = affine_diagram("A2~")
    ident = identity_element(d)
    for s in d.generators:
        g = element_from_word(d, [s])
        assert element_from_word(d, [s, s]) == ident
        assert g != ident
    # the product of two distinct generators has the diagram order (here 3)
    assert element_from_word(d, [0, 1] * 3) == ident
    assert element_from_word(d, [0, 1]) != ident
    assert element_from_word(d, [0, 1, 0, 1]) != ident


@pytest.mark.parametrize("letter", [1.0, "1", None, -1, 3], ids=repr)
def test_generators_are_indices(letter):
    d = affine_diagram("A2~")
    assert d.generators == range(3)
    assert reduced_word(d, element_from_word(d, [2, 1])) == (2, 1)
    message = re.escape(f"unknown generator {letter!r}")
    with pytest.raises(ValueError, match=message):
        element_from_word(d, [0, letter])
    with pytest.raises(ValueError, match=message):
        d.order(0, letter)
    with pytest.raises(ValueError, match=message):
        d.order(letter, 0)


def test_infinite_order_in_rank_one():
    d = affine_diagram("A1~")
    ident = identity_element(d)
    for k in range(1, 30):
        assert element_from_word(d, [0, 1] * k) != ident


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=8))
def test_reduced_word_round_trip(word):
    d = affine_diagram("A2~")
    w = element_from_word(d, word)
    ell = length(d, w)
    assert ell <= len(word)
    assert (ell - len(word)) % 2 == 0
    rw = reduced_word(d, w)
    assert len(rw) == ell
    assert element_from_word(d, list(rw)) == w


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=6),
    st.integers(min_value=0, max_value=2),
)
def test_length_changes_by_one(word, s):
    d = affine_diagram("A2~")
    w = element_from_word(d, word)
    ws = element_from_word(d, word + [s])
    assert abs(length(d, w) - length(d, ws)) == 1


def test_growth_table_validation():
    with pytest.raises(ValueError):
        bfs_growth(affine_diagram("A1~"), -1)


@pytest.mark.parametrize("cutoff", [2.0, "2", None], ids=repr)
def test_growth_rejects_non_int_cutoff(cutoff):
    with pytest.raises(ValueError, match=re.escape(f"got {cutoff!r}")):
        bfs_growth(affine_diagram("A1~"), cutoff)


def test_length_and_word_beyond_64():
    d = affine_diagram("A1~")
    word = (1, 0) * 100
    w = element_from_word(d, word)
    assert length(d, w) == 200
    assert reduced_word(d, w) == word


def _perturbed_a2():
    # one row of a length-4 element moved by +1 and -1: it still fixes
    # delta = (1, 1, 1), so only the end of the descent peel can reject it
    rows = [list(r) for r in element_from_word(affine_diagram("A2~"), [0, 1, 2, 0]).matrix]
    rows[0][1] += 1
    rows[0][2] -= 1
    return tuple(tuple(r) for r in rows)


NON_MEMBERS = {
    "minus-identity-A1~": ("A1~", ((-1, 0), (0, -1))),
    "minus-identity-A3~": ("A3~", tuple(tuple(-int(i == j) for j in range(4)) for i in range(4))),
    "diagram-swap-A1~": ("A1~", ((0, 1), (1, 0))),
    "perturbed-A2~": ("A2~", _perturbed_a2()),
}


@pytest.mark.parametrize("case", sorted(NON_MEMBERS))
def test_non_members_rejected_quickly(case):
    label, matrix = NON_MEMBERS[case]
    d = affine_diagram(label)
    for fn in (length, reduced_word):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="not an element of the group") as exc:
            fn(d, GroupElement(matrix))
        assert time.perf_counter() - t0 < 1
        assert repr(matrix) in str(exc.value)
