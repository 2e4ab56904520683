"""Lattice classes, chambers, the group action, and enumerated balls."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylbuildings.building as building
from weylbuildings import (
    Face,
    PrecisionError,
    PrimeContext,
    act,
    affine_diagram,
    affine_generator_matrix,
    ball,
    ball_to_json,
    bfs_growth,
    chambers_containing,
    classes_adjacent,
    element_from_word,
    epsilon,
    epsilon_from_determinant,
    epsilon_from_labels,
    face_of,
    face_type,
    generator_face_types,
    label_shift_matrix,
    lattice_from_rows,
    length,
    make_chamber,
    standard_chamber,
    standard_lattice,
    vertex_label,
    weyl_to_chamber,
)

# -- canonical forms -------------------------------------------------------------


def test_canonical_form_is_primitive_not_diagonal():
    # the minimal valuation over all entries is zero, even when every
    # diagonal entry is divisible by p
    cls = lattice_from_rows([[2, 1], [0, 2]], 2)
    assert cls.hnf == ((2, 1), (0, 2))
    assert any(v % 2 for row in cls.hnf for v in row)


def test_canonical_form_scales_away_common_power():
    assert lattice_from_rows([[2, 0], [0, 2]], 2) == standard_lattice(
        PrimeContext(p=2, n=2, precision=4)
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


def test_canonical_form_overdetermined_rows():
    p = 2
    a = lattice_from_rows([[1, 0], [0, 2], [1, 2]], p)
    b = lattice_from_rows([[1, 0], [0, 2]], p)
    assert a == b
    with pytest.raises(ValueError):
        lattice_from_rows([[1, 2], [2, 4]], p)  # rank deficient
    with pytest.raises(ValueError):
        lattice_from_rows([[1, 2]], p)  # too few rows


@pytest.mark.parametrize("rows", [[], [[]], [[], []]], ids=repr)
def test_empty_rows_rejected(rows):
    with pytest.raises(ValueError, match="need at least n rows of length n"):
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


# -- labels and adjacency ----------------------------------------------------------


def test_vertex_labels():
    ctx = PrimeContext(p=2, n=2, precision=6)
    assert vertex_label(standard_lattice(ctx), ctx) == 0
    assert vertex_label(lattice_from_rows([[1, 0], [0, 2]], 2), ctx) == 1
    ctx3 = PrimeContext(p=2, n=3, precision=6)
    assert vertex_label(lattice_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2), ctx3) == 1
    assert vertex_label(lattice_from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]], 2), ctx3) == 2


def test_adjacency_tree():
    ctx = PrimeContext(p=2, n=2, precision=6)
    o = standard_lattice(ctx)
    near = lattice_from_rows([[1, 0], [0, 2]], 2)
    far = lattice_from_rows([[1, 0], [0, 4]], 2)
    assert classes_adjacent(o, near, ctx)
    assert classes_adjacent(near, o, ctx)
    assert not classes_adjacent(o, far, ctx)
    assert not classes_adjacent(o, o, ctx)
    assert classes_adjacent(near, far, ctx)


def test_chambers_containing_vertex_tree():
    ctx = PrimeContext(p=3, n=2, precision=6)
    o = standard_lattice(ctx)
    stars = chambers_containing(Face((o,)), ctx)
    assert len(stars) == 4  # p + 1
    for chamber in stars:
        assert o in chamber.classes


def test_chambers_containing_edge_gl3():
    ctx = PrimeContext(p=2, n=3, precision=6)
    chamber = standard_chamber(ctx)
    for pos in range(3):
        face = face_of(chamber, pos)
        star = chambers_containing(face, ctx)
        assert len(star) == 3  # p + 1
        assert chamber in star
        for other in star:
            for cls in face.classes:
                assert cls in other.classes


def test_face_types_partition():
    ctx = PrimeContext(p=2, n=3, precision=6)
    chamber = standard_chamber(ctx)
    types = sorted(face_type(face_of(chamber, pos), ctx) for pos in range(3))
    assert types == [0, 1, 2]


# -- the group action ---------------------------------------------------------------


def test_action_identity_and_scalars():
    ctx = PrimeContext(p=2, n=2, precision=8)
    chamber = standard_chamber(ctx)
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert act(ident, chamber, ctx) == chamber
    scalar = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert act(scalar, chamber, ctx) == chamber
    half = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    assert act(half, chamber, ctx) == chamber


def test_label_shift_stabilizes_standard_chamber():
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n, precision=8)
        pi = label_shift_matrix(ctx)
        chamber = standard_chamber(ctx)
        assert act(pi, chamber, ctx) == chamber
        # but it rotates the labels of the individual vertices
        o = standard_lattice(ctx)
        image = act(pi, o, ctx)
        assert vertex_label(image, ctx) == 1 % n


def test_action_precision_gate():
    ctx = PrimeContext(p=2, n=2, precision=2)
    chamber = standard_chamber(ctx)
    huge = [[Fraction(1, 2**5), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(PrecisionError):
        act(huge, chamber, ctx)


# -- the sign character --------------------------------------------------------------


def test_epsilon_frozen_values():
    ctx = PrimeContext(p=2, n=2, precision=8)
    f = Fraction
    assert epsilon([[f(1), f(0)], [f(0), f(1)]], ctx) == 1
    assert epsilon([[f(2), f(0)], [f(0), f(1)]], ctx) == -1
    assert epsilon([[f(2), f(0)], [f(0), f(2)]], ctx) == 1
    assert epsilon([[f(0), f(1)], [f(1), f(0)]], ctx) == 1  # unit determinant
    ctx3 = PrimeContext(p=2, n=3, precision=8)
    assert epsilon([[f(2), f(0), f(0)], [f(0), f(1), f(0)], [f(0), f(0), f(1)]], ctx3) == 1
    assert (
        epsilon([[f(2), f(0), f(0)], [f(0), f(2), f(0)], [f(0), f(0), f(1)]], ctx3) == 1
    )


def test_epsilon_rejects_entries_with_foreign_denominators():
    # det = 1 passes the determinant check, but entries must have p-power denominators
    ctx = PrimeContext(p=2, n=2, precision=8)
    m = [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(3)]]
    for route in (epsilon_from_determinant, epsilon_from_labels, epsilon):
        with pytest.raises(ValueError, match="denominators must be powers of p"):
            route(m, ctx)


def test_epsilon_routes_agree_and_multiply():
    import random

    rng = random.Random(11)
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n, precision=16)
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
        ctx = PrimeContext(p=2, n=n, precision=6)
        mapping = generator_face_types(ctx)
        assert sorted(mapping) == list(range(n))
        assert sorted(mapping.values()) == list(range(n))


def test_generator_matrices_are_involutions():
    for n in (2, 3):
        ctx = PrimeContext(p=3, n=n, precision=8)
        chamber = standard_chamber(ctx)
        for i in range(n):
            m = affine_generator_matrix(ctx, i)
            moved = act(m, chamber, ctx)
            assert moved != chamber
            assert act(m, moved, ctx) == chamber


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_affine_generator_is_conjugate_by_label_shift(n, p):
    ctx = PrimeContext(p=p, n=n, precision=6)
    shift = label_shift_matrix(ctx)
    s0, s1 = affine_generator_matrix(ctx, 0), affine_generator_matrix(ctx, 1)
    assert _matmul(s0, shift) == _matmul(shift, s1)


def test_ball_precision_gate():
    ctx = PrimeContext(p=2, n=2, precision=3)
    with pytest.raises(PrecisionError):
        ball(ctx, 4)


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
            assert [ftype, i] in adjacency[j]


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
    ctx = PrimeContext(p=p, n=n, precision=radius + n + 1)
    text = json.dumps(ball_to_json(ball(ctx, radius)), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_make_chamber_validation():
    ctx = PrimeContext(p=2, n=2, precision=6)
    o = standard_lattice(ctx)
    near = lattice_from_rows([[1, 0], [0, 2]], 2)
    far = lattice_from_rows([[1, 0], [0, 4]], 2)
    assert make_chamber((o, near), ctx) == make_chamber((near, o), ctx)
    with pytest.raises(ValueError):
        make_chamber((o, far), ctx)
    with pytest.raises(ValueError):
        make_chamber((o, o), ctx)


# -- what chambers_containing builds without re-validating ------------------------------


@pytest.mark.parametrize("n, p, radius", [(2, 3, 4), (2, 5, 3), (3, 2, 3), (3, 3, 2)])
def test_constructed_flags_pass_the_full_checks(n, p, radius):
    # chambers_containing skips make_chamber and the minor bound; every flag
    # it builds, inside the ball and one step beyond, must still pass them
    ctx = PrimeContext(p=p, n=n, precision=radius + n + 1)
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


@pytest.mark.parametrize("n", [2, 3])
def test_insertion_inside_the_inner_lattice_fails_the_valuation_check(n, monkeypatch, capsys):
    # a "line" taken from the inner lattice adds nothing, so the sum keeps
    # the inner valuation instead of dropping it by one
    def inner_lines(outer_rows, inner_rows, p):
        return list(inner_rows[0]), list(inner_rows[1])

    monkeypatch.setattr(building, "_quotient_basis", inner_lines)
    ctx = PrimeContext(p=3, n=n, precision=6)
    with pytest.raises(AssertionError, match="expected valuation"):
        chambers_containing(face_of(standard_chamber(ctx), 0), ctx)
    from weylbuildings.cli import main

    assert main(["ball", "--n", str(n), "--p", "3", "--R", "2"]) == 1
    assert "expected valuation" in capsys.readouterr().err


def test_generator_face_types_computed_once_per_context(tree_p2, monkeypatch):
    calls = []
    real_act = building.act

    def counting_act(g, x, ctx):
        if isinstance(x, building.FlagChamber):
            calls.append(ctx)
        return real_act(g, x, ctx)

    monkeypatch.setattr(building, "act", counting_act)
    building._generator_face_types.cache_clear()
    words = [tree_p2.weyl_word(i) for i in range(len(tree_p2))]
    assert len(calls) == tree_p2.ctx.n  # one image of the base chamber per generator
    assert {words[i] for i in tree_p2.shell(1)} == {(0,), (1,)}
    mapping = generator_face_types(tree_p2.ctx)
    mapping.clear()  # callers get their own dict
    assert sorted(generator_face_types(tree_p2.ctx)) == [0, 1]
    assert len(calls) == tree_p2.ctx.n
