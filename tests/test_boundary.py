"""The tree at n = 2: cochains, integration, boundary values, ends."""

import random
import re
from fractions import Fraction

import pytest

import weylbuildings.boundary
from weylbuildings import (
    BoundaryFunction,
    PrimeContext,
    boundary_function_to_json,
    boundary_value,
    classes_adjacent,
    coboundary,
    end_chart,
    end_count,
    integrate,
    lattice_from_rows,
    lift,
    one_cochain_from_map,
    primitive_cochain,
    sphere_vertex_count,
    standard_lattice,
    vertex_neighbors,
    vertex_tree,
    zero_cochain_from_map,
)
from weylbuildings.building import _coordinates, _det, _val_int


@pytest.fixture(scope="module")
def ctx2():
    return PrimeContext(p=2, n=2)


@pytest.fixture(scope="module")
def ctx3():
    return PrimeContext(p=3, n=2)


# -- tree shape -----------------------------------------------------------------


def test_vertex_neighbors_count(ctx2, ctx3):
    assert len(vertex_neighbors(standard_lattice(ctx2), ctx2)) == 3
    assert len(vertex_neighbors(standard_lattice(ctx3), ctx3)) == 4


def test_sphere_counts(ctx2, ctx3):
    for ctx, p in ((ctx2, 2), (ctx3, 3)):
        for r in (1, 2, 3):
            tree = vertex_tree(ctx, standard_lattice(ctx), r)
            assert len(tree) == sphere_vertex_count(p, r)
            assert len(tree.ends()) == end_count(p, r)
    assert sphere_vertex_count(2, 2) == 10
    assert end_count(2, 2) == 6


def test_tree_has_no_cycles(ctx2):
    tree = vertex_tree(ctx2, standard_lattice(ctx2), 4)
    # in a tree, vertex count = edge count + 1; edges = parents
    edges = sum(1 for p in tree.parent if p is not None)
    assert len(tree) == edges + 1
    # and every non-root vertex has exactly p + 1 neighbors, one being its parent
    for i in range(1, len(tree)):
        nbs = vertex_neighbors(tree.vertices[i], ctx2)
        assert len(nbs) == 3
        assert tree.vertices[tree.parent[i]] in nbs


# -- integration ------------------------------------------------------------------


def test_integrate_coboundary_telescopes(ctx2):
    o = standard_lattice(ctx2)
    s = lattice_from_rows([[1, 0], [0, 4]], 2)
    f = zero_cochain_from_map({o: Fraction(3), s: Fraction(1, 2)})
    omega = coboundary(f, ctx2)
    mid = lattice_from_rows([[1, 0], [0, 2]], 2)
    path = [o, mid, s]
    assert integrate(omega, path, ctx2) == f.value(o) - f.value(s)


def test_integrate_needs_adjacent_steps(ctx2):
    o = standard_lattice(ctx2)
    far = lattice_from_rows([[1, 0], [0, 4]], 2)
    omega = one_cochain_from_map({})
    with pytest.raises(ValueError):
        integrate(omega, [o, far], ctx2)


def test_one_cochain_antisymmetry(ctx2):
    o = standard_lattice(ctx2)
    s = lattice_from_rows([[1, 0], [0, 2]], 2)
    omega = one_cochain_from_map({(o, s): Fraction(5)})
    assert omega.value(o, s) == 5
    assert omega.value(s, o) == -5
    with pytest.raises(ValueError):
        one_cochain_from_map({(o, s): Fraction(1), (s, o): Fraction(1)})
    # consistent double entry is fine
    omega = one_cochain_from_map({(o, s): Fraction(1), (s, o): Fraction(-1)})
    assert omega.value(o, s) == 1


# -- boundary values ----------------------------------------------------------------


def test_boundary_of_coboundary_is_constant(ctx2, ctx3):
    rng = random.Random(1)
    for ctx, depth in ((ctx2, 3), (ctx3, 2)):
        o = standard_lattice(ctx)
        tree = vertex_tree(ctx, o, depth - 1)
        for _ in range(25):
            picks = rng.sample(list(tree.vertices), k=rng.randint(1, min(4, len(tree))))
            f = zero_cochain_from_map(
                {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in picks}
            )
            omega = coboundary(f, ctx)
            g = boundary_value(omega, o, depth, ctx)
            assert g.constant_value() == f.value(o)


def test_boundary_value_charts_anchored(ctx2):
    o = standard_lattice(ctx2)
    f = zero_cochain_from_map({o: Fraction(1)})
    g = boundary_value(coboundary(f, ctx2), o, 1, ctx2)
    assert g.chart is not None
    assert sorted(c for c, _ in g.chart) == [(0, 1), (1, 0), (1, 1)]
    blob = boundary_function_to_json(g)
    assert len(blob) == 3
    assert all(rec["chart"] is not None for rec in blob)
    one = {"num": "1", "den": "1"}
    assert blob == [
        {"edge": [[[1, 0], [0, 1]], [[1, 0], [0, 2]]], "value": one, "chart": [1, 0]},
        {"edge": [[[1, 0], [0, 1]], [[1, 1], [0, 2]]], "value": one, "chart": [1, 1]},
        {"edge": [[[1, 0], [0, 1]], [[2, 0], [0, 1]]], "value": one, "chart": [0, 1]},
    ]


def test_boundary_function_json_literal(ctx2):
    o = standard_lattice(ctx2)
    a, b, _ = vertex_neighbors(o, ctx2)
    omega = one_cochain_from_map({(o, a): Fraction(3, 2), (b, o): Fraction(-5)})
    blob = boundary_function_to_json(boundary_value(omega, o, 1, ctx2))
    assert [rec["value"] for rec in blob] == [
        {"num": "3", "den": "2"},
        {"num": "5", "den": "1"},
        {"num": "0", "den": "1"},
    ]
    assert [rec["chart"] for rec in blob] == [[1, 0], [1, 1], [0, 1]]


def test_boundary_value_detects_non_coboundary(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 2)
    rim_edge = tree.ends()[0]
    omega = one_cochain_from_map({rim_edge: Fraction(1)})
    g = boundary_value(omega, o, 2, ctx2)
    assert g.constant_value() is None
    with pytest.raises(ValueError):
        primitive_cochain(omega, o, 2, ctx2)


def test_boundary_value_matches_path_integrals(ctx2, ctx3):
    # the one walk down the tree against integrate along each root-to-leaf path
    rng = random.Random(4)
    for ctx, o in ((ctx2, standard_lattice(ctx2)), (ctx3, lattice_from_rows([[1, 1], [0, 3]], 3))):
        tree = vertex_tree(ctx, o, 3)
        for _ in range(10):
            values = {}
            for i in rng.sample(range(1, len(tree)), k=8):
                edge = (tree.vertices[tree.parent[i]], tree.vertices[i])
                values[edge if rng.random() < 0.5 else edge[::-1]] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            omega = one_cochain_from_map(values)
            g = boundary_value(omega, o, 3, ctx)
            for (_, leaf), x in g.parts:
                path = [leaf]
                while path[-1] != o:
                    path.append(tree.vertices[tree.parent[tree.index[path[-1]]]])
                assert integrate(omega, path[::-1], ctx) == x


def test_boundary_value_ignores_non_adjacent_pairs(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 2)
    a, b, _ = (tree.vertices[i] for i in tree.shell(1))
    leaf = tree.vertices[tree.shell(2)[0]]
    omega = coboundary(zero_cochain_from_map({o: Fraction(2), a: Fraction(-1, 3)}), ctx2)
    before = boundary_value(omega, o, 2, ctx2)
    pairs = {(a, b): Fraction(7), (o, leaf): Fraction(-5, 2)}
    padded = one_cochain_from_map({**dict(omega.values), **pairs})
    assert padded != omega
    assert boundary_value(padded, o, 2, ctx2) == before
    outside = vertex_tree(ctx2, o, 3).vertices[-1]
    for pair in ((leaf, outside), (o, outside)):
        escaped = one_cochain_from_map({**dict(omega.values), pair: Fraction(1)})
        with pytest.raises(ValueError, match="escapes the sphere"):
            boundary_value(escaped, o, 2, ctx2)


def test_primitive_builds_one_vertex_tree(ctx2, monkeypatch):
    o = standard_lattice(ctx2)
    f = zero_cochain_from_map({o: Fraction(2), vertex_neighbors(o, ctx2)[1]: Fraction(-1, 3)})
    omega = coboundary(f, ctx2)
    calls = []

    def counted(*args):
        calls.append(args)
        return vertex_tree(*args)

    monkeypatch.setattr(weylbuildings.boundary, "vertex_tree", counted)
    assert primitive_cochain(omega, o, 2, ctx2) == f
    assert len(calls) == 1


def test_vertex_tree_is_built_once_and_read_only(ctx3):
    o = lattice_from_rows([[1, 2], [0, 3]], 3)
    tree = vertex_tree(ctx3, o, 2)
    assert vertex_tree(ctx3, o, 2) is tree
    assert vertex_tree(ctx3, o, 1) is not tree
    assert tree.index[o] == 0
    with pytest.raises(TypeError):
        tree.index[o] = 1
    with pytest.raises(AttributeError):
        tree.index.clear()


@pytest.mark.parametrize("radius", [2.0, "2"], ids=repr)
def test_vertex_tree_rejects_non_int_radius(ctx2, radius):
    o = standard_lattice(ctx2)
    with pytest.raises(ValueError, match=re.escape(f"radius must be an int, got {radius!r}")):
        vertex_tree(ctx2, o, radius)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        vertex_tree(ctx2, o, -1)


def test_primitive_recovers_original(ctx2, ctx3):
    rng = random.Random(2)
    for ctx, depth in ((ctx2, 3), (ctx3, 2)):
        o = standard_lattice(ctx)
        tree = vertex_tree(ctx, o, depth - 1)
        for _ in range(20):
            picks = rng.sample(list(tree.vertices), k=rng.randint(1, min(4, len(tree))))
            f = zero_cochain_from_map(
                {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in picks}
            )
            omega = coboundary(f, ctx)
            recovered = primitive_cochain(omega, o, depth, ctx)
            assert recovered == f
            assert coboundary(recovered, ctx) == omega


def test_lift_round_trip(ctx2, ctx3):
    rng = random.Random(3)
    for ctx in (ctx2, ctx3):
        o = standard_lattice(ctx)
        for depth in (1, 2, 3):
            tree = vertex_tree(ctx, o, depth)
            ends = tree.ends()
            values = {
                e: Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for e in ends
            }
            g = BoundaryFunction(depth=depth, parts=tuple(values.items()))
            omega = lift(g, o, ctx)
            back = boundary_value(omega, o, depth, ctx)
            assert back.parts == g.parts
            assert set(omega.support) <= {
                tuple(sorted(e, key=lambda v: v.hnf)) for e in ends
            }


def test_lift_requires_complete_parts(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 2)
    partial = dict(list({e: Fraction(1) for e in tree.ends()}.items())[:3])
    g = BoundaryFunction(depth=2, parts=tuple(partial.items()))
    with pytest.raises(ValueError):
        lift(g, o, ctx2)


def test_lift_round_trip_builds_no_new_vertex_tree(ctx3):
    # lift and boundary_value both read the tree already built for the ends
    cache = weylbuildings.boundary._vertex_tree
    o = lattice_from_rows([[1, 1], [0, 3]], 3)
    cache.cache_clear()
    ends = vertex_tree(ctx3, o, 2).ends()
    g = BoundaryFunction(depth=2, parts=tuple((e, Fraction(i, 5)) for i, e in enumerate(ends)))
    misses = cache.cache_info().misses
    omega = lift(g, o, ctx3)
    assert boundary_value(omega, o, 2, ctx3).parts == g.parts
    assert cache.cache_info().misses == misses


def _distance(origin, v, p):
    """Tree distance v_p(det X) - 2 min v_p(X), X the coordinates of v's
    rows over the origin's basis (the gap between the elementary divisors)."""
    rows = v.scaled_rows(p, origin.valuation)
    x = [_coordinates(origin.hnf, row) for row in rows]
    low = min(_val_int(c, p) for row in x for c in row if c)
    return _val_int(_det(x), p) - 2 * low


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rim_edges_are_the_outward_steps_to_depth_r(p):
    # the rim of the shared tree against the distance-and-adjacency predicate
    ctx = PrimeContext(p=p, n=2)
    for o in (standard_lattice(ctx), lattice_from_rows([[1, 1], [0, p]], p)):
        for r in (1, 2, 3):
            rim = set(vertex_tree(ctx, o, r).ends())
            wider = vertex_tree(ctx, o, r + 1)
            for i in range(1, len(wider)):
                edge = (wider.vertices[wider.parent[i]], wider.vertices[i])
                for t, s in (edge, edge[::-1]):
                    outward = (
                        _distance(o, t, p) == r - 1
                        and _distance(o, s, p) == r
                        and classes_adjacent(t, s, ctx)
                    )
                    assert ((t, s) in rim) == outward


@pytest.mark.parametrize("swap", ["inner edge", "reversed rim edge", "repeated rim edge"])
def test_lift_rejects_a_part_that_is_not_a_new_rim_edge(ctx2, swap):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 2)
    ends = list(tree.ends())
    first_ring = tree.vertices[tree.shell(1)[0]]
    replacement = {
        "inner edge": (o, first_ring),
        "reversed rim edge": ends[0][::-1],
        "repeated rim edge": ends[1],
    }[swap]
    parts = [(replacement, Fraction(1))] + [(e, Fraction(1)) for e in ends[1:]]
    assert len(parts) == end_count(2, 2)
    with pytest.raises(ValueError):
        lift(BoundaryFunction(depth=2, parts=tuple(parts)), o, ctx2)


# -- end charts -----------------------------------------------------------------------


def test_end_charts_partition(ctx2, ctx3):
    for ctx, p in ((ctx2, 2), (ctx3, 3)):
        o = standard_lattice(ctx)
        for r in (1, 2, 3):
            tree = vertex_tree(ctx, o, r)
            charts = [end_chart(e, ctx) for e in tree.ends()]
            assert len(set(charts)) == len(charts) == end_count(p, r)
            for x, y in charts:
                assert (x == 1 and 0 <= y < p**r) or (
                    y == 1 and x % p == 0 and 0 <= x < p**r
                )


def test_end_chart_frozen_depth_one(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 1)
    charts = sorted(end_chart(e, ctx2) for e in tree.ends())
    assert charts == [(0, 1), (1, 0), (1, 1)]


def test_end_chart_rejects_inward_edge(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 1)
    parent, leaf = tree.ends()[0]
    with pytest.raises(ValueError):
        end_chart((leaf, parent), ctx2)


def test_boundary_value_charts_are_the_end_charts(ctx2, ctx3):
    rng = random.Random(5)
    for ctx in (ctx2, ctx3):
        o = standard_lattice(ctx)
        for r in (1, 2, 3):
            ends = vertex_tree(ctx, o, r).ends()
            values = tuple((e, Fraction(rng.randint(-5, 5))) for e in ends)
            g = boundary_value(lift(BoundaryFunction(depth=r, parts=values), o, ctx), o, r, ctx)
            assert g.chart == tuple((end_chart(e, ctx), x) for e, x in g.parts)


# -- input checks ---------------------------------------------------------------------


@pytest.mark.parametrize("value", [0.5, "1/2", None], ids=repr)
def test_boundary_function_rejects_non_rational_values(ctx2, value):
    (edge,) = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()[:1]
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        BoundaryFunction(depth=1, parts=((edge, value),))


def test_boundary_function_values_become_fractions(ctx2):
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()
    g = BoundaryFunction(depth=1, parts=tuple((e, 1) for e in ends))
    assert type(g.constant_value()) is Fraction
    assert [rec["value"] for rec in boundary_function_to_json(g)] == [{"num": "1", "den": "1"}] * 3


@pytest.mark.parametrize("depth", [2.0, "2", Fraction(2)], ids=repr)
def test_boundary_function_rejects_non_int_depth(ctx2, depth):
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 2).ends()
    with pytest.raises(ValueError, match=re.escape(f"depth must be an int, got {depth!r}")):
        BoundaryFunction(depth=depth, parts=tuple((e, Fraction(1)) for e in ends))


@pytest.mark.parametrize("count", [end_count, sphere_vertex_count])
def test_closed_form_counts_reject_bad_arguments(count):
    for p, r, name in ((2, 2.0, "r"), (2.0, 2, "p"), ("3", 1, "p"), (2, Fraction(1), "r")):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int")):
            count(p, r)
    with pytest.raises(ValueError, match="r must be nonnegative, got -1"):
        count(2, -1)
    with pytest.raises(ValueError, match="p must be at least 2"):
        count(1, 2)
    assert sphere_vertex_count(3, 0) == 1


def test_boundary_refuses_a_vertex_of_the_wrong_size(ctx2):
    o = standard_lattice(ctx2)
    big = standard_lattice(PrimeContext(p=2, n=3))
    ends = vertex_tree(ctx2, o, 1).ends()
    g = BoundaryFunction(depth=1, parts=tuple((e, Fraction(1)) for e in ends))
    omega = lift(g, o, ctx2)
    calls = (
        lambda: vertex_neighbors(big, ctx2),
        lambda: vertex_tree(ctx2, big, 1),
        lambda: lift(g, big, ctx2),
        lambda: boundary_value(omega, big, 1, ctx2),
        lambda: primitive_cochain(omega, big, 1, ctx2),
        lambda: end_chart((o, big), ctx2),
        lambda: integrate(omega, [o, big], ctx2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="2x2 class, got 3x3"):
            call()
