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


def test_lift_builds_no_vertex_tree(ctx3, monkeypatch):
    o = lattice_from_rows([[1, 1], [0, 3]], 3)
    ends = vertex_tree(ctx3, o, 2).ends()
    g = BoundaryFunction(depth=2, parts=tuple((e, Fraction(i, 5)) for i, e in enumerate(ends)))
    calls = []

    def counted(*args):
        calls.append(args)
        return vertex_tree(*args)

    monkeypatch.setattr(weylbuildings.boundary, "vertex_tree", counted)
    omega = lift(g, o, ctx3)
    assert calls == []
    assert boundary_value(omega, o, 2, ctx3).parts == g.parts


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
