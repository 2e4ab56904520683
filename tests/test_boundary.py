"""The tree at n = 2: cochains, integration, boundary values, ends."""

import random
import re
from fractions import Fraction

import pytest

import weylbuildings.boundary
from weylbuildings import (
    BoundaryFunction,
    PrimeContext,
    ball,
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
from weylbuildings.boundary import OneCochain, ZeroCochain
from weylbuildings.building import _det
from weylbuildings.lattice import _coordinates, _val_int


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


def test_integrate_names_a_path_that_is_not_a_sequence(ctx2):
    # one class for the whole path: "Value after * must be an iterable" came before
    o = standard_lattice(ctx2)
    with pytest.raises(ValueError, match=re.escape(f"path must be a sequence of lattice classes, got {o!r}")):
        integrate(one_cochain_from_map({}), o, ctx2)


def test_one_cochain_antisymmetry(ctx2):
    o = standard_lattice(ctx2)
    s = lattice_from_rows([[1, 0], [0, 2]], 2)
    omega = one_cochain_from_map({(o, s): Fraction(5)})
    assert omega.value(o, s) == 5
    assert omega.value(s, o) == -5
    with pytest.raises(ValueError, match="conflicting values on the two orientations of an edge"):
        one_cochain_from_map({(o, s): Fraction(1), (s, o): Fraction(1)})
    with pytest.raises(ValueError, match="an edge needs two distinct vertices"):
        one_cochain_from_map({(o, o): Fraction(1)})
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


def test_boundary_function_json_literal(ctx2):
    o = standard_lattice(ctx2)
    a, b, _ = vertex_neighbors(o, ctx2)
    omega = one_cochain_from_map({(o, a): Fraction(3, 2), (b, o): Fraction(-5)})
    g = boundary_value(omega, o, 1, ctx2)
    assert [x for _, x in g.parts] == [Fraction(3, 2), Fraction(5), Fraction(0)]
    assert [end_chart(e, ctx2) for e, _ in g.parts] == [(1, 0), (1, 1), (0, 1)]


def test_boundary_value_detects_non_coboundary(ctx2):
    o = standard_lattice(ctx2)
    tree = vertex_tree(ctx2, o, 2)
    rim_edge = tree.ends()[0]
    omega = one_cochain_from_map({rim_edge: Fraction(1)})
    g = boundary_value(omega, o, 2, ctx2)
    assert g.constant_value() is None
    with pytest.raises(ValueError, match="boundary value is not constant: omega is not a coboundary"):
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


# Per-field digests (conftest ``field_digests``) of trees recorded before
# the tree and ``ball`` shared one shell search, around the standard vertex
# and around [[1, 1], [0, p]]; "index" pins the map's order too.
TREE_FIELDS = {
    (2, 5, False): {
        "ctx": "36e8288abafd2280", "origin": "816b134ae8875a6e", "radius": "ef2d127de37b942b",
        "vertices": "398a394013d5249f", "depth": "9ae09fa46f5045f6",
        "parent": "72beb7778633882d", "index": "9b21a5f3263522f6",
    },
    (2, 5, True): {
        "ctx": "36e8288abafd2280", "origin": "e4d59547fb5e196e", "radius": "ef2d127de37b942b",
        "vertices": "d522ce853f18f307", "depth": "9ae09fa46f5045f6",
        "parent": "5d7fb921bb14b925", "index": "2d2114e12dad7636",
    },
    (3, 3, False): {
        "ctx": "7aa397fe15389834", "origin": "816b134ae8875a6e", "radius": "4e07408562bedb8b",
        "vertices": "a0dae35a5e120bc8", "depth": "f1a4c9adead33196",
        "parent": "4e02a166d8a21c2e", "index": "0fb2115727bbb5c0",
    },
    (3, 3, True): {
        "ctx": "7aa397fe15389834", "origin": "5064afce45aa3b17", "radius": "4e07408562bedb8b",
        "vertices": "b7ae5cc39e4905b6", "depth": "f1a4c9adead33196",
        "parent": "e369169332e8f0ab", "index": "5b483532d2e58afb",
    },
    (5, 2, False): {
        "ctx": "a46fe8dd3891c4ed", "origin": "816b134ae8875a6e", "radius": "d4735e3a265e16ee",
        "vertices": "e7d8000b63b125fd", "depth": "8b9c1bd07b160ff6",
        "parent": "eefb3aba1795c69b", "index": "45557e08a5047dcb",
    },
    (5, 2, True): {
        "ctx": "a46fe8dd3891c4ed", "origin": "ad398fc233b33f96", "radius": "d4735e3a265e16ee",
        "vertices": "46192018fc50011d", "depth": "8b9c1bd07b160ff6",
        "parent": "3ccb9a5cef8d2300", "index": "62408ac08b72ce57",
    },
}


@pytest.mark.parametrize("key", list(TREE_FIELDS), ids=str)
def test_vertex_tree_fields_are_pinned(key, field_digests):
    p, radius, moved = key
    ctx = PrimeContext(p=p, n=2)
    origin = lattice_from_rows([[1, 1], [0, p]], p) if moved else standard_lattice(ctx)
    assert field_digests(vertex_tree(ctx, origin, radius)) == TREE_FIELDS[key]


def test_a_radius_zero_tree_has_no_ends(ctx2):
    # as end_count(p, 0) says; the origin has no parent to start a rim edge
    with pytest.raises(ValueError, match="ends need depth at least 1"):
        end_count(2, 0)
    with pytest.raises(ValueError, match="ends need depth at least 1"):
        vertex_tree(ctx2, standard_lattice(ctx2), 0).ends()
    assert len(vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()) == end_count(2, 1)


@pytest.mark.parametrize("k", ["x", 1.0, None], ids=repr)
def test_a_tree_shell_index_must_be_an_int(ctx2, k):
    # as BallGraph.shell: an index of another kind is named, not read as empty
    tree = vertex_tree(ctx2, standard_lattice(ctx2), 2)
    with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
        tree.shell(k)
    assert tree.shell(3) == ()


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


def reference_lift(g, origin, ctx):
    """``lift`` with its parts checked as sets: the distinct parts, counted,
    against the set of the rim edges."""
    r = g.depth
    edges = {e for e, _ in g.parts}
    if len(g.parts) != end_count(ctx.p, r) or len(edges) != len(g.parts):
        raise ValueError("parts must enumerate the ends at this depth exactly once")
    if edges != set(vertex_tree(ctx, origin, r).ends()):
        raise ValueError(f"part is not a rim edge at depth {r}")
    return one_cochain_from_map(dict(g.parts))


ENUMERATE = "parts must enumerate the ends at this depth exactly once"
LIFT_TREES = [
    (p, r, anchored) for p, r in [(2, 5), (3, 3), (5, 2)] for anchored in (True, False)
]


def lift_case(p, r, anchored):
    """The context, the origin (the standard vertex or [[1, 1], [0, p]]),
    its rim edges at depth r, and seeded values for them."""
    ctx = PrimeContext(p=p, n=2)
    o = standard_lattice(ctx) if anchored else lattice_from_rows([[1, 1], [0, p]], p)
    ends = vertex_tree(ctx, o, r).ends()
    rng = random.Random(p * 100 + r * 10 + anchored)
    values = [Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in ends]
    return ctx, o, list(ends), values, rng


@pytest.mark.parametrize("p, r, anchored", LIFT_TREES)
def test_lift_accepts_shuffled_parts_as_the_set_check_does(p, r, anchored):
    ctx, o, ends, values, rng = lift_case(p, r, anchored)
    for _ in range(3):
        parts = list(zip(ends, values))
        rng.shuffle(parts)
        g = BoundaryFunction(depth=r, parts=tuple(parts))
        omega = lift(g, o, ctx)
        assert omega == reference_lift(g, o, ctx)
        assert boundary_value(omega, o, r, ctx).parts == g.parts
        values = values[1:] + values[:1]


@pytest.mark.parametrize("p, r, anchored", LIFT_TREES)
@pytest.mark.parametrize(
    "case",
    [
        "duplicate at the right count",
        "duplicate beside every end",
        "one end missing",
        "rim leaf with a wrong parent",
        "inner edge",
        "reversed rim edge",
    ],
)
def test_lift_rejects_what_the_set_check_rejects(p, r, anchored, case):
    ctx, o, ends, values, rng = lift_case(p, r, anchored)
    tree = vertex_tree(ctx, o, r)
    parts = list(zip(ends, values))
    k, j = rng.sample(range(len(parts)), 2)
    t, s = ends[k]
    if case == "duplicate at the right count":
        parts[k] = (ends[j], values[k])
    elif case == "duplicate beside every end":
        parts.append((ends[j], values[k]))
    elif case == "one end missing":
        del parts[k]
    elif case == "rim leaf with a wrong parent":
        t = next(tree.vertices[i] for i in tree.shell(r - 1) if tree.vertices[i] != t)
        parts[k] = ((t, s), values[k])
    elif case == "inner edge":
        parts[k] = ((tree.vertices[tree.parent[tree.index[t]]], t), values[k])
    else:
        parts[k] = ((s, t), values[k])
    rng.shuffle(parts)
    if case.startswith("duplicate"):
        # an edge named twice is refused before either route sees it
        with pytest.raises(ValueError, match=re.escape(f"an end is named twice, by the edge {ends[j]!r}")):
            BoundaryFunction(depth=r, parts=tuple(parts))
        return
    g = BoundaryFunction(depth=r, parts=tuple(parts))
    message = ENUMERATE if case == "one end missing" else f"part is not a rim edge at depth {r}$"
    for route in (lift, reference_lift):
        with pytest.raises(ValueError, match=message):
            route(g, o, ctx)


@pytest.mark.parametrize("p, r, anchored", LIFT_TREES)
def test_lift_checks_its_parts_without_hashing_them(p, r, anchored, class_hash_calls):
    # the parts are compared with the rim in order, so the classes are
    # hashed only where the cochain's own map keys its edges
    ctx, o, ends, values, _ = lift_case(p, r, anchored)
    g = BoundaryFunction(depth=r, parts=tuple(zip(ends, values)))
    assert lift(g, o, ctx) == reference_lift(g, o, ctx)  # both read the built tree
    class_hash_calls[0] = 0
    reference_lift(g, o, ctx)
    before, class_hash_calls[0] = class_hash_calls[0], 0
    lift(g, o, ctx)
    assert class_hash_calls[0] <= 0.6 * before


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
    deep_parent, deep_leaf = vertex_tree(ctx2, o, 2).ends()[0]
    # a leaf at depth 0 has no depth r - 1 to step out from
    for edge in ((leaf, parent), (o, o), (deep_leaf, deep_parent)):
        with pytest.raises(ValueError, match="edge must step outward from depth r - 1 to depth r"):
            end_chart(edge, ctx2)


def test_end_chart_names_an_edge_that_is_not_a_pair_of_classes(ctx2):
    # "not enough values to unpack" came before, naming neither the edge
    # nor the parameter
    o = standard_lattice(ctx2)
    for edge in ((o,), o):
        with pytest.raises(ValueError, match=re.escape(f"an edge must join two lattice classes, got {edge!r}")):
            end_chart(edge, ctx2)


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2)])
def test_boundary_value_is_the_checked_boundary_function(p, r):
    # boundary_value builds its result unchecked, in leaf order; the checked
    # constructor, given the same parts shuffled, must agree
    ctx = PrimeContext(p=p, n=2)
    rng = random.Random(p * 10 + r)
    standard = standard_lattice(ctx)
    for o in (standard, vertex_neighbors(standard, ctx)[-1]):
        ends = vertex_tree(ctx, o, r).ends()
        values = tuple((e, Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for e in ends)
        g = boundary_value(lift(BoundaryFunction(r, values), o, ctx), o, r, ctx)
        rows = list(g.parts)
        rng.shuffle(rows)
        assert g == BoundaryFunction(r, tuple(rows))  # depth and parts
        assert g.parts == BoundaryFunction(r, values).parts


def reference_coboundary(f, ctx):
    """d f by the checked constructor: f(s) - f(t) on every (s, t) with s in
    the support, the neighbors listed by ``vertex_neighbors``."""
    out = {}
    for s, fs in f.values:
        for t in vertex_neighbors(s, ctx):
            out[(s, t)] = fs - f.value(t)
    return OneCochain(tuple(out.items()))


def same_cochain(built, checked):
    # equal values, hashes and lookups on both orientations of every edge
    assert built == checked and hash(built) == hash(checked)
    assert built.support == checked.support
    for s, t in checked.support:
        assert built.value(s, t) == checked.value(s, t) == -built.value(t, s)


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2)])
def test_lift_and_coboundary_build_the_checked_cochain(p, r):
    # both build their cochains unchecked; the checked constructor, given
    # the same pairs, must agree, zero values and shared edges included
    ctx = PrimeContext(p=p, n=2)
    rng = random.Random(p * 100 + r)
    standard = standard_lattice(ctx)
    for o in (standard, vertex_neighbors(standard, ctx)[-1]):
        tree = vertex_tree(ctx, o, r)
        for _ in range(5):
            parts = tuple((e, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for e in tree.ends())
            g = BoundaryFunction(r, parts)
            same_cochain(lift(g, o, ctx), OneCochain(g.parts))
            inner = [v for v, d in zip(tree.vertices, tree.depth) if d < r]
            picks = rng.sample(inner, rng.randint(1, min(5, len(inner))))
            # values from a short list, so neighbors in the support often agree
            f = zero_cochain_from_map({v: Fraction(rng.choice((-1, 2, 2))) for v in picks})
            omega = coboundary(f, ctx)
            same_cochain(omega, reference_coboundary(f, ctx))
            recovered = primitive_cochain(omega, o, r, ctx)
            assert recovered == f == ZeroCochain(tuple(recovered.values))
            assert all(recovered.value(v) == f.value(v) for v in tree.vertices)


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2)])
def test_tree_shells_and_ends_by_range_match_the_scan(p, r):
    ctx = PrimeContext(p=p, n=2)
    for o in (standard_lattice(ctx), lattice_from_rows([[1, 1], [0, p]], p)):
        tree = vertex_tree(ctx, o, r)
        for k in range(-1, r + 2):
            assert tree.shell(k) == tuple(i for i, d in enumerate(tree.depth) if d == k)
        rim = [i for i, d in enumerate(tree.depth) if d == r]
        assert tree.ends() == tuple((tree.vertices[tree.parent[i]], tree.vertices[i]) for i in rim)
    graph = ball(ctx, r)
    for k in range(-1, r + 2):
        assert graph.shell(k) == tuple(i for i, d in enumerate(graph.distance) if d == k)


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2)])
def test_the_tree_maps_hash_no_lattice_class(p, r, class_hash_calls):
    # every lookup on the built tree goes by Hermite tuple, and the cochains
    # are built unchecked, so no LatticeClass hash runs in Python
    ctx = PrimeContext(p=p, n=2)
    o = standard_lattice(ctx)
    tree = vertex_tree(ctx, o, r)
    g = BoundaryFunction(r, tuple((e, Fraction(i, 3)) for i, e in enumerate(tree.ends())))
    f = zero_cochain_from_map({tree.vertices[0]: 1, tree.vertices[1]: Fraction(-2, 5)})
    class_hash_calls[0] = 0
    omega = lift(g, o, ctx)
    assert boundary_value(omega, o, r, ctx) == g
    assert class_hash_calls[0] == 0
    assert primitive_cochain(coboundary(f, ctx), o, r, ctx) == f
    assert class_hash_calls[0] == 0


# -- input checks ---------------------------------------------------------------------


def _wrong_kind_calls(ctx):
    """Parameter -> (its kind, calls taking the value at that parameter,
    values of other kinds) for the tree maps, every other argument valid."""
    o = standard_lattice(ctx)
    tree = vertex_tree(ctx, o, 2)
    g = BoundaryFunction(2, tuple((e, 1) for e in tree.ends()))
    omega, f = lift(g, o, ctx), zero_cochain_from_map({o: 1})
    others = ["x", None, 1.5, object(), o]
    return {
        "ctx": ("PrimeContext", [
            lambda x: lift(g, o, x),
            lambda x: coboundary(f, x),
            lambda x: vertex_tree(x, o, 1),
            lambda x: vertex_neighbors(o, x),
            lambda x: boundary_value(omega, o, 2, x),
            lambda x: primitive_cochain(omega, o, 2, x),
            lambda x: integrate(omega, [o], x),
            lambda x: end_chart(tree.ends()[0], x),
        ], others + [g]),
        "omega": ("OneCochain", [
            lambda x: boundary_value(x, o, 2, ctx),
            lambda x: primitive_cochain(x, o, 2, ctx),
            lambda x: integrate(x, [o], ctx),
        ], others + [f, zero_cochain_from_map({}), g]),
        "g": ("BoundaryFunction", [lambda x: lift(x, o, ctx)], others + [omega]),
        "f": ("ZeroCochain", [lambda x: coboundary(x, ctx)], others + [omega, one_cochain_from_map({})]),
    }


@pytest.mark.parametrize("param", ["ctx", "omega", "g", "f"])
def test_the_tree_maps_name_an_argument_of_the_wrong_kind(ctx2, param):
    # one ValueError naming the parameter, where an AttributeError, a
    # TypeError or a silent 0 came before; a cochain of the other degree,
    # even an empty one, is of the wrong kind
    kind, calls, values = _wrong_kind_calls(ctx2)[param]
    for call in calls:
        for x in values:
            with pytest.raises(ValueError, match=re.escape(f"{param} must be a {kind}, got {x!r}")):
                call(x)


def test_the_tree_maps_refuse_an_n_3_context():
    ctx = PrimeContext(p=2, n=3)
    with pytest.raises(ValueError, match="the boundary machinery lives on the n = 2 tree"):
        vertex_tree(ctx, standard_lattice(ctx), 1)


@pytest.mark.parametrize("value", [0.5, "1/2", None], ids=repr)
def test_boundary_function_rejects_non_rational_values(ctx2, value):
    (edge,) = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()[:1]
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        BoundaryFunction(depth=1, parts=((edge, value),))


def test_boundary_function_values_become_fractions(ctx2):
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()
    g = BoundaryFunction(depth=1, parts=tuple((e, 1) for e in ends))
    assert type(g.constant_value()) is Fraction
    assert all(type(x) is Fraction and x == 1 for _, x in g.parts)


def test_boundary_functions_that_differ_by_a_constant(ctx2):
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 2).ends()
    g = BoundaryFunction(depth=2, parts=tuple((e, Fraction(i, 5)) for i, e in enumerate(ends)))
    shifted = BoundaryFunction(depth=2, parts=tuple((e, x - Fraction(3, 2)) for e, x in g.parts))
    assert g.differs_by_constant(shifted) and shifted.differs_by_constant(g)
    assert g.differs_by_constant(g)
    bent = BoundaryFunction(depth=2, parts=g.parts[:-1] + ((g.parts[-1][0], Fraction(9)),))
    assert not g.differs_by_constant(bent)
    # another depth, one end fewer, or other ends: never a constant apart
    assert not g.differs_by_constant(BoundaryFunction(depth=3, parts=g.parts))
    assert not g.differs_by_constant(BoundaryFunction(depth=2, parts=g.parts[1:]))
    others = vertex_tree(ctx2, lattice_from_rows([[1, 0], [0, 2]], 2), 2).ends()
    assert len(others) == len(ends) and set(others) != set(ends)
    here, there = (BoundaryFunction(depth=2, parts=tuple((e, 1) for e in es)) for es in (ends, others))
    assert not here.differs_by_constant(there)


@pytest.mark.parametrize("other", ["x", None, ((), 1)], ids=repr)
def test_differs_by_constant_names_another_kind_of_other(ctx2, other):
    # an AttributeError on other.depth came before
    g = BoundaryFunction(depth=1, parts=tuple((e, 1) for e in vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()))
    with pytest.raises(ValueError, match=re.escape(f"other must be a BoundaryFunction, got {other!r}")):
        g.differs_by_constant(other)


@pytest.mark.parametrize("depth", [2.0, "2", Fraction(2)], ids=repr)
def test_boundary_function_rejects_non_int_depth(ctx2, depth):
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 2).ends()
    with pytest.raises(ValueError, match=re.escape(f"depth must be an int, got {depth!r}")):
        BoundaryFunction(depth=depth, parts=tuple((e, Fraction(1)) for e in ends))


@pytest.mark.parametrize("depth", [0, -3])
def test_boundary_function_needs_a_depth_of_at_least_one(ctx2, depth):
    e = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()[0]
    with pytest.raises(ValueError, match=re.escape(f"depth must be at least 1, got {depth}")):
        BoundaryFunction(depth, ((e, 1),))


@pytest.mark.parametrize("values", [(1, 2), (1, 1)], ids=["two values", "one value"])
def test_boundary_function_refuses_an_end_named_twice(ctx2, values):
    # the two parts need not be next to each other: the sort brings them together
    ends = vertex_tree(ctx2, standard_lattice(ctx2), 1).ends()
    e = ends[0]
    parts = ((e, values[0]), *((f, 0) for f in ends[1:]), (e, values[1]))
    with pytest.raises(ValueError, match=re.escape(f"an end is named twice, by the edge {e!r}")):
        BoundaryFunction(1, parts)
    assert BoundaryFunction(1, parts[:-1]).parts[0] == (e, values[0])


@pytest.mark.parametrize("kernel", [boundary_value, primitive_cochain])
def test_integrals_need_an_int_depth_of_at_least_one(ctx2, kernel):
    o = standard_lattice(ctx2)
    omega = one_cochain_from_map({})
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            kernel(omega, o, depth, ctx2)
    for depth in ("2", 2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"depth must be an int, got {depth!r}")):
            kernel(omega, o, depth, ctx2)


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
