"""The integer-numerator kernels against the Fraction-step kernels they replaced.

``hecke.multiply`` and ``boundary._integrals`` carry integer numerators over
one known denominator and build one Fraction per output entry.  The kernels
below are the earlier ones, kept verbatim as references: every intermediate
value a Fraction.  Both must give the same results, in the same order, and
raise the same errors, over the diagrams and parameters the library serves.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from weylbuildings import boundary, hecke
from weylbuildings.boundary import (
    BoundaryFunction,
    LatticeClass,
    OneCochain,
    PrimeContext,
    VertexTree,
    ZeroCochain,
    _chart,
    _require_tree,
    standard_lattice,
    vertex_tree,
)
from weylbuildings.coxeter import _element, affine_diagram, element_from_word
from weylbuildings.hecke import HeckeElement, basis_element, unit

# -- the Fraction-step references, verbatim -------------------------------------------


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the algebra, bilinear over the one-letter rule, on points."""
    a._require_compatible(b)
    diagram, q, q1 = a.diagram, a.q, a.q - 1
    acc: dict[tuple[int, ...], Fraction] = {}
    for w, cw in b.terms:
        partial = {u.point: c for u, c in a.terms}
        # w = s_k ... s_1 for its peel s_1..s_k, a reduced word
        for s in reversed(w._peel_of(diagram)):
            step: dict[tuple[int, ...], Fraction] = {}
            for y, c in partial.items():
                ys = _times(y, s, diagram.cartan)
                if y[s] < 0:
                    _add(step, y, q1 * c)
                    _add(step, ys, q * c)
                else:
                    _add(step, ys, c)
            partial = {y: c for y, c in step.items() if c}
        for y, c in partial.items():
            _add(acc, y, cw * c)
    return HeckeElement(diagram, q, tuple((_element(diagram, y), c) for y, c in acc.items()))


def _times(y: tuple[int, ...], s: int, cartan) -> tuple[int, ...]:
    """y times sigma_s on the dense Cartan row: y_t - A[s][t] y_s.  The
    reference keeps its own step, so that it does not run the sparse kernel
    of ``coxeter`` it is checked against."""
    r = y[s]
    return tuple(x - a * r for x, a in zip(y, cartan[s]))


def _add(acc: dict, key: tuple[int, ...], c: Fraction) -> None:
    """acc[key] += c, with no arithmetic for a new key."""
    old = acc.get(key)
    acc[key] = c if old is None else old + c


def _integrals(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> tuple[VertexTree, list[Fraction]]:
    """The vertex tree to the given depth and the integral of omega from
    the origin to each of its vertices, in one walk down the tree.  Each
    supported tree edge is the step omega(parent, child) at its child; a
    supported pair that is not an edge lies on no path and adds nothing."""
    _require_tree(ctx)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tree = vertex_tree(ctx, origin, depth)
    index, parent = tree.index, tree.parent
    step: dict[int, Fraction] = {}
    for (s, t), x in omega.values:
        i, j = index.get(s), index.get(t)
        if i is None or j is None:
            raise ValueError("cochain support escapes the sphere at this depth")
        if parent[j] == i:
            step[j] = x
        elif parent[i] == j:
            step[i] = -x
    to_vertex: list[Fraction] = [Fraction(0)] * len(tree)
    for i in range(1, len(tree)):
        x = step.get(i)
        to_vertex[i] = to_vertex[parent[i]] if x is None else to_vertex[parent[i]] + x
    return tree, to_vertex


def boundary_value(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> BoundaryFunction:
    """Ultimate value of omega along each end at the given depth.

    Requires the support of omega to sit inside the depth-r sphere at the
    origin, so integrals out of the sphere are settled.
    """
    tree, to_vertex = _integrals(omega, origin, depth, ctx)
    # the shell lists leaves by canonical form, the order BoundaryFunction keeps
    parts = tuple(zip(tree.ends(), (to_vertex[i] for i in tree.shell(depth))))
    chart = None
    if origin == standard_lattice(ctx):
        chart = tuple((_chart(s, ctx.p), x) for (_, s), x in parts)
    return BoundaryFunction(depth=depth, parts=parts, chart=chart)


def primitive_cochain(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> ZeroCochain:
    """A finitely supported f with d f = omega, when the boundary value
    of omega at this depth is a constant c: f(s) = c - integral(origin->s).

    Far vertices then get c - c = 0, so the support stays inside the
    sphere; a non-constant boundary value is an error (no such f exists).
    """
    tree, to_vertex = _integrals(omega, origin, depth, ctx)
    rim = {to_vertex[i] for i in tree.shell(depth)}
    if len(rim) != 1:
        raise ValueError("boundary value is not constant: omega is not a coboundary")
    (c,) = rim
    return ZeroCochain(tuple((v, c - x) for v, x in zip(tree.vertices, to_vertex)))


# -- Hecke products ---------------------------------------------------------------------

QS = [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5, 3), Fraction(1), Fraction(0), Fraction(-7, 3)]
# diagram -> (largest word length drawn, number of products per q)
DIAGRAMS = {"A2~": (8, 6), "C2~": (8, 6), "G2~": (8, 6), "A3~": (8, 6), "B3~": (8, 6), "E8~": (3, 3)}


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 5, 6)))


def _sum(rng: random.Random, diagram, q: Fraction, words) -> HeckeElement:
    """A sum of the e_w of the words with mixed-denominator coefficients."""
    terms = {element_from_word(diagram, word): _coefficient(rng) for word in words}
    return HeckeElement(diagram, q, tuple(terms.items()))


def _combination(rng: random.Random, diagram, q: Fraction, longest: int) -> HeckeElement:
    """A sum of 1-3 basis elements of words up to the given length."""
    sizes = [rng.randint(0, longest) for _ in range(rng.randint(1, 3))]
    return _sum(rng, diagram, q, [[rng.randrange(diagram.size) for _ in range(k)] for k in sizes])


def _same(got: HeckeElement, want: HeckeElement) -> None:
    assert got == want
    assert tuple(got.terms) == tuple(want.terms)
    assert all(type(c) is Fraction and c for _, c in got.terms)
    # the unchecked map answers lookups from the dict it was built on
    assert all(got.coefficient(w) == c for w, c in want.terms)


@pytest.mark.parametrize("label", sorted(DIAGRAMS))
@pytest.mark.parametrize("q", QS, ids=str)
def test_multiply_matches_the_fraction_steps(label, q):
    rng = random.Random(f"{label} {q}")
    diagram = affine_diagram(label)
    longest, count = DIAGRAMS[label]
    for _ in range(count):
        a = _combination(rng, diagram, q, longest)
        b = _combination(rng, diagram, q, longest)
        _same(hecke.multiply(a, b), multiply(a, b))


@pytest.mark.parametrize("q", QS, ids=str)
def test_long_a1_products_match_the_fraction_steps(q):
    # lengths past 64 in A1~, where every alternating word is reduced: v ends
    # on 1, so v w is reduced when w starts on 0, and terms pile up on 1
    diagram = affine_diagram("A1~")
    rng = random.Random(str(q))
    v = [i % 2 for i in range(40)]
    for start in (0, 1):
        w = [(start + i) % 2 for i in range(30)]
        a, b = _sum(rng, diagram, q, (v, [1])), _sum(rng, diagram, q, (w, w[:29]))
        product = hecke.multiply(a, b)
        _same(product, multiply(a, b))
        if start == 0:
            assert max(len(u._peel_of(diagram)) for u in product.support) == 70


@pytest.mark.parametrize("label", ["A1~", "A2~", "G2~", "B3~", "E8~"])
@pytest.mark.parametrize("q", QS, ids=str)
def test_cancelling_products_are_zero_on_both_routes(label, q):
    # (e_s + e_1)(e_s - q e_1) = 0 by the quadratic relation, and a zero factor
    # gives zero; scaled by mixed denominators, every entry cancels
    diagram = affine_diagram(label)
    one = unit(diagram, q)
    zero = one - one
    for s in diagram.generators:
        e = basis_element(diagram, [s], q)
        left = Fraction(3, 4) * (e + one)
        right = Fraction(-2, 5) * (e - q * one)
        for a, b in ((left, right), (zero, e), (e, zero), (zero, zero)):
            product = hecke.multiply(a, b)
            _same(product, multiply(a, b))
            assert product.is_zero()


# -- integrals on the tree ------------------------------------------------------------------

TREES = [(2, 5), (3, 3), (5, 2)]


def _omega(rng: random.Random, tree: VertexTree) -> OneCochain:
    """Mixed-denominator values on random tree edges, plus one supported
    pair of two leaves, which is not an edge."""
    children = rng.sample(range(1, len(tree)), min(6, len(tree) - 1))
    values = {}
    for i in children:
        edge = (tree.vertices[tree.parent[i]], tree.vertices[i])
        values[edge if rng.random() < 0.5 else edge[::-1]] = _coefficient(rng)
    a, b = (tree.vertices[i] for i in rng.sample(tree.shell(tree.radius), 2))
    values[(a, b)] = _coefficient(rng)
    return boundary.one_cochain_from_map(values)


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("p, r", TREES)
def test_boundary_values_match_the_fraction_sums(p, r):
    ctx = PrimeContext(p=p, n=2)
    rng = random.Random(f"{p} {r}")
    for origin in (standard_lattice(ctx), vertex_tree(ctx, standard_lattice(ctx), 1).vertices[1]):
        tree = vertex_tree(ctx, origin, r)
        for _ in range(8):
            omega = _omega(rng, tree)
            got, want = boundary.boundary_value(omega, origin, r, ctx), boundary_value(omega, origin, r, ctx)
            assert got == want
            assert got.parts == want.parts and got.chart == want.chart
            assert _outcome(boundary.primitive_cochain, omega, origin, r, ctx) == _outcome(
                primitive_cochain, omega, origin, r, ctx
            )
        # outside the sphere of one less depth, both refuse the same way
        assert _outcome(boundary.boundary_value, omega, origin, r - 1 or 1, ctx) == _outcome(
            boundary_value, omega, origin, r - 1 or 1, ctx
        )


@pytest.mark.parametrize("p, r", TREES)
def test_primitives_match_the_fraction_sums(p, r):
    ctx = PrimeContext(p=p, n=2)
    rng = random.Random(f"primitive {p} {r}")
    origin = standard_lattice(ctx)
    tree = vertex_tree(ctx, origin, r)
    inner = [v for v, d in zip(tree.vertices, tree.depth) if d < r]
    for _ in range(8):
        f = ZeroCochain(tuple((v, _coefficient(rng)) for v in rng.sample(inner, min(4, len(inner)))))
        omega = boundary.coboundary(f, ctx)
        # a supported pair of two leaves lies on no path and changes nothing
        a, b = (tree.vertices[i] for i in rng.sample(tree.shell(r), 2))
        omega = boundary.one_cochain_from_map({**dict(omega.values), (a, b): _coefficient(rng)})
        got = boundary.primitive_cochain(omega, origin, r, ctx)
        want = primitive_cochain(omega, origin, r, ctx)
        assert got == want == f
        assert tuple(got.values) == tuple(want.values)
        assert boundary.boundary_value(omega, origin, r, ctx) == boundary_value(omega, origin, r, ctx)
