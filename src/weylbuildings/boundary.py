"""Cochain complex and boundary machinery on the GL(2) tree.

Vertices are lattice classes (n = 2); each vertex has p + 1 neighbors.
A 0-cochain is a finitely supported rational function on vertices; a
1-cochain is a finitely supported antisymmetric function on oriented
edges, omega(s, t) = -omega(t, s).  The coboundary is

    d f (s, t) = f(s) - f(t),

and ``integrate`` sums a 1-cochain along a vertex path; on a tree the
integral depends only on the endpoints.  Both cochains keep their values
in the shared finite map of the ``exact`` module (``SparseMap``: nonzero
entries only, canonical order, O(1) lookup); a 1-cochain stores one value
per unordered edge and applies the orientation sign on lookup.

Ends of the tree through the sphere of radius r around a base vertex o
are the (p + 1) p^(r-1) oriented rim edges (t, s) with s at depth r.  The
map ``boundary_value`` sends a 1-cochain supported inside the sphere to
the function assigning each end the integral from o out to it; this is
the ultimate value of the cochain along the end.  For a coboundary d f
the result is the constant f(o), which is the kernel half of the story;
``primitive_cochain`` inverts the other half, rebuilding a finitely
supported f with d f = omega whenever the boundary value is constant.
``lift`` realizes surjectivity: any assignment of values to the ends is
the boundary value of a 1-cochain carried by the rim edges.

``vertex_tree`` builds each sphere once per (context, origin, depth), by
the shell search behind ``building.ball``, and hands every caller that one
read-only tree.  The tree keeps, once, each vertex's index by Hermite
tuple, a key C hashes, and its rim edges, read off the last shell's index
range, so the maps run on its indices and hash no ``LatticeClass`` in
Python.  ``boundary_value`` and ``primitive_cochain`` walk it instead of
rebuilding it, and ``lift`` matches its parts to its rim in one pass.
``lift``, ``coboundary`` and ``primitive_cochain`` build their cochains
unchecked (``exact._restore``) from values they matched or computed
themselves.  A context, cochain or boundary function of the wrong kind
raises ValueError naming the parameter (``exact._field``).

When o is the standard vertex, each end is named by a point ball of the
projective line: a vertex at depth r is the line lattice
{ x : x = lambda v mod p^r } of a primitive vector v, and ``end_chart``
returns v normalized to [1 : y] (first coordinate a unit) or [x : 1]
(second a unit, p | x), with the free coordinate reduced mod p^r.  The
charts of distinct ends at one depth are disjoint residue balls.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .exact import SparseMap, Value, _field, _fraction, _int, _items, _pairs, _restore
from .lattice import (
    LatticeClass,
    PrimeContext,
    _dimension,
    _first,
    _require_classes,
    _shell,
    _shells,
    _tree_neighbors,
    classes_adjacent,
)

__all__ = [
    "ZeroCochain",
    "zero_cochain_from_map",
    "OneCochain",
    "one_cochain_from_map",
    "coboundary",
    "integrate",
    "vertex_neighbors",
    "VertexTree",
    "vertex_tree",
    "sphere_vertex_count",
    "end_count",
    "BoundaryFunction",
    "boundary_value",
    "primitive_cochain",
    "lift",
    "end_chart",
]


def _require_tree(ctx: PrimeContext, *vertices: LatticeClass) -> None:
    if _dimension(ctx) != 2:
        raise ValueError("the boundary machinery lives on the n = 2 tree")
    _require_classes(ctx, *vertices)


# -- cochains -------------------------------------------------------------------


class ZeroCochain(Value):
    """Finitely supported rational function on vertices, in a ``SparseMap``."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[tuple[LatticeClass, Fraction], ...]) -> None:
        self._set(SparseMap(values, lambda v: v.hnf))

    @property
    def support(self) -> tuple[LatticeClass, ...]:
        return self.values.support()

    def value(self, vertex: LatticeClass) -> Fraction:
        return self.values.lookup(vertex, LatticeClass)


def zero_cochain_from_map(values: Mapping[LatticeClass, Fraction]) -> ZeroCochain:
    return ZeroCochain(_items(values, "values", "lattice classes"))


Edge = tuple[LatticeClass, LatticeClass]


def _edge(edge: Edge) -> Edge:
    """The edge, if it is a pair of classes; ValueError naming it otherwise."""
    if type(edge) is not tuple or len(edge) != 2 or not (
        type(edge[0]) is LatticeClass and type(edge[1]) is LatticeClass
    ):
        raise ValueError(f"an edge must join two lattice classes, got {edge!r}")
    return edge


class OneCochain(Value):
    """Antisymmetric rational function on oriented edges, finite support.

    ``values`` is a ``SparseMap`` with one value per unordered edge, on
    the orientation with the lexicographically smaller canonical form
    first; lookups on either orientation apply the sign.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[tuple[Edge, Fraction], ...]) -> None:
        acc: dict[tuple, tuple] = {}  # by the edge's forms, as ``_entry`` orients it
        for edge, x in _pairs(values, "values"):
            s, t = _edge(edge)
            if s == t:
                raise ValueError("an edge needs two distinct vertices")
            entry = _entry(s, t, _fraction(x, "values"))
            if acc.setdefault(entry[0], entry)[2] != entry[2]:
                raise ValueError("conflicting values on the two orientations of an edge")
        self._set(_by_form(acc.values()))

    @property
    def support(self) -> tuple[Edge, ...]:
        return self.values.support()

    def value(self, s: LatticeClass, t: LatticeClass) -> Fraction:
        try:
            forward = s.hnf < t.hnf
        except AttributeError:  # a vertex that is not a lattice class
            raise ValueError(f"key of the wrong type: {(s, t)!r}") from None
        if forward:
            return self.values.lookup((s, t), tuple)
        return -self.values.lookup((t, s), tuple)


def one_cochain_from_map(values: Mapping[Edge, Fraction]) -> OneCochain:
    return OneCochain(_items(values, "values", "edges"))


def _entry(s: LatticeClass, t: LatticeClass, x: Fraction) -> tuple:
    """(forms, edge, value) of omega(s, t) = x on the orientation a
    ``OneCochain`` keys, the smaller canonical form first."""
    return ((s.hnf, t.hnf), (s, t), x) if s.hnf < t.hnf else ((t.hnf, s.hnf), (t, s), -x)


def _by_form(entries: Iterable[tuple]) -> SparseMap:
    """The map of (form, key, Fraction) entries with distinct forms, in the
    order of the forms, which is the order of both cochains' keys, and
    with the zero values dropped; for keys and values a kernel matched or
    computed itself, so it is built unchecked."""
    return SparseMap._ordered(tuple((k, x) for _, k, x in sorted(entries, key=_first) if x))


# -- tree structure -----------------------------------------------------------------


def vertex_neighbors(vertex: LatticeClass, ctx: PrimeContext) -> tuple[LatticeClass, ...]:
    """The p + 1 neighbors in canonical order: the index-p sublattices of
    the vertex, one per line of L / pL, in the closed form of the tree
    (Serre, *Trees*, Ch. II §1; ``lattice._tree_neighbors``)."""
    _require_tree(ctx, vertex)
    return tuple(sorted(_tree_neighbors(vertex, ctx.p), key=lambda v: v.hnf))


class VertexTree(Value):
    """Vertices within a depth around an origin, with BFS parents.

    Trees are cached and shared between callers, so every field is
    immutable: ``index`` is a read-only view.  The hidden, uncompared
    slots are derived from the fields once: ``_at`` maps each vertex's
    Hermite tuple to its index, a lookup C hashes, and ``_rim`` holds the
    rim edges, read off the last shell's index range.
    """

    __slots__ = ("ctx", "origin", "radius", "vertices", "depth", "parent", "index", "_at", "_rim")
    _uncompared = _hidden = ("_at", "_rim")

    def __init__(
        self,
        ctx: PrimeContext,
        origin: LatticeClass,
        radius: int,
        vertices: tuple[LatticeClass, ...],
        depth: tuple[int, ...],
        parent: tuple[int | None, ...],
        index: Mapping[LatticeClass, int],
    ) -> None:
        rim = _shell(depth, radius) if radius else ()
        self._set(
            ctx, origin, radius, vertices, depth, parent, index,
            {v.hnf: i for i, v in enumerate(vertices)},
            tuple((vertices[parent[i]], vertices[i]) for i in rim),
        )

    def __reduce__(self) -> tuple:
        # the read-only index does not pickle; the shared tree is rebuilt
        return vertex_tree, (self.ctx, self.origin, self.radius)

    def __len__(self) -> int:
        return len(self.vertices)

    def shell(self, k: int) -> tuple[int, ...]:
        return tuple(_shell(self.depth, k))

    def ends(self) -> tuple[Edge, ...]:
        """Oriented rim edges (parent, leaf), leaves at the full depth."""
        if self.radius < 1:
            raise ValueError("ends need depth at least 1")
        return self._rim


def vertex_tree(ctx: PrimeContext, origin: LatticeClass, radius: int) -> VertexTree:
    """The vertices within the radius around the origin, found by the shell
    search that builds ``building.ball``: in a tree each new vertex has one
    neighbor in the shell before it, its parent.  Built once per (ctx,
    origin, radius); every call returns that same read-only tree."""
    _require_tree(ctx, origin)
    _int(radius, "radius", 0)
    return _vertex_tree(ctx, origin.hnf, origin.valuation, radius)


# a process meets few spheres; the bound caps a long-lived one.  The origin
# is keyed by its Hermite tuple, which C hashes
@functools.lru_cache(maxsize=32)
def _vertex_tree(ctx: PrimeContext, hnf: tuple, valuation: int, radius: int) -> VertexTree:
    origin = LatticeClass(hnf, valuation)
    vertices, depth, parent, _, _ = _shells(
        (origin.hnf, origin),
        radius,
        lambda i, v: ((None, [(w.hnf, w) for w in _tree_neighbors(v, ctx.p)]),),
    )
    index = {v: i for i, v in enumerate(vertices)}
    return VertexTree(ctx, origin, radius, vertices, depth, parent, MappingProxyType(index))


def sphere_vertex_count(p: int, r: int) -> int:
    """1 + (p+1)(p^r - 1)/(p - 1): vertices within depth r of a vertex."""
    _int(p, "p", 2)
    _int(r, "r", 0)
    return 1 + (p + 1) * (p**r - 1) // (p - 1)


def end_count(p: int, r: int) -> int:
    """(p+1) p^(r-1): rim edges at depth r >= 1."""
    _int(p, "p", 2)
    if _int(r, "r", 0) < 1:
        raise ValueError("ends need depth at least 1")
    return (p + 1) * p ** (r - 1)


# -- coboundary and integration -------------------------------------------------------


def coboundary(f: ZeroCochain, ctx: PrimeContext) -> OneCochain:
    """d f with d f (s, t) = f(s) - f(t), on all edges meeting supp(f).

    Each support vertex is checked once, and its p + 1 neighbors come from
    the closed form; f at a neighbor is one lookup by Hermite tuple.  Each
    edge is keyed by the forms of its ends, smaller first, so two support
    vertices' shared edge is kept once, and a sort of those plain keys
    gives the cochain's order: the result is built unchecked."""
    values = _field(f, ZeroCochain, "values", "f")
    _require_tree(ctx, *(s for s, _ in values))
    at = {s.hnf: x for s, x in values}
    out: dict[tuple, tuple] = {}
    for s, fs in values:
        for t in _tree_neighbors(s, ctx.p):
            ft = at.get(t.hnf)
            entry = _entry(s, t, fs if ft is None else fs - ft)
            out[entry[0]] = entry
    return _restore(OneCochain, (_by_form(out.values()),))


def integrate(omega: OneCochain, path: Sequence[LatticeClass], ctx: PrimeContext) -> Fraction:
    """Sum of omega along consecutive oriented edges of a vertex path, a
    sequence of lattice classes."""
    _field(omega, OneCochain, "values", "omega")
    if not isinstance(path, Sequence):
        raise ValueError(f"path must be a sequence of lattice classes, got {path!r}")
    _require_tree(ctx, *path)
    total = Fraction(0)
    for s, t in zip(path, path[1:]):
        if not classes_adjacent(s, t, ctx):
            raise ValueError("consecutive path vertices must be adjacent")
        total += omega.value(s, t)
    return total


# -- boundary values -------------------------------------------------------------------


class BoundaryFunction(Value):
    """Function on the ends at one depth: (rim edge, value) per end.  The
    depth is an int of at least 1; the values are ints or Fractions and
    become Fractions.  The parts are kept in the order of their leaves'
    canonical forms, so an edge named twice sits beside itself and is
    refused.  Whether the edges are the rim edges at this depth depends
    on the origin they are measured from, which ``lift`` takes and checks.
    ``end_chart`` of a part's edge names its end."""

    __slots__ = ("depth", "parts")

    def __init__(self, depth: int, parts: tuple[tuple[Edge, Fraction], ...]) -> None:
        _int(depth, "depth", 1)
        parts = tuple((_edge(e), _fraction(x, "values")) for e, x in _pairs(parts, "parts"))
        parts = sorted(parts, key=lambda part: (part[0][1].hnf, part[0][0].hnf))
        twice = next((e for (e, _), (f, _) in zip(parts, parts[1:]) if e == f), None)
        if twice is not None:
            raise ValueError(f"an end is named twice, by the edge {twice!r}")
        self._set(depth, tuple(parts))

    def constant_value(self) -> Fraction | None:
        """The common value if the function is constant, else None."""
        vals = {x for _, x in self.parts}
        return vals.pop() if len(vals) == 1 else None

    def differs_by_constant(self, other: "BoundaryFunction") -> bool:
        depth = _field(other, BoundaryFunction, "depth", "other")
        if self.depth != depth or len(self.parts) != len(other.parts):
            return False
        gaps = set()
        for (e1, x1), (e2, x2) in zip(self.parts, other.parts):
            if e1 != e2:
                return False
            gaps.add(x1 - x2)
        return len(gaps) == 1


def _integrals(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> tuple[VertexTree, list[int], int]:
    """The vertex tree to the given depth, the integral of omega from the
    origin to each of its vertices and their shared denominator.  Each
    supported tree edge is the step omega(parent, child) at its child; a
    supported pair that is not an edge lies on no path and adds nothing.
    Both ends of an entry are found by Hermite tuple in the tree's ``_at``,
    a lookup C hashes.  The steps are scaled to integer numerators over
    the lcm of their denominators and summed down the tree, where a
    parent's index is below its child's."""
    entries = _field(omega, OneCochain, "values", "omega")
    _int(depth, "depth", 1)
    tree = vertex_tree(ctx, origin, depth)
    at, parent = tree._at, tree.parent
    steps: list[tuple[int, int, int]] = []  # (child, numerator, denominator)
    for (s, t), x in entries:
        i, j = at.get(s.hnf), at.get(t.hnf)
        if i is None or j is None:
            raise ValueError("cochain support escapes the sphere at this depth")
        if parent[j] == i:
            steps.append((j, x.numerator, x.denominator))
        elif parent[i] == j:
            steps.append((i, -x.numerator, x.denominator))
    den = lcm(*(d for _, _, d in steps))
    to_vertex = [0] * len(tree)
    for i, n, d in steps:  # one entry per edge, so one step per child
        to_vertex[i] = n * (den // d)
    for i in range(1, len(tree)):
        to_vertex[i] += to_vertex[parent[i]]
    return tree, to_vertex, den


def boundary_value(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> BoundaryFunction:
    """Ultimate value of omega along each end at the given depth.

    Requires the support of omega to sit inside the depth-r sphere at the
    origin, so integrals out of the sphere are settled.
    """
    tree, to_vertex, den = _integrals(omega, origin, depth, ctx)
    # the rim lists leaves by canonical form, the order BoundaryFunction
    # keeps, and its index range gives their values, so the result is
    # built unchecked
    rim = _shell(tree.depth, depth)
    parts = tuple(zip(tree._rim, [Fraction(to_vertex[i], den) for i in rim]))
    return _restore(BoundaryFunction, (depth, parts))


def primitive_cochain(
    omega: OneCochain, origin: LatticeClass, depth: int, ctx: PrimeContext
) -> ZeroCochain:
    """A finitely supported f with d f = omega, when the boundary value
    of omega at this depth is a constant c: f(s) = c - integral(origin->s).

    Far vertices then get c - c = 0, so the support stays inside the
    sphere; a non-constant boundary value is an error (no such f exists).
    The rim is compared and f built on the integer numerators, with one
    Fraction per vertex where f is nonzero; its vertices are the tree's
    own, so f is built unchecked, in the order of their forms.
    """
    tree, to_vertex, den = _integrals(omega, origin, depth, ctx)
    rim = {to_vertex[i] for i in _shell(tree.depth, depth)}
    if len(rim) != 1:
        raise ValueError("boundary value is not constant: omega is not a coboundary")
    (c,) = rim
    entries = [(v.hnf, v, Fraction(c - x, den)) for v, x in zip(tree.vertices, to_vertex) if x != c]
    return _restore(ZeroCochain, (_by_form(entries),))


def lift(g: BoundaryFunction, origin: LatticeClass, ctx: PrimeContext) -> OneCochain:
    """A 1-cochain on the rim edges whose boundary value is exactly g.

    Realizes g as the coboundary data of the vertex function equal to g
    on the depth-r leaves and 0 inside; only the rim edges carry values.
    The parts must be end_count(p, r) adjacent pairs (t, s) at distances
    r - 1 and r from the origin; ``BoundaryFunction`` has refused an edge
    named twice.  In a tree such a pair is (parent(s), s) for a leaf s at
    depth r, so the parts are checked against the rim edges of the shared
    ``vertex_tree`` to depth r, in order, by Hermite tuple and without
    hashing: the parts must be the rim edges themselves.  The same pass
    orients each rim edge as the cochain keys it, and the cochain is built
    unchecked on the tree's own vertices.
    """
    r = _field(g, BoundaryFunction, "depth", "g")
    rim = vertex_tree(ctx, origin, r)._rim
    if len(g.parts) != len(rim):
        raise ValueError("parts must enumerate the ends at this depth exactly once")
    # BoundaryFunction sorts its parts by leaf form, and the rim lists the
    # leaves of one shell, which the shell search orders by form too
    entries = []
    for ((t, s), x), (a, b) in zip(g.parts, rim):
        if t.hnf != a.hnf or s.hnf != b.hnf:
            raise ValueError(f"part is not a rim edge at depth {r}")
        entries.append(_entry(a, b, x))
    return _restore(OneCochain, (_by_form(entries),))


def end_chart(edge: Edge, ctx: PrimeContext) -> tuple[int, int]:
    """Projective coordinates of the end ball behind a rim edge.

    The deep vertex at depth r is the class of { x : x = lambda v mod
    p^r } for a primitive vector v, recovered from the canonical form and
    normalized to (1, y) with y mod p^r, or (x, 1) with p | x, x mod p^r.
    """
    t, s = _edge(edge)
    _require_tree(ctx, t, s)
    if t.valuation != s.valuation - 1 or not classes_adjacent(t, s, ctx):
        raise ValueError("edge must step outward from depth r - 1 to depth r")
    p, r = ctx.p, s.valuation
    (a, b), (_, d) = s.hnf
    if a == 1:
        return (1, b % p**r)
    if b % p:
        x = (a * pow(b, -1, p**r)) % p**r
        return (x, 1)
    if d == 1:
        return (0, 1)
    raise AssertionError("canonical form of a depth-r vertex must be primitive")
