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

``vertex_tree`` builds each sphere once per (context, origin, depth) and
hands every caller the same tree, which is read-only; ``boundary_value``
and ``primitive_cochain`` walk that shared tree instead of rebuilding it,
and ``lift`` checks its parts against the tree's rim edges.

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
from types import MappingProxyType
from typing import Mapping, Sequence

from .building import (
    LatticeClass,
    PrimeContext,
    _require_classes,
    _tree_neighbors,
    classes_adjacent,
    standard_lattice,
)
from .exact import SparseMap, Value, _fraction, _int, fraction_json

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
    "boundary_function_to_json",
]


def _require_tree(ctx: PrimeContext, *vertices: LatticeClass) -> None:
    if ctx.n != 2:
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
        return self.values.lookup(vertex)


def zero_cochain_from_map(values: Mapping[LatticeClass, Fraction]) -> ZeroCochain:
    return ZeroCochain(tuple(values.items()))


Edge = tuple[LatticeClass, LatticeClass]


class OneCochain(Value):
    """Antisymmetric rational function on oriented edges, finite support.

    ``values`` is a ``SparseMap`` with one value per unordered edge, on
    the orientation with the lexicographically smaller canonical form
    first; lookups on either orientation apply the sign.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[tuple[Edge, Fraction], ...]) -> None:
        acc: dict[Edge, Fraction] = {}
        for (s, t), x in values:
            if s == t:
                raise ValueError("an edge needs two distinct vertices")
            x = _fraction(x, "values")
            key, signed = ((s, t), x) if s.hnf < t.hnf else ((t, s), -x)
            if acc.setdefault(key, signed) != signed:
                raise ValueError("conflicting values on the two orientations of an edge")
        self._set(SparseMap._of(acc, lambda e: (e[0].hnf, e[1].hnf)))

    @property
    def support(self) -> tuple[Edge, ...]:
        return self.values.support()

    def value(self, s: LatticeClass, t: LatticeClass) -> Fraction:
        if s.hnf < t.hnf:
            return self.values.lookup((s, t))
        return -self.values.lookup((t, s))


def one_cochain_from_map(values: Mapping[Edge, Fraction]) -> OneCochain:
    return OneCochain(tuple(values.items()))


# -- tree structure -----------------------------------------------------------------


def vertex_neighbors(vertex: LatticeClass, ctx: PrimeContext) -> tuple[LatticeClass, ...]:
    """The p + 1 neighbors in canonical order: the index-p sublattices of
    the vertex, one per line of L / pL, in the closed form of the tree
    (Serre, *Trees*, Ch. II §1; ``building._tree_neighbors``)."""
    _require_tree(ctx, vertex)
    return tuple(sorted(_tree_neighbors(vertex, ctx.p), key=lambda v: v.hnf))


class VertexTree(Value):
    """Vertices within a depth around an origin, with BFS parents.

    Trees are cached and shared between callers, so every field is
    immutable: ``index`` is a read-only view.
    """

    __slots__ = ("ctx", "origin", "radius", "vertices", "depth", "parent", "index")

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
        self._set(ctx, origin, radius, vertices, depth, parent, index)

    def __reduce__(self) -> tuple:
        # the read-only index does not pickle; the shared tree is rebuilt
        return vertex_tree, (self.ctx, self.origin, self.radius)

    def __len__(self) -> int:
        return len(self.vertices)

    def shell(self, k: int) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.depth) if d == k)

    def ends(self) -> tuple[Edge, ...]:
        """Oriented rim edges (parent, leaf), leaves at the full depth."""
        rim = self.shell(self.radius)
        return tuple((self.vertices[self.parent[i]], self.vertices[i]) for i in rim)


def vertex_tree(ctx: PrimeContext, origin: LatticeClass, radius: int) -> VertexTree:
    """The vertices within the radius around the origin.  Built once per
    (ctx, origin, radius); every call returns that same read-only tree."""
    _require_tree(ctx, origin)
    _int(radius, "radius", 0)
    return _vertex_tree(ctx, origin, radius)


@functools.lru_cache(maxsize=32)  # a process meets few spheres; the bound caps a long-lived one
def _vertex_tree(ctx: PrimeContext, origin: LatticeClass, radius: int) -> VertexTree:
    vertices = [origin]
    index = {origin: 0}
    depth: list[int] = [0]
    parent: list[int | None] = [None]
    frontier = [0]
    for k in range(1, radius + 1):
        discovered: dict[LatticeClass, int] = {}
        for i in frontier:
            for nb in vertex_neighbors(vertices[i], ctx):
                if nb not in index and nb not in discovered:
                    discovered[nb] = i
        frontier = []
        for v in sorted(discovered, key=lambda v: v.hnf):
            frontier.append(len(vertices))
            index[v] = len(vertices)
            vertices.append(v)
            depth.append(k)
            parent.append(discovered[v])
    return VertexTree(
        ctx=ctx,
        origin=origin,
        radius=radius,
        vertices=tuple(vertices),
        depth=tuple(depth),
        parent=tuple(parent),
        index=MappingProxyType(index),
    )


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
    """d f with d f (s, t) = f(s) - f(t), on all edges meeting supp(f)."""
    _require_tree(ctx)
    out: dict[Edge, Fraction] = {}
    for s in f.support:
        for t in vertex_neighbors(s, ctx):
            out[(s, t)] = f.value(s) - f.value(t)
    return OneCochain(tuple(out.items()))


def integrate(omega: OneCochain, path: Sequence[LatticeClass], ctx: PrimeContext) -> Fraction:
    """Sum of omega along consecutive oriented edges of a vertex path."""
    _require_tree(ctx, *path)
    total = Fraction(0)
    for s, t in zip(path, path[1:]):
        if not classes_adjacent(s, t, ctx):
            raise ValueError("consecutive path vertices must be adjacent")
        total += omega.value(s, t)
    return total


# -- boundary values -------------------------------------------------------------------


class BoundaryFunction(Value):
    """Function on the ends at one depth: (rim edge, value) per end,
    with an optional projective chart per end.  The depth is an int; the
    values are ints or Fractions and become Fractions."""

    __slots__ = ("depth", "parts", "chart")

    def __init__(
        self,
        depth: int,
        parts: tuple[tuple[Edge, Fraction], ...],
        chart: tuple[tuple[tuple[int, int], Fraction], ...] | None = None,
    ) -> None:
        _int(depth, "depth")
        parts = ((e, _fraction(x, "values")) for e, x in parts)
        ordered = tuple(sorted(parts, key=lambda t: (t[0][1].hnf, t[0][0].hnf)))
        self._set(depth, ordered, chart)
        if chart is not None and len(chart) != len(ordered):
            raise ValueError("chart must name each end exactly once")

    def constant_value(self) -> Fraction | None:
        """The common value if the function is constant, else None."""
        vals = {x for _, x in self.parts}
        return vals.pop() if len(vals) == 1 else None

    def differs_by_constant(self, other: "BoundaryFunction") -> bool:
        if self.depth != other.depth or len(self.parts) != len(other.parts):
            return False
        gaps = set()
        for (e1, x1), (e2, x2) in zip(self.parts, other.parts):
            if e1 != e2:
                return False
            gaps.add(x1 - x2)
        return len(gaps) == 1


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


def lift(g: BoundaryFunction, origin: LatticeClass, ctx: PrimeContext) -> OneCochain:
    """A 1-cochain on the rim edges whose boundary value is exactly g.

    Realizes g as the coboundary data of the vertex function equal to g
    on the depth-r leaves and 0 inside; only the rim edges carry values.
    The parts must be end_count(p, r) distinct adjacent pairs (t, s) at
    distances r - 1 and r from the origin.  In a tree such a pair is
    (parent(s), s) for a leaf s at depth r, so the parts are checked
    against the rim edges of the shared ``vertex_tree`` to depth r.
    """
    _require_tree(ctx, origin)
    r = g.depth
    edges = {e for e, _ in g.parts}
    if len(g.parts) != end_count(ctx.p, r) or len(edges) != len(g.parts):
        raise ValueError("parts must enumerate the ends at this depth exactly once")
    if edges != set(vertex_tree(ctx, origin, r).ends()):
        raise ValueError(f"part is not a rim edge at depth {r}")
    return one_cochain_from_map(dict(g.parts))


def end_chart(edge: Edge, ctx: PrimeContext) -> tuple[int, int]:
    """Projective coordinates of the end ball behind a rim edge.

    The deep vertex at depth r is the class of { x : x = lambda v mod
    p^r } for a primitive vector v, recovered from the canonical form and
    normalized to (1, y) with y mod p^r, or (x, 1) with p | x, x mod p^r.
    """
    _require_tree(ctx, *edge)
    t, s = edge
    r = s.valuation
    if r < 1:
        raise ValueError("the deep vertex of an end must have positive depth")
    if t.valuation != r - 1 or not classes_adjacent(t, s, ctx):
        raise ValueError("edge must step outward from depth r - 1 to depth r")
    return _chart(s, ctx.p)


def _chart(s: LatticeClass, p: int) -> tuple[int, int]:
    """``end_chart`` of a rim edge known to step outward to s."""
    r = s.valuation
    (a, b), (_, d) = s.hnf
    if a == 1:
        return (1, b % p**r)
    if b % p:
        x = (a * pow(b, -1, p**r)) % p**r
        return (x, 1)
    if d == 1:
        return (0, 1)
    raise AssertionError("canonical form of a depth-r vertex must be primitive")


def boundary_function_to_json(g: BoundaryFunction) -> list[dict]:
    """Records {edge, value, chart}; chart is null when not anchored."""
    chart_by_pos = list(g.chart) if g.chart is not None else [None] * len(g.parts)
    out = []
    for ((t, s), value), chart in zip(g.parts, chart_by_pos):
        out.append(
            {
                "edge": [[list(row) for row in t.hnf], [list(row) for row in s.hnf]],
                "value": fraction_json(value),
                "chart": None if chart is None else [chart[0][0], chart[0][1]],
            }
        )
    return out
