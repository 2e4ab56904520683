"""Vertices of the affine building of GL(n) over Q_p, n in {2, 3}: the
lattice classes, their adjacency, the neighbors on the n = 2 tree and the
breadth-first shell search, under both ``building`` and ``boundary``.

Internal: ``building`` re-exports the public names, and the chamber layer
stays there, so ``boundary`` reads the tree without compiling it.  Each
public name's ``__module__`` is ``weylbuildings.building``, the module
the package lists it under.

Vertices are homothety classes [L] of full Z_p-lattices L in Q_p^n; the
class [L] is stored as a canonical integer matrix: the upper-triangular
Hermite form of a basis (the lattice is the Z_p-span of the rows),
diagonal entries powers of p, each off-diagonal entry reduced modulo the
diagonal entry of its column, scaled by the homothety so the minimum
valuation over all entries is 0.  Two lattices are homothetic iff their
canonical matrices are equal.  The vertex labelling
lambda([L]) = v_p(det L) mod n makes every chamber hit each label
exactly once.

Arithmetic is exact, and inside this module it is integer arithmetic.
A derived class's canonical matrix is written out where the class is
made: given upper-triangular rows with a p-power diagonal and their
determinant valuation v, the entries above the diagonal are reduced and
the p-content is stripped, by ``_tree_neighbors`` on the tree and
``building._kernels`` for n = 3.  Caller rows, of ``lattice_from_rows``
and of the group action, go through the internal ``action`` module
instead, whose Hermite elimination and ``_class_of`` no star, ball or
tree runs.  Every ``LatticeClass`` records the valuation of its form, so
labels and chain-step gaps never re-derive it.

One rule, ``_chain_step``, decides an index-p step a > p^k b of a flag:
the valuation gap fixes k, and then the step is one containment.
``classes_adjacent`` is that rule on a pair oriented by label.

``_shells`` runs on plain keys, tuples of Hermite rows that C hashes and
orders: ``building.ball`` keys a chamber by the rows of its flag, and
``boundary.vertex_tree`` a vertex by its rows.  It keeps no set of every
key it met.  A tree vertex's neighbors are its parent and vertices one
step further out.  A face of a ball is first met by its gate, its unique
closest chamber, whose star holds the gate and p chambers one step
further out (Abramenko and Brown, *Buildings*, on projections).  So the
search skips a neighbor keyed as its finder or its finder's parent, and
keeps the first finder of a key found twice in one shell.  Its distances
never decrease, so ``_shell`` reads a ball's or a tree's shell as one
range.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import groupby
from typing import Sequence

from .exact import Value, _field, _int

IntMatrix = tuple[tuple[int, ...], ...]


def _prime(p: int) -> int:
    """p if it is a prime int; ValueError naming it otherwise."""
    if _int(p, "p") < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


class PrimeContext(Value):
    """Ambient data: the prime p and the dimension n.

    All arithmetic is exact, so there is no p-adic working precision.  The
    ``precision`` keyword is still accepted for callers written against the
    older signature; it is neither stored nor read, so contexts that differ
    only in it are equal and share every per-context cache.
    """

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int, precision: int | None = None) -> None:
        self._set(p, n)
        _prime(p)
        if _int(n, "n") not in (2, 3):
            raise ValueError("only n = 2 and n = 3 are supported")


def _dimension(ctx: PrimeContext) -> int:
    """ctx's n, read through the ``PrimeContext`` slot: ValueError naming
    ctx for a value of any other kind (``exact._field``).  The first read
    of the context in each public function that takes one."""
    return _field(ctx, PrimeContext, "n", "ctx")


# -- valuations -------------------------------------------------------------------


def _val_int(x: int, p: int) -> int:
    if not x:
        raise ValueError("the valuation of x = 0 is not defined: x must be nonzero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# -- lattice classes -----------------------------------------------------------


class LatticeClass(Value):
    """Homothety class of a lattice, held as its canonical Hermite matrix.

    ``valuation`` is v_p(det) of that matrix, the sum of its diagonal
    exponents, recorded when the form is built; equality and hashing use
    ``hnf`` alone.
    """

    __slots__ = ("hnf", "valuation")
    _uncompared = ("valuation",)

    def __init__(self, hnf: IntMatrix, valuation: int) -> None:
        # the slots' own setters, at half the cost of ``object.__setattr__``:
        # a ball builds about one class per chamber
        _set_hnf(self, hnf)
        _set_valuation(self, valuation)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is LatticeClass:
            return self.hnf == other.hnf
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.hnf,))

    @property
    def n(self) -> int:
        return len(self.hnf)

    def scaled_rows(self, p: int, k: int) -> list[list[int]]:
        # integer rows of p^k times the canonical representative, k >= 0
        f = p**k
        return [[x * f for x in row] for row in self.hnf]


_set_hnf, _set_valuation = LatticeClass.hnf.__set__, LatticeClass.valuation.__set__


def standard_lattice(ctx: PrimeContext) -> LatticeClass:
    n = _dimension(ctx)
    eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return LatticeClass(eye, 0)


def vertex_label(cls: LatticeClass, ctx: PrimeContext) -> int:
    """Label of the vertex: sum of elementary divisor exponents mod n.

    Equals v_p(det) of the canonical representative mod n; homothety
    rescaling shifts the determinant valuation by multiples of n.
    """
    _require_classes(ctx, cls)
    return cls.valuation % ctx.n


def _require_classes(ctx: PrimeContext, *classes: LatticeClass) -> None:
    """ValueError unless each class is a ``LatticeClass``, n x n, and the
    product of its Hermite diagonal is p ** valuation, as for every class
    built under ctx; ValueError naming ctx unless it is a context.  It runs
    once per face ``ball`` expands, so the context is caught where its
    first read fails, with no check beside it."""
    try:
        n, p = ctx.n, ctx.p
    except AttributeError:
        n, p = _field(ctx, PrimeContext, "n", "ctx"), ctx.p
    for c in classes:
        if not isinstance(c, LatticeClass):
            raise _not_a_class(classes)
        if c.n != n:
            raise ValueError(f"expected a {n}x{n} class, got {c.n}x{c.n}: {c.hnf}")
        if math.prod(row[i] for i, row in enumerate(c.hnf)) != p**c.valuation:
            raise ValueError(f"expected a class of the p = {p} building, got {c.hnf}")


def _not_a_class(values: Sequence[object]) -> ValueError:
    """The error for the first value that is not a ``LatticeClass``."""
    bad = next(x for x in values if not isinstance(x, LatticeClass))
    return ValueError(f"expected a lattice class, got {bad!r}")


# -- membership ----------------------------------------------------------------


def _coordinates(basis_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int] | None:
    """Coordinates of an integer vector over an upper-triangular basis with
    p-power diagonal, by back-substitution; None when the vector is not in
    the Z_p-span (a coordinate would need p in its denominator)."""
    v = list(vec)
    coords: list[int] = []
    for i, row in enumerate(basis_rows):
        c, rest = divmod(v[i], row[i])
        if rest:
            return None
        coords.append(c)
        if c:  # only the entries after i are read again
            for j in range(i + 1, len(v)):
                v[j] -= c * row[j]
    return coords


def _chain_step(a: LatticeClass, b: LatticeClass, ctx: PrimeContext) -> list[list[int]] | None:
    """Coordinates over a's Hermite rows of the rows of the homothety
    rescaling B = p^k b with a > B of index p, or None when there is none:
    B needs valuation v(a) + 1, and then index p is containment.  Both
    bases are upper triangular with a p-power diagonal, so the coordinates
    are too, and their diagonal exponents sum to 1."""
    k, rest = divmod(a.valuation + 1 - b.valuation, ctx.n)
    if rest or k < 0:
        return None
    coordinates = [_coordinates(a.hnf, row) for row in b.scaled_rows(ctx.p, k)]
    return None if None in coordinates else coordinates


def _oriented(u: LatticeClass, v: LatticeClass, n: int) -> tuple[LatticeClass, LatticeClass]:
    # the pair ordered so that the second label is the first plus one, if either is
    return (u, v) if (v.valuation - u.valuation) % n == 1 else (v, u)


def classes_adjacent(u: LatticeClass, v: LatticeClass, ctx: PrimeContext) -> bool:
    """Whether [u] and [v] span an edge of the building.

    Adjacency means some representatives satisfy u > v' > p u.  Along a
    chamber's flag each index-p step raises the label by one, so the
    labels fix the orientation: the edge is an index-p step from the class
    whose label is one less.  For n = 2 both orders are such steps; equal
    labels, and so u = v, admit none.
    """
    _require_classes(ctx, u, v)
    return _chain_step(*_oriented(u, v, ctx.n), ctx) is not None


# -- the n = 2 tree and the shell search --------------------------------------


def _tree_neighbors(vertex: LatticeClass, p: int) -> list[LatticeClass]:
    """The p + 1 neighbors of a vertex L of the n = 2 tree: <p r0, r1> and
    <r0 + t r1, p r1>, one per line of L / pL (Serre, *Trees*, Ch. II §1).
    They are the kernels of all p + 1 functionals on L / pL, since an
    n = 2 face leaves no line to vanish on, written out as
    ``building._kernels`` writes the n = 3 ones: each span is already
    reduced, and its p-content is 0 or 1.

    Each span is its diagonal entries and the entry above them, (d0, m)
    and its second row, then that row with the content stripped.  Rows
    are immutable, so neighbors share them: the p neighbors
    <r0 + t r1, p r1> that keep their content share one (0, p z) row, and
    <p r0, r1> when it keeps its content, or an <r0 + t r1, p r1> when it
    loses it, takes the vertex's own (0, z)."""
    (x, y), row = vertex.hnf
    z, v = row[1], vertex.valuation + 1
    wide = (0, p * z)
    spans = [(p * x, p * y % z, row, (0, z // p))]
    spans += [(x, y + t * z, wide, row) for t in range(p)]
    return [
        LatticeClass(((d0, m), low), v)
        if d0 % p or m % p or low[1] % p
        else LatticeClass(((d0 // p, m // p), stripped), v - 2)
        for d0, m, low, stripped in spans
    ]


_first = operator.itemgetter(0)


def _shells(start: tuple, radius: int, step) -> tuple:
    """Breadth-first shells out to the radius, on plain keys.  ``start`` and
    every neighbor are (key, item) pairs whose keys are hashable, ordered
    and name the item; ``step(i, item)`` returns (tag, neighbors) groups.

    Every neighbor a step returns is the item itself, the item's parent or
    an item one shell further out, so the search skips a neighbor whose
    key is its finder's own or its finder's parent's, and keeps no set of
    every key met: only the keys of the frontier and of the shell before
    it.  Each new shell is indexed in key order and appended to the lists
    column by column; of a key found twice in one shell the stable sort
    leaves the first finder first, and that entry is kept, so a neighbor's
    first finder is its parent.  Returns the items, distances, parents and
    tags, and the last (unexpanded) shell; each caller builds its own
    public index."""
    key, item = start
    items, distance, parent, tags = [item], [0], [None], [None]
    # the frontier and the shell before it, each with its keys in index order
    frontier, keys, back, back_keys = range(1), [key], range(0), []
    for depth in range(1, radius + 1):
        found = []
        for i, own in zip(frontier, keys):
            up = parent[i]
            above = None if up is None else back_keys[up - back.start]
            for tag, group in step(i, items[i]):
                for key, item in group:
                    if key != own and key != above:
                        found.append((key, i, tag, item))
        found.sort(key=_first)
        found = [next(twins) for _, twins in groupby(found, _first)]
        back, back_keys = frontier, keys
        frontier = range(len(items), len(items) + len(found))
        keys = [entry[0] for entry in found]
        # each list takes its column of the sorted shell straight: a
        # transposed copy of the largest shell would raise the peak
        for column, out in enumerate((parent, tags, items), 1):
            out += map(operator.itemgetter(column), found)
        distance += [depth] * len(found)
    return tuple(items), tuple(distance), tuple(parent), tuple(tags), frontier


def _shell(distance: Sequence[int], k: int) -> range:
    """The indices at distance k, for an int k: ``_shells`` indexes shell by
    shell, so the distances are nondecreasing and each shell is the one
    range that bisection finds, with no scan.  ``BallGraph.shell`` and
    ``VertexTree.shell`` read it."""
    _int(k, "k")
    return range(bisect_left(distance, k), bisect_right(distance, k))


# the package lists these under ``building``, which re-exports them: pickles
# and tools that look a public name up by its module find it there
for _public in (PrimeContext, LatticeClass, standard_lattice, vertex_label, classes_adjacent):
    _public.__module__ = "weylbuildings.building"
