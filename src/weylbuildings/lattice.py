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

Arithmetic is exact, and inside this module it is integer arithmetic:
``lattice_from_rows`` scales its rows to integers once.  The canonical
matrix of a derived class comes from ``_class_of``: given
upper-triangular rows with a p-power diagonal and their determinant
valuation v, it reduces the entries above the diagonal and strips the
p-content.  The chamber stars write that step out for their own rows:
``_tree_neighbors`` on the tree, ``building._kernels`` for n = 3.  Caller
rows first go through ``_hermite_rows``, an elimination modulo p^(v+1)
that yields triangular rows of the same span, because row operations are
unimodular over Z_p, and asserts that the diagonal exponents sum to v;
``lattice_from_rows`` reads v off the maximal minors.  Every
``LatticeClass`` records the valuation of its form, so labels and
chain-step gaps never re-derive it.

One rule, ``_chain_step``, decides an index-p step a > p^k b of a flag:
the valuation gap fixes k, and then the step is one containment.
``classes_adjacent`` is that rule on a pair oriented by label.

``_shells`` runs on plain keys, tuples of Hermite rows that C hashes and
orders: ``building.ball`` keys a chamber by the rows of its flag, and
``boundary.vertex_tree`` a vertex by its rows.  Its distances never
decrease, so ``_shell`` reads a ball's or a tree's shell as one range.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

from .exact import Value, _field, _fraction, _int

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


# -- valuations and determinants ---------------------------------------------


def _val_int(x: int, p: int) -> int:
    if not x:
        raise ValueError("the valuation of x = 0 is not defined: x must be nonzero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _integer_rows(rows: Sequence[Sequence[Fraction | int]], p: int) -> list[list[int]]:
    """The rows times the least power of p that makes them integral; every
    entry must be an int or a Fraction whose denominator is a power of p."""
    scale = 1
    for row in rows:
        for x in row:
            d = _fraction(x, "entries").denominator
            if d != p ** _val_int(d, p):
                raise ValueError("denominators must be powers of p")
            scale = max(scale, d)
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _det(m: Sequence[Sequence]) -> object:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise ValueError("determinants only needed for n <= 3")


# -- Hermite form over Z_p ----------------------------------------------------


def _hermite_rows(rows: Sequence[Sequence[int]], p: int, valuation: int) -> list[list[int]]:
    """n upper-triangular rows with p-power diagonal that span the same
    Z_p-lattice as the given integer rows, whose span has v = v_p(det).

    Works modulo p^(v + 1), which yields rows of the span plus
    p^(v + 1) Z_p^n: their diagonal exponents are min(e_i, v + 1) for the
    elementary divisor exponents e_i of the span.  They sum to v exactly
    when the span's valuation is v, and then every e_i <= v, so the span
    already contains p^(v + 1) Z_p^n and the rows span it exactly.  Any
    other valuation raises AssertionError.  All row operations are
    unimodular over Z_p.  The entries above the diagonal are left for
    ``_class_of`` to reduce.
    """
    n = len(rows[0])
    cap = valuation + 1
    modulus = p**cap
    work = [[x % modulus for x in row] for row in rows]
    m = len(work)
    diag: list[int] = []
    for col in range(n):
        # the pivot is the first row of least valuation in the column
        a, pivot = min((_val_int(x, p) if (x := work[r][col]) else cap, r) for r in range(col, m))
        if a == cap:
            raise AssertionError("rows do not span a lattice of the expected valuation")
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col] // p**a, -1, modulus)
        work[col] = [(x * inv) % modulus for x in work[col]]
        work[col][col] = p**a
        diag.append(a)
        for r in range(col + 1, m):
            if f := work[r][col] // p**a:
                work[r] = [(y - f * z) % modulus for y, z in zip(work[r], work[col])]
    if sum(diag) != valuation:
        raise AssertionError("rows do not span a lattice of the expected valuation")
    return work[:n]


def _class_of(rows: list[list[int]], p: int, valuation: int) -> LatticeClass:
    """Class of the lattice spanned by upper-triangular integer rows with a
    p-power diagonal, given v = v_p(det) of that span; the rows are
    rewritten in place.  Each entry above the diagonal is reduced modulo
    the diagonal entry of its column, in exact integers, which gives the
    one Hermite form of the lattice (Cohen, GTM 138, §2.4).  Then p is
    divided out while it divides every entry, each time taking n from v,
    which leaves the canonical, primitive form of the class."""
    n = len(rows)
    for c in range(1, n):
        d = rows[c][c]
        for row in rows[:c]:
            if t := row[c] // d:
                row[:] = [x - t * y for x, y in zip(row, rows[c])]
    while not any(x % p for row in rows for x in row):
        rows = [[x // p for x in row] for row in rows]
        valuation -= n
    return LatticeClass(tuple(map(tuple, rows)), valuation)


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


def lattice_from_rows(rows: Sequence[Sequence[Fraction | int]], p: int) -> LatticeClass:
    """Canonicalize the homothety class spanned by the given generating rows.

    Entries are ints or Fractions with p-power denominators, for a prime
    int p.  The rows are scaled to integers by the largest denominator,
    then canonicalized in integer arithmetic.  Extra rows beyond n are
    allowed as long as the span is full.
    """
    _prime(p)
    if not isinstance(rows, Sequence) or not all(isinstance(row, Sequence) for row in rows):
        raise ValueError(f"rows must be a sequence of rows of entries, got {rows!r}")
    if not rows or not rows[0]:
        raise ValueError("need at least n rows of length n, for some n >= 1")
    n = len(rows[0])
    if any(len(row) != n for row in rows) or len(rows) < n:
        raise ValueError(f"need at least {n} rows of length {n}")
    return _canonical(_integer_rows(rows, p), p)


def _canonical(rows: Sequence[Sequence[int]], p: int, valuation: int | None = None) -> LatticeClass:
    """Class of the Z_p-span of integer rows: ``_hermite_rows`` makes them
    triangular relative to the span's determinant valuation, and
    ``_class_of`` reduces them and strips their p-content.  A caller that
    knows that valuation passes it (``_hermite_rows`` asserts it);
    otherwise it is read off the maximal minors."""
    if not any(x for row in rows for x in row):
        raise ValueError("zero matrix spans no lattice")
    if valuation is None:
        # the lattice determinant valuation is the minimum over maximal minors
        minors = [d for m in itertools.combinations(rows, len(rows[0])) if (d := _det(m))]
        if not minors:
            raise ValueError("rows do not span a full lattice")
        valuation = min(_val_int(d, p) for d in minors)
    return _class_of(_hermite_rows(rows, p, valuation), p, valuation)


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
    reduced, and its p-content is 0 or 1."""
    (x, y), (_, z) = vertex.hnf
    spans = [(p * x, p * y % z, z)] + [(x, y + t * z, p * z) for t in range(p)]
    v = vertex.valuation + 1
    return [
        LatticeClass(((d0, m), (0, d1)), v)
        if d0 % p or m % p or d1 % p
        else LatticeClass(((d0 // p, m // p), (0, d1 // p)), v - 2)
        for d0, m, d1 in spans
    ]


_first = operator.itemgetter(0)


def _shells(start: tuple, radius: int, step) -> tuple:
    """Breadth-first shells out to the radius, on plain keys.  ``start`` and
    every neighbor are (key, item) pairs whose keys are hashable, ordered
    and name the item; ``step(i, item)`` returns (tag, neighbors) groups.  A
    neighbor's first finder is its parent, and each new shell is indexed in
    key order.  Returns the items, distances, parents and tags, and the
    last (unexpanded) shell; each caller builds its own public index."""
    key, item = start
    seen, items, distance, parent, tags = {key}, [item], [0], [None], [None]
    frontier = range(1)
    for depth in range(1, radius + 1):
        found = []
        for i in frontier:
            for tag, group in step(i, items[i]):
                for key, item in group:
                    if key not in seen:
                        seen.add(key)
                        found.append((key, i, tag, item))
        found.sort(key=_first)  # keys are distinct, so the sort reads them alone
        frontier = range(len(items), len(items) + len(found))
        _, sources, steps, new = list(zip(*found)) or [()] * 4
        items += new
        parent += sources
        tags += steps
        distance += [depth] * len(new)
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
for _public in (PrimeContext, LatticeClass, lattice_from_rows, standard_lattice, vertex_label,
                classes_adjacent):
    _public.__module__ = "weylbuildings.building"
