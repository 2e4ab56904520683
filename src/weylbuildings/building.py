"""Lattice model of the affine building of GL(n) over Q_p, n in {2, 3}.

Vertices are homothety classes [L] of full Z_p-lattices L in Q_p^n; the
class [L] is stored as a canonical integer matrix: the upper-triangular
Hermite form of a basis (the lattice is the Z_p-span of the rows),
diagonal entries powers of p, each off-diagonal entry reduced modulo the
diagonal entry of its column, scaled by the homothety so the minimum
valuation over all entries is 0.  Two lattices are homothetic iff their
canonical matrices are equal.

A chamber is a cyclic flag

    L_0 > L_1 > ... > L_{n-1} > p L_0

with one-dimensional successive quotients over the residue field.  The n
rotations of the cycle present the same chamber; the stored representative
starts at the lexicographically least rotation.  A codimension-1 face
drops one class and is contained in exactly p + 1 chambers, one for each
line of the two-dimensional residue quotient it leaves open.  ``ball``
enumerates all chambers within a gallery radius of a base chamber, which
is the raw material for shell counts, harmonic cochains and period sums
elsewhere.  Its breadth-first shell search, ``_shells``, also builds the
vertex tree of the ``boundary`` module.

The vertex labelling lambda([L]) = v_p(det L) mod n makes every chamber
hit each label exactly once; a face's type is the label it omits.
Generator i of the affine Weyl group A(n-1)~ is the index i; it crosses
the standard chamber's face of type -i mod n (``generator_face_types``).
GL_n(Q_p) acts by g.[L] = [gL]; the label permutation induced by g is the
power of an n-cycle given by v_p(det g), whence the sign character
epsilon(g) = (-1)^((n-1) v_p(det g)).  Both computations of epsilon live
here and must agree.

Arithmetic is exact, and inside this module it is integer arithmetic.
``Fraction`` enters only at the public entry points that take or return
rational matrices: ``lattice_from_rows``, ``act``, the ``epsilon``
functions, ``affine_generator_matrix`` and ``label_shift_matrix``.
``lattice_from_rows`` scales its rows to integers once, and ``act``
scales g once to the integer matrix p^a g, which moves no homothety
class; ``weyl_to_chamber`` applies the generators one at a time through
``act``.  Everything after that (Hermite normalization, membership and
the kernels behind ``chambers_containing``) works on Python integers.
The canonical matrix of a derived class comes from one function,
``_class_of``: given upper-triangular rows with a p-power diagonal and
their determinant valuation v, it reduces the entries above the diagonal
and strips the p-content (``_tree_neighbors`` is its closed form on the
tree).  Caller rows and images under ``act`` first go through
``_hermite_rows``, an elimination modulo p^(v+1) that yields triangular
rows of the same span, because row operations are unimodular over Z_p,
and asserts that the diagonal exponents sum to v.  Every
``LatticeClass`` records the valuation of its form, so labels and
chain-step gaps never re-derive it.

Two kinds of flags are checked in two ways.  Flags that callers supply
go through ``make_chamber``, which tests every chain step by membership;
``lattice_from_rows`` reads v off the maximal minors of caller rows.
Flags that ``chambers_containing`` builds skip both.  The vertex a face
misses is an index-p sublattice of a face vertex L, the kernel of a
nonzero functional on L / pL (Abramenko and Brown, *Buildings*, the SL_n
example); on L's Hermite rows that kernel is triangular, so it goes
straight to ``_class_of``, with no elimination.  An n = 3 face is
checked by one containment, and either way the star must hold exactly
p + 1 distinct chambers.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import Value, _fraction, _int

__all__ = [
    "PrimeContext",
    "LatticeClass",
    "lattice_from_rows",
    "standard_lattice",
    "vertex_label",
    "FlagChamber",
    "make_chamber",
    "standard_chamber",
    "Face",
    "face_of",
    "face_type",
    "chambers_containing",
    "classes_adjacent",
    "act",
    "epsilon",
    "epsilon_from_labels",
    "epsilon_from_determinant",
    "affine_generator_matrix",
    "label_shift_matrix",
    "generator_face_types",
    "weyl_to_chamber",
    "BallGraph",
    "ball",
    "ball_to_json",
]

IntMatrix = tuple[tuple[int, ...], ...]
QMatrix = tuple[tuple[Fraction, ...], ...]


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


# -- valuations and determinants ---------------------------------------------


def _val_int(x: int, p: int) -> int:
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
        object.__setattr__(self, "hnf", hnf)
        object.__setattr__(self, "valuation", valuation)

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
    eye = tuple(tuple(1 if i == j else 0 for j in range(ctx.n)) for i in range(ctx.n))
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
    built under ctx."""
    n, p = ctx.n, ctx.p
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
        if c:
            v = [y - c * z for y, z in zip(v, row)]
    return coords


def _contains_lattice(outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]]) -> bool:
    return all(_coordinates(outer_rows, row) is not None for row in inner_rows)


def _chain_step_ok(a: LatticeClass, b: LatticeClass, ctx: PrimeContext) -> bool:
    # some homothety rescaling B of b satisfies a > B with index p
    p, n = ctx.p, ctx.n
    gap = a.valuation + 1 - b.valuation
    if gap % n or gap < 0:
        return False
    return _contains_lattice(a.hnf, b.scaled_rows(p, gap // n))


def classes_adjacent(u: LatticeClass, v: LatticeClass, ctx: PrimeContext) -> bool:
    """Whether [u] and [v] span an edge of the building.

    Adjacency means some representatives satisfy u > v' > p u.  Along a
    chamber's flag each index-p step raises the label by one, so the
    labels fix the orientation: the edge is an index-p step from the class
    whose label is one less.  For n = 2 both orders are such steps; equal
    labels, and so u = v, admit none.
    """
    _require_classes(ctx, u, v)
    if (v.valuation - u.valuation) % ctx.n != 1:
        u, v = v, u
    return _chain_step_ok(u, v, ctx)


# -- chambers --------------------------------------------------------------------


class FlagChamber(Value):
    """Cyclic flag of n lattice classes, stored from its least class: a
    chamber's classes carry distinct labels, so that is its least rotation."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[LatticeClass, ...]) -> None:
        if not classes:
            raise ValueError("empty flag")
        try:
            best = min(range(len(classes)), key=lambda i: classes[i].hnf)
        except AttributeError:
            raise _not_a_class(classes) from None
        object.__setattr__(self, "classes", classes[best:] + classes[:best] if best else classes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is FlagChamber:
            return self.classes == other.classes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.classes,))

    @property
    def n(self) -> int:
        return len(self.classes)

    def sort_key(self) -> tuple:
        return tuple(c.hnf for c in self.classes)


def make_chamber(classes: Sequence[LatticeClass], ctx: PrimeContext) -> FlagChamber:
    """Validated chamber from a caller-supplied cyclic flag of n classes."""
    cs = tuple(classes)
    if len(cs) != ctx.n:
        raise ValueError(f"a chamber needs exactly {ctx.n} classes")
    _require_classes(ctx, *cs)
    if len(set(cs)) != len(cs):
        raise ValueError("flag classes must be distinct")
    for i in range(len(cs)):
        if not _chain_step_ok(cs[i], cs[(i + 1) % len(cs)], ctx):
            raise ValueError("classes do not form an index-p cyclic flag")
    return FlagChamber(cs)


def standard_chamber(ctx: PrimeContext) -> FlagChamber:
    """The coordinate flag: L_k = diag(1, ..., 1, p, ..., p), k entries p."""
    n, p = ctx.n, ctx.p
    classes = []
    for k in range(n):
        rows = tuple(
            tuple((p if i >= n - k else 1) if i == j else 0 for j in range(n))
            for i in range(n)
        )
        classes.append(LatticeClass(rows, k))
    return make_chamber(classes, ctx)


# -- faces ------------------------------------------------------------------------


class Face(Value):
    """Codimension-1 simplex: an unordered set of n - 1 vertex classes."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[LatticeClass, ...]) -> None:
        try:
            ordered = tuple(sorted(classes, key=lambda c: c.hnf))
        except AttributeError:
            raise _not_a_class(classes) from None
        object.__setattr__(self, "classes", ordered)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Face:
            return self.classes == other.classes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.classes,))


def face_of(chamber: FlagChamber, position: int) -> Face:
    """Face obtained by dropping the flag entry at a position in 0..n-1."""
    cs = chamber.classes
    if not 0 <= _int(position, "position") < len(cs):
        raise ValueError(f"position must be in 0..{len(cs) - 1}, got {position!r}")
    return Face(cs[:position] + cs[position + 1 :])


def face_type(face: Face, ctx: PrimeContext) -> int:
    """The vertex label missing from the face."""
    if not isinstance(face, Face):
        raise ValueError(f"expected a Face, got {face!r}")
    _require_classes(ctx, *face.classes)
    return _face_type(face, ctx.n)


def _face_type(face: Face, n: int) -> int:
    # unchecked, for the faces the building enumerates itself
    missing = set(range(n)) - {c.valuation % n for c in face.classes}
    if len(missing) != 1:
        raise ValueError("face vertices do not carry distinct labels")
    return missing.pop()


@functools.lru_cache(maxsize=32)  # a process meets few primes; the bound caps a long-lived one
def _functionals(n: int, p: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonzero functionals phi on F_p^n up to scalars, each scaled to 1
    at its last nonzero entry j, as pairs (j, phi)."""
    return tuple(
        (j, head + (1,) + (0,) * (n - 1 - j))
        for j in range(n)
        for head in itertools.product(range(p), repeat=j)
    )


def _sublattices(vertex: LatticeClass, line: Sequence[int], p: int) -> list[LatticeClass]:
    """Classes of the index-p sublattices of L = vertex that contain a line
    of L / pL, given over L's Hermite rows r_0..r_(n-1); the zero line
    gives all of them.  They are the kernels of the ``_functionals`` phi
    that vanish on the line, r_i - phi_i r_j (i < j), p r_j, r_i (i > j):
    upper triangular with a p-power diagonal, so ``_class_of`` reduces them
    and strips their p-content, which is 0 or 1 since the kernel contains
    pL with L primitive."""
    basis, n = vertex.hnf, vertex.n
    v = vertex.valuation + 1
    out = []
    for j, phi in _functionals(n, p):
        if sum(f * x for f, x in zip(phi, line)) % p:
            continue
        rj = basis[j]
        rows = [[x - f * y for x, y in zip(r, rj)] for r, f in zip(basis[:j], phi)]
        rows += [[p * y for y in rj]] + [list(r) for r in basis[j + 1 :]]
        out.append(_class_of(rows, p, v))
    return out


def _tree_neighbors(vertex: LatticeClass, p: int) -> list[LatticeClass]:
    """The p + 1 neighbors of a vertex L of the n = 2 tree: <p r0, r1> and
    <r0 + t r1, p r1>, one per line of L / pL (Serre, *Trees*, Ch. II §1).
    This is the closed form of ``_sublattices`` plus ``_class_of`` on the
    zero line, with t in place of -t: each span is already reduced, and its
    p-content is 0 or 1.  It is written out because the tree's stars are
    about twice as fast without the generic rows and helper."""
    (x, y), (_, z) = vertex.hnf
    spans = [(p * x, p * y % z, z)] + [(x, y + t * z, p * z) for t in range(p)]
    v = vertex.valuation + 1
    out = []
    for d0, m, d1 in spans:
        if d0 % p or m % p or d1 % p:
            out.append(LatticeClass(((d0, m), (0, d1)), v))
        else:
            out.append(LatticeClass(((d0 // p, m // p), (0, d1 // p)), v - 2))
    return out


def chambers_containing(
    face: Face | Sequence[LatticeClass], ctx: PrimeContext
) -> tuple[FlagChamber, ...]:
    """All p + 1 chambers containing a codimension-1 face, sorted.

    The missing vertex is an index-p sublattice of a face vertex that
    contains a line (``_sublattices``).  For n = 2 the face is one vertex,
    the line is zero and ``_tree_neighbors`` writes the star out.  For
    n = 3, with label(last) = label(first) + 1 and k = (v(first) + 1 -
    v(last)) / 3, the face chains as first > p^k last by an index-p step;
    that one containment checks the face, since an index-p sublattice of
    first contains p first.  The missing vertex lies in p^k last and
    contains p first, whose line is a coordinate row nonzero mod p.
    """
    classes = tuple(face.classes) if isinstance(face, Face) else tuple(face)
    p, n = ctx.p, ctx.n
    if len(classes) != n - 1:
        raise ValueError(f"a codimension-1 face has {n - 1} classes")
    _require_classes(ctx, *classes)
    if n == 2:
        flag, middles = classes, _tree_neighbors(classes[0], p)
    else:
        first, last = classes
        if (last.valuation - first.valuation) % n != 1:
            first, last = last, first
        k, rest = divmod(first.valuation + 1 - last.valuation, n)
        outer = last.scaled_rows(p, k) if k >= 0 and not rest else None
        if outer is None or not _contains_lattice(first.hnf, outer):
            raise ValueError("classes do not bound a codimension-1 face")
        flag = (first, last)
        for row in first.scaled_rows(p, 1):
            line = _coordinates(outer, row)
            if any(x % p for x in line):
                break
        middles = _sublattices(last, line, p)
    chambers = [FlagChamber(flag + (m,)) for m in middles]
    if len(set(chambers)) != p + 1:
        raise AssertionError("a face must lie in exactly p + 1 chambers")
    return tuple(sorted(chambers, key=FlagChamber.sort_key))


# -- group action -------------------------------------------------------------------


def _integral_matrix(
    g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext
) -> tuple[list[list[int]], int]:
    """The integer matrix p^a g for the least such a >= 0, and the
    valuation of its determinant.  Raises ValueError unless g is an
    invertible n x n matrix whose denominators are powers of p."""
    n = ctx.n
    if len(g) != n or any(len(r) != n for r in g):
        raise ValueError(f"matrix must be {n} x {n}")
    gi = _integer_rows(g, ctx.p)
    d = _det(gi)
    if d == 0:
        raise ValueError("matrix is singular")
    return gi, _val_int(d, ctx.p)


def act(g: Sequence[Sequence[Fraction | int]], x, ctx: PrimeContext):
    """Left action of g in GL_n(Q_p) on a lattice class or a chamber.

    Basis vectors are the rows r_i of the stored matrix; the image lattice
    is spanned by the rows r_i g^T.  The action is taken through the
    integer matrix g' = p^a g, which gives the same classes since p^a is a
    homothety; the image of a class of valuation v then has valuation
    v + v_p(det g'), which ``_hermite_rows`` asserts.
    """
    gi, shift = _integral_matrix(g, ctx)

    def image(cls: LatticeClass) -> LatticeClass:
        rows = [[sum(a * b for a, b in zip(r, gj)) for gj in gi] for r in cls.hnf]
        return _canonical(rows, ctx.p, cls.valuation + shift)

    if isinstance(x, LatticeClass):
        _require_classes(ctx, x)
        return image(x)
    if isinstance(x, FlagChamber):
        _require_classes(ctx, *x.classes)
        return FlagChamber(tuple(image(c) for c in x.classes))
    raise TypeError("act expects a LatticeClass or a FlagChamber")


def epsilon_from_determinant(g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext) -> int:
    """Sign character via the determinant: (-1)^((n-1) v_p(det g))."""
    # v_p(det p^a g) = v_p(det g) + n a, and (n - 1) n a is even
    _, v = _integral_matrix(g, ctx)
    return -1 if ((ctx.n - 1) * v) % 2 else 1


def epsilon_from_labels(g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext) -> int:
    """Sign character via the signature of the induced label permutation."""
    perm: dict[int, int] = {}
    for cls in standard_chamber(ctx).classes:
        perm[vertex_label(cls, ctx)] = vertex_label(act(g, cls, ctx), ctx)
    if sorted(perm) != list(range(ctx.n)) or sorted(perm.values()) != list(range(ctx.n)):
        raise ValueError("the matrix does not permute the vertex labels")
    sign, seen = 1, set()
    for start in perm:
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def epsilon(g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext) -> int:
    """The sign character, computed both ways; the two must agree."""
    a = epsilon_from_labels(g, ctx)
    b = epsilon_from_determinant(g, ctx)
    if a != b:
        raise AssertionError("label signature disagrees with determinant parity")
    return a


# -- affine Weyl group inside GL_n --------------------------------------------------


def label_shift_matrix(ctx: PrimeContext) -> QMatrix:
    """The cyclic element sending e_i to e_(i-1) for i >= 2 and e_1 to p e_n.

    Its determinant has valuation 1, so it shifts every vertex label by 1;
    it rotates the standard chamber's flag onto itself.
    """
    n, p = ctx.n, ctx.p
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = Fraction(1)
    rows[n - 1][0] = Fraction(p)
    return tuple(tuple(r) for r in rows)


def affine_generator_matrix(ctx: PrimeContext, i: int) -> QMatrix:
    """Matrix realizing the i-th affine Weyl generator, 0 <= i < n.

    Generators 1 .. n-1 are the adjacent-coordinate transpositions; the
    affine generator 0 is the first one conjugated by the label shift,
    which swaps e_1 and e_n with weights: e_1 -> p e_n, e_n -> e_1 / p.
    """
    n, p = ctx.n, ctx.p
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"generator index must be an int in 0..{n - 1}, got {i!r}")
    a, b, up, down = (i - 1, i, 1, 1) if i >= 1 else (0, n - 1, Fraction(1, p), p)
    rows = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
    rows[a][a] = rows[b][b] = Fraction(0)
    rows[a][b], rows[b][a] = Fraction(up), Fraction(down)
    return tuple(tuple(r) for r in rows)


def weyl_to_chamber(word: Sequence[int], ctx: PrimeContext) -> FlagChamber:
    """Image of the standard chamber under the product of generators."""
    chamber = standard_chamber(ctx)
    for letter in reversed(word):
        chamber = act(affine_generator_matrix(ctx, letter), chamber, ctx)
    return chamber


def generator_face_types(ctx: PrimeContext) -> dict[int, int]:
    """Face type crossed between the standard chamber and its image under
    each generator i: -i mod n.  Generator i >= 1 swaps coordinates i - 1
    and i, so of the standard flag it moves only the class with n - i
    entries p (label n - i); generator 0 moves only the standard lattice."""
    return {i: -i % ctx.n for i in range(ctx.n)}


# -- balls of chambers ----------------------------------------------------------------


class BallGraph(Value):
    """All chambers within a gallery radius of a center chamber.

    Chambers are indexed breadth-first, sorted within each shell; `faces`
    records, for every face of a ball chamber, the increasing indices of
    its in-ball chambers (a face is interior when it has p + 1 of them).
    `parent` and `crossed_type` trace one minimal gallery back to the
    center, so `gallery_types` / `weyl_word` read off a word for the Weyl
    distance from the center (face type t is generator -t mod n).
    """

    __slots__ = (
        "ctx", "radius", "chambers", "distance", "parent", "crossed_type", "faces", "index"
    )
    _uncompared = ("index",)

    def __init__(
        self,
        ctx: PrimeContext,
        radius: int,
        chambers: tuple[FlagChamber, ...],
        distance: tuple[int, ...],
        parent: tuple[int | None, ...],
        crossed_type: tuple[int | None, ...],
        faces: Mapping[Face, tuple[int, ...]],
        index: Mapping[FlagChamber, int],
    ) -> None:
        self._set(ctx, radius, chambers, distance, parent, crossed_type, faces, index)

    def __len__(self) -> int:
        return len(self.chambers)

    def shell_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.radius + 1)
        for d in self.distance:
            sizes[d] += 1
        return tuple(sizes)

    def shell(self, k: int) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.distance) if d == k)

    def interior_faces(self) -> tuple[Face, ...]:
        full = self.ctx.p + 1
        return tuple(f for f, members in self.faces.items() if len(members) == full)

    def chambers_of_face(self, face: Face) -> tuple[int, ...]:
        return tuple(self.faces[face])

    def neighbors(self, i: int) -> tuple[int, ...]:
        if not 0 <= _int(i, "chamber index") < len(self.chambers):
            raise ValueError(f"chamber index must be in 0..{len(self.chambers) - 1}, got {i!r}")
        out: set[int] = set()
        for pos in range(self.ctx.n):
            out.update(self.faces.get(face_of(self.chambers[i], pos), ()))
        out.discard(i)
        return tuple(sorted(out))

    def gallery_types(self, i: int) -> tuple[int, ...]:
        if not 0 <= _int(i, "chamber index") < len(self.chambers):
            raise ValueError(f"chamber index must be in 0..{len(self.chambers) - 1}, got {i!r}")
        types: list[int] = []
        cur = i
        while self.parent[cur] is not None:
            types.append(self.crossed_type[cur])
            cur = self.parent[cur]
        return tuple(reversed(types))

    def weyl_word(self, i: int) -> tuple[int, ...]:
        to_generator = generator_face_types(self.ctx)
        return tuple(to_generator[t] for t in self.gallery_types(i))


def _shells(start, radius: int, step, key) -> tuple:
    """Breadth-first shells out to the radius.  ``step(i, item)`` returns
    (tag, neighbors) groups; a neighbor's first finder is its parent, and
    each new shell is indexed in ``key`` order.  Returns the items, index
    map, distances, parents and tags, and the last (unexpanded) shell."""
    items, index, distance, parent, tags = [start], {start: 0}, [0], [None], [None]
    frontier = [0]
    for depth in range(1, radius + 1):
        discovered: dict[object, tuple[int, object]] = {}
        for i in frontier:
            for tag, group in step(i, items[i]):
                for other in group:
                    if other not in index and other not in discovered:
                        discovered[other] = (i, tag)
        frontier = []
        for item in sorted(discovered, key=key):
            src, tag = discovered[item]
            frontier.append(len(items))
            index[item] = len(items)
            items.append(item)
            distance.append(depth)
            parent.append(src)
            tags.append(tag)
    return tuple(items), index, tuple(distance), tuple(parent), tuple(tags), frontier


def ball(ctx: PrimeContext, radius: int, center: FlagChamber | None = None) -> BallGraph:
    """Breadth-first enumeration of the chamber ball of the given radius,
    around the standard chamber or a caller's center, which ``make_chamber``
    checks.  The shells come from ``_shells``, stepping by chamber stars."""
    _int(radius, "radius", 0)
    if center is not None and not isinstance(center, FlagChamber):
        raise ValueError(f"center must be a FlagChamber, got {center!r}")
    start = standard_chamber(ctx) if center is None else make_chamber(center.classes, ctx)
    # face -> in-ball chambers in index order; the first expanded chamber to
    # meet a face discovers its whole star, so later ones only append
    faces: dict[Face, list[int]] = {}

    def stars(i: int, chamber: FlagChamber):
        groups = []
        for pos in range(ctx.n):
            face = face_of(chamber, pos)
            if face in faces:
                faces[face].append(i)
                continue
            faces[face] = [i]
            groups.append((chamber.classes[pos].valuation % ctx.n, chambers_containing(face, ctx)))
        return groups

    chambers, index, distance, parent, crossed, last = _shells(
        start, radius, stars, FlagChamber.sort_key
    )
    # the last shell is never expanded; it enters here, after every
    # expanded chamber, so faces keep the order of their first chamber
    for i in last:
        for pos in range(ctx.n):
            faces.setdefault(face_of(chambers[i], pos), []).append(i)
    return BallGraph(
        ctx=ctx,
        radius=radius,
        chambers=chambers,
        distance=distance,
        parent=parent,
        crossed_type=crossed,
        faces={f: tuple(m) for f, m in faces.items()},
        index=index,
    )


def ball_to_json(graph: BallGraph) -> dict:
    """Deterministic plain-data rendering of a chamber ball.

    ``adjacency[i]`` lists ``[face type, neighbor index]`` pairs for every
    neighbor inside the ball, sorted by face type then neighbor.
    """
    adjacency: list[list[list[int]]] = [[] for _ in graph.chambers]
    for face, members in graph.faces.items():
        ftype = _face_type(face, graph.ctx.n)
        for i in members:
            adjacency[i].extend([ftype, j] for j in members if j != i)
    for pairs in adjacency:
        pairs.sort()
    return {
        "p": graph.ctx.p,
        "n": graph.ctx.n,
        "radius": graph.radius,
        "chamber_count": len(graph.chambers),
        "shell_sizes": list(graph.shell_sizes()),
        "chambers": [
            [[list(row) for row in cls.hnf] for cls in chamber.classes]
            for chamber in graph.chambers
        ],
        "adjacency": adjacency,
        "distance": list(graph.distance),
        "parent": [(-1 if x is None else x) for x in graph.parent],
        "crossed_type": [(-1 if x is None else x) for x in graph.crossed_type],
    }
