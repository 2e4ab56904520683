"""The group action of GL_n(Q_p) on the building, n in {2, 3}, and the
canonical class of caller-supplied rows.

Internal: ``building`` re-exports every name here when it is first read
(PEP 562), and each public name's ``__module__`` is
``weylbuildings.building``, the module the package lists it under.  No
request of the chamber layer runs this code, so none compiles it: stars,
balls and the vertex tree build their classes in Hermite form directly.

GL_n(Q_p) acts by g.[L] = [gL]; the label permutation induced by g is the
power of an n-cycle given by v_p(det g), whence the sign character
epsilon(g) = (-1)^((n-1) v_p(det g)).  Both computations of epsilon live
here and must agree.  ``Fraction`` enters only at the entry points that
take or return rational matrices: ``act``, the ``epsilon`` functions,
``affine_generator_matrix`` and ``label_shift_matrix``.  ``act`` scales g
once to the integer matrix p^a g, which moves no homothety class;
``weyl_to_chamber`` applies the generators one at a time through ``act``.

Caller rows, for ``lattice_from_rows`` and ``act`` alike, are scaled to
integers once and go through ``_hermite_rows``, an elimination modulo
p^(v+1) that yields triangular rows of the same span, because row
operations are unimodular over Z_p, and asserts that the diagonal
exponents sum to v; ``lattice_from_rows`` reads v off the maximal minors.
``_class_of`` then reduces the rows and strips their p-content.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .building import FlagChamber, standard_chamber
from .exact import _fraction, _int, _tuple
from .lattice import (
    LatticeClass, PrimeContext, vertex_label, _dimension, _prime, _require_classes, _val_int,
)

QMatrix = tuple[tuple[Fraction, ...], ...]


# -- caller rows ----------------------------------------------------------------


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


# -- group action -------------------------------------------------------------------


def _integral_matrix(
    g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext
) -> tuple[list[list[int]], int]:
    """The integer matrix p^a g for the least such a >= 0, and the
    valuation of its determinant.  Raises ValueError unless g is an
    invertible n x n matrix whose denominators are powers of p."""
    n = _dimension(ctx)
    g = [_tuple(r, "each row of g", "entries") for r in _tuple(g, "g", "rows")]
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
    raise ValueError(f"x must be a LatticeClass or a FlagChamber, got {x!r}")


def epsilon_from_determinant(g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext) -> int:
    """Sign character via the determinant: (-1)^((n-1) v_p(det g))."""
    # v_p(det p^a g) = v_p(det g) + n a, and (n - 1) n a is even
    _, v = _integral_matrix(g, ctx)
    return -1 if ((ctx.n - 1) * v) % 2 else 1


def epsilon_from_labels(g: Sequence[Sequence[Fraction | int]], ctx: PrimeContext) -> int:
    """Sign character via the inversion parity of the induced label permutation."""
    perm: dict[int, int] = {}
    for cls in standard_chamber(ctx).classes:
        perm[vertex_label(cls, ctx)] = vertex_label(act(g, cls, ctx), ctx)
    if sorted(perm) != list(range(ctx.n)) or sorted(perm.values()) != list(range(ctx.n)):
        raise ValueError("the matrix does not permute the vertex labels")
    images = [perm[k] for k in range(ctx.n)]
    return (-1) ** sum(a > b for a, b in itertools.combinations(images, 2))


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
    n, p = _dimension(ctx), ctx.p
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
    n, p = _dimension(ctx), ctx.p
    _int(i, "generator", 0, n)
    a, b, up, down = (i - 1, i, 1, 1) if i >= 1 else (0, n - 1, Fraction(1, p), p)
    rows = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
    rows[a][a] = rows[b][b] = Fraction(0)
    rows[a][b], rows[b][a] = Fraction(up), Fraction(down)
    return tuple(tuple(r) for r in rows)


def weyl_to_chamber(word: Sequence[int], ctx: PrimeContext) -> FlagChamber:
    """Image of the standard chamber under the product of generators."""
    chamber = standard_chamber(ctx)
    for letter in reversed(_tuple(word, "word", "generator indices")):
        chamber = act(affine_generator_matrix(ctx, letter), chamber, ctx)
    return chamber


# the package lists these under ``building``, which re-exports them: pickles
# and tools that look a public name up by its module find it there
for _public in (lattice_from_rows, act, epsilon, epsilon_from_labels, epsilon_from_determinant,
                affine_generator_matrix, label_shift_matrix, weyl_to_chamber):
    _public.__module__ = "weylbuildings.building"
