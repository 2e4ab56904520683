"""Crystallographic Coxeter systems and affine Weyl group growth.

A Coxeter system is a group presented as

    W = < s in S | s^2 = 1, (s t)^(m_st) = 1 for s != t >,

encoded here by its diagram: the symmetric matrix of orders m_st.  Only the
crystallographic orders 2, 3, 4, 6 and infinity are admitted, which covers
every affine Weyl group.  Such a system acts faithfully on the lattice
Z^S through the reflection representation of a generalized Cartan matrix A:

    sigma_s(alpha_t) = alpha_t - A[s][t] alpha_s,

where A[s][s] = 2 and the off-diagonal pair (A[s][t], A[t][s]) is chosen
with product 4 cos^2(pi / m_st):

    m_st = 2 -> (0, 0),   3 -> (-1, -1),   4 -> (-1, -2),
    6 -> (-1, -3),   infinity -> (-2, -2).

A generator is its index 0..n-1.  For an asymmetric pair the smaller (more
negative) entry goes to the row of the smaller index.  The representation
is faithful and has integer matrix entries; column t of the matrix of w
is the root w(alpha_t), and two elements are equal when their matrices are.

Lengths, reduced words and growth come from local descent tests
(Bjorner and Brenti, Combinatorics of Coxeter Groups, 4.2 and 4.8;
Casselman, Invent. Math. 116, 1994).  With rho*(alpha_t) = 1 and
y = rho* w, y_t is the sum of column t; s is a right descent of w
(l(ws) < l(w)) iff y_s < 0, and y(ws)_t = y_t - A[s][t] y_s.  So y(ws)
differs from y only at s, where it is -y_s, and at the neighbors t of s
in the diagram (A[s][t] != 0); a step reads the diagram's ``neighbors``
row of s, not a dense Cartan row.  Distinct w give distinct y, so a group
element is stored as its point y, peeling descents counts the length and
a BFS over ascents of rho* counts the shells.  The matrix is derived from
the peel only when it is read.  The diagram's ``kernel`` comes from
``row_reduce``, the one Gauss-Jordan elimination over Q; a building face's
chamber star is written out without it, as the kernels of the functionals
that vanish on the face's line.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exact import Value, _field, _int, _restore, _tuple

__all__ = [
    "INFINITE_ORDER",
    "CRYSTALLOGRAPHIC_ORDERS",
    "AffineTypeLabel",
    "parse_type_label",
    "CoxeterDiagram",
    "affine_diagram",
    "generator_matrices",
    "GroupElement",
    "identity_element",
    "element_from_word",
    "length",
    "reduced_word",
    "GrowthTable",
    "bfs_growth",
]

INFINITE_ORDER = math.inf
CRYSTALLOGRAPHIC_ORDERS = frozenset({2, 3, 4, 6, INFINITE_ORDER})

# off-diagonal Cartan pair (to smaller index, to larger index) for each order
_CARTAN_PAIRS = {
    2: (0, 0),
    3: (-1, -1),
    4: (-2, -1),
    6: (-3, -1),
    INFINITE_ORDER: (-2, -2),
}

Matrix = tuple[tuple[int, ...], ...]
# per generator s, the pairs (t, A[s][t]) with t != s and A[s][t] != 0
Neighbors = tuple[tuple[tuple[int, int], ...], ...]


# -- type labels -------------------------------------------------------------

_LABEL_RE = re.compile(r"\A([A-G])([0-9]+)~\Z")

# inclusive rank windows; None means unbounded above
_RANK_WINDOW = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class AffineTypeLabel(Value):
    """Label of an irreducible affine type, printed as e.g. ``A2~``."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        self._set(family, rank)
        window = _RANK_WINDOW.get(family)
        if window is None:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = window
        if _int(rank, "rank") < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} invalid for family {family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}~"


def parse_type_label(label: AffineTypeLabel | str) -> AffineTypeLabel:
    """Parse a label string like ``"A2~"`` (family letter, rank, tilde); a
    label that is already parsed is returned unchanged.

    >>> parse_type_label("G2~")
    AffineTypeLabel(family='G', rank=2)
    """
    if isinstance(label, AffineTypeLabel):
        return label
    m = _LABEL_RE.match(label.strip()) if isinstance(label, str) else None
    if m is None:
        raise ValueError(f"malformed affine type label {label!r}")
    return AffineTypeLabel(m.group(1), int(m.group(2)))


# -- diagrams ----------------------------------------------------------------


class CoxeterDiagram(Value):
    """A Coxeter diagram: the symmetric order matrix of generators 0..n-1.

    ``orders[s][t]`` is m(s, t); the diagonal is 1 and infinite orders are
    stored as ``math.inf``.  Derived from them: ``cartan``, the generalized
    Cartan matrix; ``kernel``, an integer basis of its kernel, fixed by the
    group (the null root delta if affine); and ``neighbors``, for each
    generator s the pairs (t, A[s][t]) of its nonzero off-diagonal Cartan
    entries.  A reflection at s moves only coordinate s and those t.
    """

    __slots__ = ("orders", "cartan", "kernel", "neighbors")
    _uncompared = _hidden = ("cartan", "kernel", "neighbors")

    def __init__(self, orders: tuple[tuple[float, ...], ...]) -> None:
        rows = _tuple(orders, "orders", "rows of orders")
        orders = tuple(_tuple(row, "each row of orders", "orders") for row in rows)
        n = len(orders)
        if n == 0 or any(len(row) != n for row in orders):
            raise ValueError("order matrix must be square and nonempty")
        for i in range(n):
            if _int(orders[i][i], "diagonal order") != 1:
                raise ValueError("diagonal orders must be 1")
            for j in range(i + 1, n):
                m = orders[i][j]
                if m != orders[j][i]:
                    raise ValueError("order matrix must be symmetric")
                if m != INFINITE_ORDER and type(m) is not int:
                    raise ValueError(f"an order must be an int or math.inf, got {m!r}")
                if m not in CRYSTALLOGRAPHIC_ORDERS:
                    raise ValueError(f"non-crystallographic order {m!r}")
        cartan = _cartan_matrix(orders)
        neighbors = tuple(
            tuple((t, a) for t, a in enumerate(row) if a and t != s) for s, row in enumerate(cartan)
        )
        self._set(orders, cartan, _kernel(cartan), neighbors)

    @property
    def size(self) -> int:
        return len(self.orders)

    @property
    def generators(self) -> range:
        return range(self.size)

    def order(self, s: int, t: int) -> float:
        n = self.size
        return self.orders[_int(s, "generator", 0, n)][_int(t, "generator", 0, n)]


def _diagram_from_edges(count: int, edges: dict[tuple[int, int], float]) -> CoxeterDiagram:
    rows = [[2] * count for _ in range(count)]
    for i in range(count):
        rows[i][i] = 1
    for (a, b), m in edges.items():
        rows[a][b] = rows[b][a] = m
    return CoxeterDiagram(rows)


def affine_diagram(label: AffineTypeLabel | str) -> CoxeterDiagram:
    """Standard affine diagram for a type label; generators are 0..rank.

    A1~ is the infinite dihedral pair; A(n-1)~ for n >= 3 is an n-cycle of
    order-3 bonds.  B/C/D/E/F/G follow the usual affine extensions.
    """
    label = parse_type_label(label)
    fam, l = label.family, label.rank
    edges: dict[tuple[int, int], float]
    if fam == "A":
        if l == 1:
            edges = {(0, 1): INFINITE_ORDER}
        else:
            edges = {(i, (i + 1) % (l + 1)): 3 for i in range(l + 1)}
    elif fam == "C" or (fam == "B" and l == 2):
        # chain with order-4 bonds at both ends
        edges = {(i, i + 1): 3 for i in range(1, l - 1)}
        edges[(0, 1)] = 4
        edges[(l - 1, l)] = 4
    elif fam == "B":
        # fork at the affine end, order-4 bond at the far end
        edges = {(0, 2): 3, (1, 2): 3}
        edges.update({(i, i + 1): 3 for i in range(2, l - 1)})
        edges[(l - 1, l)] = 4
    elif fam == "D":
        # forks at both ends
        edges = {(0, 2): 3, (1, 2): 3, (l - 2, l - 1): 3, (l - 2, l): 3}
        edges.update({(i, i + 1): 3 for i in range(2, l - 2)})
    elif fam == "G":
        edges = {(0, 1): 3, (1, 2): 6}
    elif fam == "F":
        edges = {(0, 1): 3, (1, 2): 3, (2, 3): 4, (3, 4): 3}
    else:
        # E family, Bourbaki numbering with node 0 the affine one
        chains = {
            6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (0, 2)],
            7: [(0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
            8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4), (0, 8)],
        }
        edges = {e: 3 for e in chains[l]}
    return _diagram_from_edges(l + 1, edges)


# -- reflection representation ------------------------------------------------


def _cartan_matrix(orders: tuple[tuple[float, ...], ...]) -> Matrix:
    # of a pair, the more negative entry sits in the row of the smaller index
    return tuple(
        tuple(2 if i == j else _CARTAN_PAIRS[m][i > j] for j, m in enumerate(row))
        for i, row in enumerate(orders)
    )


def row_reduce(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form over Q of the span of sparse rows.

    A row maps columns to values; zero values may be left out.  The result
    maps each pivot column, in increasing order, to its row: 1 at the
    pivot, nothing at smaller columns or at the other pivots, no stored
    zeros.  The reduced echelon form of a row space is unique, so neither
    the pivots nor the rows depend on the order of the input.  The rank is
    the number of pivots; each free column f gives the kernel vector
    e_f - sum over pivots c of row_c[f] e_c (Cohen, GTM 138, 2.3.1).
    """

    def subtract(row: dict, factor: Fraction, pivot_row: dict) -> None:
        for k, y in pivot_row.items():
            x = row.get(k, 0) - factor * y
            if x:
                row[k] = x
            else:
                row.pop(k, None)

    reduced: dict[int, dict] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for c in [c for c in row if c in reduced]:
            subtract(row, row[c], reduced[c])
        if not row:
            continue
        lead = min(row)
        inv = 1 / Fraction(row[lead])
        row = {k: x * inv for k, x in row.items()}
        for other in reduced.values():
            if lead in other:
                subtract(other, other[lead], row)
        reduced[lead] = row
    return dict(sorted(reduced.items()))


def _kernel(matrix: Matrix) -> tuple[tuple[int, ...], ...]:
    """Integer basis of the kernel of a square matrix: one vector per free
    column of the reduced row echelon form, scaled to integers."""
    n = len(matrix)
    reduced = row_reduce(dict(enumerate(row)) for row in matrix)
    basis = []
    for free in (c for c in range(n) if c not in reduced):
        v = [-reduced[c].get(free, 0) if c in reduced else int(c == free) for c in range(n)]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * scale) for x in v))
    return tuple(basis)


def generator_matrices(diagram: CoxeterDiagram) -> tuple[Matrix, ...]:
    """Integer reflection matrix for each generator, in diagram order.

    Matrix of sigma_s in the basis (alpha_t): identity except in row s,
    where the entry at column t is delta_st - A[s][t].
    """
    return tuple(_matrix_of(diagram, (s,)) for s in range(_size(diagram)))


def _times(row: tuple[int, ...], s: int, neighbors: Neighbors) -> tuple[int, ...]:
    """Row vector r times sigma_s: r_t - A[s][t] r_s, which is -r_s at s and
    moves only the neighbors t of s.  On y = rho* w this gives rho* ws."""
    out = list(row)
    r = out[s] = -row[s]
    for t, a in neighbors[s]:
        out[t] += a * r
    return tuple(out)


def _descents(diagram: CoxeterDiagram, y: tuple[int, ...]) -> list[int]:
    """The peel of y: s_1..s_k, each the first s with y_s < 0 left.

    Before a reflection at s every index below s is non-negative, and only
    s (now positive) and its neighbors change; so the scan goes on from the
    first neighbor that turned negative below s, or else from s + 1."""
    neighbors, y, word, s = diagram.neighbors, list(y), [], 0
    while s < len(y):
        r = y[s]
        if r < 0:
            word.append(s)
            y[s], nxt = -r, s + 1
            for t, a in neighbors[s]:
                y[t] -= a * r
                if t < nxt and y[t] < 0:
                    nxt = t
            s = nxt
        else:
            s += 1
    return word


def _matrix_of(diagram: CoxeterDiagram, peel: Sequence[int]) -> Matrix:
    """sigma_{s_k} ... sigma_{s_1} for a peel s_1..s_k.  Each factor sigma_s
    on the left changes only row s: in each column c,
    c_s = -c_s - sum over the neighbors t of s of A[s][t] c_t."""
    neighbors = diagram.neighbors
    cols = [[0] * len(neighbors) for _ in neighbors]
    for j, c in enumerate(cols):
        c[j] = 1
    for s in peel:
        row = neighbors[s]
        for c in cols:
            x = -c[s]
            for t, a in row:
                x -= a * c[t]
            c[s] = x
    return tuple(zip(*cols))


# -- group elements ----------------------------------------------------------


class GroupElement(Value):
    """A Weyl group element, stored as its point y = rho* w (the column sums
    of a caller's matrix, checked when it first meets a diagram).  ``matrix``
    is derived when read.  Equality is equality of matrices, which equal
    points over one diagram decide; the hash is that of the point.  Frozen
    like every ``Value``: only the methods that derive them fill the three
    lazy slots."""

    __slots__ = ("point", "_matrix", "_diagram", "_peel")

    def __init__(self, matrix: Matrix) -> None:
        try:
            entries = tuple(tuple(_int(x, "matrix entries") for x in row) for row in matrix)
            square = all(len(row) == len(entries) for row in entries)
        except TypeError:  # it, or one of its rows, is not iterable
            square = False
        if not square:
            raise ValueError(f"a group element needs a square matrix, got {matrix!r}")
        self._set(tuple(map(sum, zip(*entries))), entries, None, None)

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            matrix = _matrix_of(self._diagram, self._peel_of(self._diagram))
            GroupElement._matrix.__set__(self, matrix)
        return self._matrix

    def _check(self, diagram: CoxeterDiagram) -> None:
        """ValueError, naming the matrix, unless it is in the diagram's group;
        checked once per diagram.  M is a member iff it fixes the kernel and
        equals the matrix derived from the peel of its column sums.  The
        kernel test ends the peel for finite and affine diagrams only: on
        one that is neither it need not, and the peel of a point outside
        the Tits cone does not end: three generators with all orders
        infinite have an empty kernel, and the peel of -I's point
        (-1, -1, -1) never returns.  Its first read, of the diagram's
        ``kernel`` slot, names a diagram of another kind (``exact._field``)."""
        kernel = _field(diagram, CoxeterDiagram, "kernel", "diagram")
        if self._diagram is diagram or self._diagram == diagram:
            return
        m, n = self.matrix, diagram.size
        fixes_kernel = len(m) == n and all(len(row) == n for row in m) and all(
            tuple(sum(map(mul, row, v)) for row in m) == v for v in kernel
        )
        # M delta = delta gives rho*(M delta) > 0: rho* M is in the Tits cone, the peel ends
        peel = _descents(diagram, self.point) if fixes_kernel else None
        if peel is None or _matrix_of(diagram, peel) != m:
            raise ValueError(f"not an element of the group: {m!r}")
        self._set(self.point, m, diagram, peel)

    def _peel_of(self, diagram: CoxeterDiagram) -> list[int]:
        """The peel s_1..s_k of the point, with w s_1...s_k = 1; once per
        diagram.  Its first read, of the ``_diagram`` slot, names an element
        of another kind (``exact._field``)."""
        # an element not yet checked against any diagram holds None there
        if _field(self, GroupElement, "_diagram", "element") is not diagram or diagram is None:
            self._check(diagram)
        if self._peel is None:
            GroupElement._peel.__set__(self, _descents(diagram, self.point))
        return self._peel

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        same = self._diagram is not None and self._diagram == other._diagram
        return self.point == other.point and (same or self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash(self.point)

    def __repr__(self) -> str:
        return f"GroupElement(matrix={self.matrix!r})"


def _element(diagram: CoxeterDiagram, point: tuple[int, ...]) -> GroupElement:
    return _restore(GroupElement, (point, None, diagram, None))


def _size(diagram: CoxeterDiagram) -> int:
    """The diagram's number of generators, read through its ``orders``
    slot: ValueError naming ``diagram`` for a value of any other kind
    (``exact._field``)."""
    return len(_field(diagram, CoxeterDiagram, "orders", "diagram"))


def identity_element(diagram: CoxeterDiagram) -> GroupElement:
    return _element(diagram, (1,) * _size(diagram))


def element_from_word(diagram: CoxeterDiagram, word: Sequence[int]) -> GroupElement:
    """Product of the generators, word read left to right."""
    y = (1,) * _size(diagram)
    for letter in _tuple(word, "word", "generators"):
        y = _times(y, _int(letter, "generator", 0, len(y)), diagram.neighbors)
    return _element(diagram, y)


def length(diagram: CoxeterDiagram, element: GroupElement) -> int:
    """Word length of an element; ValueError for a matrix outside the group
    and, naming the parameter, for a diagram or element of another kind."""
    return len(GroupElement._peel_of(element, diagram))


def reduced_word(diagram: CoxeterDiagram, element: GroupElement) -> tuple[int, ...]:
    """The lexicographically first reduced word, in generator index order.

    Its first letter is the first left descent s of w (x_s < 0 for
    x = rho* w^-1), followed by the word of sw; x is stepped in place along
    the peel, as ``_times`` steps a point.  ValueError as for length.
    """
    peel, neighbors = GroupElement._peel_of(element, diagram), diagram.neighbors
    x = [1] * len(neighbors)
    for s in peel:
        r = x[s] = -x[s]
        for t, a in neighbors[s]:
            x[t] += a * r
    return tuple(_descents(diagram, x))


# -- growth ------------------------------------------------------------------


class GrowthTable(Value):
    """counts[k] = number of group elements of length exactly k <= cutoff.

    The cutoff is derived, len(counts) - 1, and not stored.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        counts = _tuple(counts, "counts", "ints")
        self._set(counts)
        if not counts or counts[0] != 1:
            raise ValueError("counts[0] must be 1 (the identity)")
        if any(_int(c, "counts") <= 0 for c in counts):
            raise ValueError("affine shell counts are positive at every length")

    @property
    def cutoff(self) -> int:
        return len(self.counts) - 1


def bfs_growth(diagram: CoxeterDiagram, cutoff: int) -> GrowthTable:
    """Count elements per word length by BFS over the orbit of rho*.

    Shell k + 1 is the set of rho* ws over rho* w in shell k and ascents
    s of w (y_s > 0); only one shell is kept.

    >>> bfs_growth(affine_diagram("A1~"), 4).counts
    (1, 2, 2, 2, 2)
    """
    _int(cutoff, "cutoff", 0)
    shell, neighbors = {(1,) * _size(diagram)}, diagram.neighbors
    counts = [1]
    for _ in range(cutoff):
        shell = {_times(y, s, neighbors) for y in shell for s in range(len(y)) if y[s] > 0}
        counts.append(len(shell))
    return GrowthTable(counts)
