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
(l(ws) < l(w)) iff y_s < 0, and y(ws)_t = y_t - A[s][t] y_s.  Distinct w
give distinct y, so a group element is stored as its point y, peeling
descents counts the length and a BFS over ascents of rho* counts the
shells.  The matrix is derived from the peel only when it is read.
"""

from __future__ import annotations

import math
import re
from operator import mul
from typing import Sequence

from .exact import Value, _int, row_reduce

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
    Cartan matrix, and ``kernel``, an integer basis of its kernel, fixed by
    the group (the null root delta if affine).
    """

    __slots__ = ("orders", "cartan", "kernel")
    _uncompared = _hidden = ("cartan", "kernel")

    def __init__(self, orders: tuple[tuple[float, ...], ...]) -> None:
        object.__setattr__(self, "orders", orders)
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
        cartan = _cartan_matrix(self)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "kernel", _kernel(cartan))

    @property
    def size(self) -> int:
        return len(self.orders)

    @property
    def generators(self) -> range:
        return range(self.size)

    def order(self, s: int, t: int) -> float:
        return self.orders[_generator(self, s)][_generator(self, t)]


def _generator(diagram: CoxeterDiagram, letter: int) -> int:
    if type(letter) is not int or not 0 <= letter < diagram.size:
        raise ValueError(f"unknown generator {letter!r}")
    return letter


def _diagram_from_edges(count: int, edges: dict[tuple[int, int], float]) -> CoxeterDiagram:
    rows = [[2] * count for _ in range(count)]
    for i in range(count):
        rows[i][i] = 1
    for (a, b), m in edges.items():
        rows[a][b] = rows[b][a] = m
    return CoxeterDiagram(tuple(tuple(row) for row in rows))


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


def _cartan_matrix(diagram: CoxeterDiagram) -> Matrix:
    n = diagram.size
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        for j in range(n):
            if i == j:
                continue
            m = diagram.orders[i][j]
            lo, hi = _CARTAN_PAIRS[m]
            # the more negative entry sits in the row of the smaller index
            rows[i][j] = lo if i < j else hi
    return tuple(tuple(r) for r in rows)


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
    return tuple(_matrix_of(diagram, (s,)) for s in diagram.generators)


def _times(row: tuple[int, ...], s: int, cartan: Matrix) -> tuple[int, ...]:
    """Row vector r times sigma_s: r_t - A[s][t] r_s.  On y = rho* w this
    gives rho* ws."""
    r = row[s]
    return tuple([x - a * r for x, a in zip(row, cartan[s])])


def _descents(diagram: CoxeterDiagram, y: tuple[int, ...]) -> list[int]:
    """The peel of y: s_1..s_k, each the first s with y_s < 0 left."""
    word, s = [], 0
    while s < len(y):
        if y[s] < 0:
            word.append(s)
            y, s = _times(y, s, diagram.cartan), 0
        else:
            s += 1
    return word


def _matrix_of(diagram: CoxeterDiagram, peel: Sequence[int]) -> Matrix:
    """sigma_{s_k} ... sigma_{s_1} for a peel s_1..s_k.  Each factor sigma_s
    on the left changes only row s: in each column c, c_s -= A[s] . c."""
    cols = [[int(i == j) for i in diagram.generators] for j in diagram.generators]
    for s in peel:
        for c in cols:
            c[s] -= sum(map(mul, diagram.cartan[s], c))
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
            object.__setattr__(self, "_matrix", matrix)
        return self._matrix

    def _check(self, diagram: CoxeterDiagram) -> None:
        """ValueError, naming the matrix, unless it is in the diagram's group;
        checked once per diagram.  M is a member iff it fixes the kernel and
        equals the matrix derived from the peel of its column sums."""
        if self._diagram is diagram or self._diagram == diagram:
            return
        m, n = self.matrix, diagram.size
        fixes_kernel = len(m) == n and all(len(row) == n for row in m) and all(
            tuple(sum(a * b for a, b in zip(row, v)) for row in m) == v for v in diagram.kernel
        )
        # M delta = delta gives rho*(M delta) > 0: rho* M is in the Tits cone, the peel ends
        peel = _descents(diagram, self.point) if fixes_kernel else None
        if peel is None or _matrix_of(diagram, peel) != m:
            raise ValueError(f"not an element of the group: {m!r}")
        object.__setattr__(self, "_diagram", diagram)
        object.__setattr__(self, "_peel", peel)

    def _peel_of(self, diagram: CoxeterDiagram) -> list[int]:
        """The peel s_1..s_k of the point, with w s_1...s_k = 1; once per diagram."""
        self._check(diagram)
        if self._peel is None:
            object.__setattr__(self, "_peel", _descents(diagram, self.point))
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
    w = GroupElement.__new__(GroupElement)
    w._set(point, None, diagram, None)
    return w


def identity_element(diagram: CoxeterDiagram) -> GroupElement:
    return _element(diagram, (1,) * diagram.size)


def element_from_word(diagram: CoxeterDiagram, word: Sequence[int]) -> GroupElement:
    """Product of the generators, word read left to right."""
    y = (1,) * diagram.size
    for letter in word:
        y = _times(y, _generator(diagram, letter), diagram.cartan)
    return _element(diagram, y)


def length(diagram: CoxeterDiagram, element: GroupElement) -> int:
    """Word length of an element; ValueError for a matrix outside the group."""
    return len(element._peel_of(diagram))


def reduced_word(diagram: CoxeterDiagram, element: GroupElement) -> tuple[int, ...]:
    """The lexicographically first reduced word, in generator index order.

    Its first letter is the first left descent s of w (x_s < 0 for
    x = rho* w^-1), followed by the word of sw.  ValueError as for length.
    """
    x = (1,) * diagram.size
    for s in element._peel_of(diagram):
        x = _times(x, s, diagram.cartan)
    return tuple(_descents(diagram, x))


# -- growth ------------------------------------------------------------------


class GrowthTable(Value):
    """counts[k] = number of group elements of length exactly k <= cutoff."""

    __slots__ = ("counts", "cutoff")

    def __init__(self, counts: tuple[int, ...], cutoff: int) -> None:
        self._set(counts, cutoff)
        if len(counts) != cutoff + 1:
            raise ValueError("counts must cover 0..cutoff")
        if counts[0] != 1:
            raise ValueError("counts[0] must be 1 (the identity)")
        if any(c <= 0 for c in counts):
            raise ValueError("affine shell counts are positive at every length")


def bfs_growth(diagram: CoxeterDiagram, cutoff: int) -> GrowthTable:
    """Count elements per word length by BFS over the orbit of rho*.

    Shell k + 1 is the set of rho* ws over rho* w in shell k and ascents
    s of w (y_s > 0); only one shell is kept.

    >>> bfs_growth(affine_diagram("A1~"), 4).counts
    (1, 2, 2, 2, 2)
    """
    _int(cutoff, "cutoff", 0)
    shell = {(1,) * diagram.size}
    counts = [1]
    for _ in range(cutoff):
        shell = {
            _times(y, s, diagram.cartan) for y in shell for s in range(len(y)) if y[s] > 0
        }
        counts.append(len(shell))
    return GrowthTable(tuple(counts), cutoff)
