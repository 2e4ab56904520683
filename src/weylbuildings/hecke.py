"""Iwahori-Hecke algebra of an affine Coxeter system, with parameter q.

The algebra has basis (e_w) indexed by group elements, unit e_1, and is
generated by the e_s subject to

    (R1)  e_s * e_s = (q - 1) e_s + q e_1,
    (R2)  the braid relations of the diagram.

Products are computed from the only rule the presentation forces:

    e_w * e_s = e_{ws}                    if l(ws) > l(w),
    e_w * e_s = (q-1) e_w + q e_{ws}      if l(ws) < l(w),

extended to e_v * e_w by decomposing w into a reduced word and applying
the one-letter rule repeatedly; that the result does not depend on the
chosen reduced word is itself a tested property.  Products step the
points y = rho* w of the coxeter module, n integers per term, on the
diagram's sparse ``neighbors`` rows: l(ws) < l(w) exactly when y_s < 0.
The coefficients they carry between steps are integer numerators over one
known denominator (fraction-free arithmetic, Cohen, GTM 138, 2.2): with
q = num/den a step multiplies by num - den, num or den, and a product
builds one Fraction and one element per nonzero output entry, in point
order, with no element hashed.  A factor, diagram or element of another
kind is named by its parameter (``exact._field``).

The parameter q is carried per element as an exact rational (integers in
geometric uses, arbitrary rationals allowed algebraically); products
require equal q and equal diagram.  The coefficients live in the shared
finite map of the ``exact`` module (``SparseMap``: nonzero entries only,
sorted by the point of w, O(1) lookup).

``special_character`` is the algebra character determined by e_s -> -1,
so e_w -> (-1)^l(w).  ``convolve_chamber_function`` is the geometric
right action of a generator on functions on the chambers of a ball: the
value at C of f * e_s is the sum of f over the other p chambers sharing
C's face of the generator's type.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, Sequence

from .coxeter import (
    CoxeterDiagram,
    GroupElement,
    element_from_word,
    identity_element,
    length,
)
from .exact import SparseMap, Value, _field, _fraction, _int, _items, _restore, _tuple

if TYPE_CHECKING:
    from .building import BallGraph

__all__ = [
    "HeckeElement",
    "unit",
    "basis_element",
    "multiply",
    "special_character",
    "convolve_chamber_function",
]


_point = attrgetter("point")


class HeckeElement(Value):
    """Finite linear combination of basis elements e_w over one diagram.

    ``terms`` is a ``SparseMap`` sorted by the point of w, with no zero
    coefficients, so equality of elements is equality of the fields.  A w
    outside the diagram's group raises ValueError here, naming its matrix,
    and so do a diagram of another kind, naming ``diagram``, and terms that
    are not pairs to iterate, naming ``terms``.
    """

    __slots__ = ("diagram", "q", "terms")

    def __init__(
        self, diagram: CoxeterDiagram, q: Fraction, terms: tuple[tuple[GroupElement, Fraction], ...]
    ) -> None:
        _field(diagram, CoxeterDiagram, "orders", "diagram")
        q = _fraction(q, "q")
        terms = SparseMap(terms, _point, "terms")
        for w in terms.support():
            w._check(diagram)
        self._set(diagram, q, terms)

    @property
    def support(self) -> tuple[GroupElement, ...]:
        return self.terms.support()

    def coefficient(self, w: GroupElement) -> Fraction:
        return self.terms.lookup(w, GroupElement)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: "HeckeElement", name: str = "other") -> None:
        """ValueError unless other is an element over the same diagram and
        q; its first read, of the ``diagram`` slot, names the parameter
        for a value of another kind (``exact._field``)."""
        diagram = _field(other, HeckeElement, "diagram", name)
        if diagram is not self.diagram and diagram != self.diagram:
            raise ValueError("elements live over different diagrams")
        if other.q is not self.q and other.q != self.q:
            raise ValueError("elements carry different parameters q")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._require_compatible(other)
        support = dict.fromkeys(self.support + other.support)
        terms = tuple((w, self.coefficient(w) + other.coefficient(w)) for w in support)
        return HeckeElement(self.diagram, self.q, terms)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.diagram, self.q, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: int | Fraction) -> "HeckeElement":
        s = _fraction(scalar, "scalar")
        return HeckeElement(self.diagram, self.q, tuple((w, s * c) for w, c in self.terms))

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if isinstance(other, HeckeElement):
            return multiply(self, other)
        return NotImplemented


def unit(diagram: CoxeterDiagram, q: int | Fraction) -> HeckeElement:
    """The identity element e_1."""
    return HeckeElement(diagram, q, ((identity_element(diagram), Fraction(1)),))


def basis_element(
    diagram: CoxeterDiagram, w: GroupElement | Sequence[int], q: int | Fraction
) -> HeckeElement:
    """The basis element e_w; w may be given as a word in the generators.
    A w that is neither raises ValueError naming it."""
    if not isinstance(w, GroupElement):
        w = element_from_word(diagram, _tuple(w, "w", "generators or a GroupElement"))
    return HeckeElement(diagram, q, ((w, Fraction(1)),))


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the algebra, bilinear over the one-letter rule, on points.

    The coefficients of a are scaled to integers over the lcm of their
    denominators, ``scale``.  At each step, with q = num/den, a descent
    keeps (num - den) c at y and sends num c to ys, and an ascent sends
    den c to ys, so a right-hand term of peel length k leaves its sums
    over scale den^k.  A step reflects each point in a list, reading the
    generator's diagram neighbors inline; only a step with a descent can
    cancel, so only such a step drops zeros.  The terms of b are brought to
    one denominator, and the nonzero entries of the sum, sorted by point,
    become one Fraction and one element each.  The product's points are
    ones it stepped itself, so it is built unchecked and in order, with
    no element hashed.  A factor of another kind is named.
    """
    diagram = _field(a, HeckeElement, "diagram", "a")
    a._require_compatible(b, "b")
    neighbors, q = diagram.neighbors, a.q
    num, den = q.numerator, q.denominator
    descent = num - den
    scale = lcm(*[c.denominator for _, c in a.terms])
    start = {u.point: c.numerator * (scale // c.denominator) for u, c in a.terms}
    peels = [(w._peel_of(diagram), cw) for w, cw in b.terms]
    k_max = max([len(peel) for peel, _ in peels], default=0)
    b_scale = lcm(*[cw.denominator for _, cw in peels])
    acc: dict[tuple[int, ...], int] = {}
    for peel, cw in peels:
        partial = start
        # w = s_k ... s_1 for its peel s_1..s_k, a reduced word
        for s in reversed(peel):
            row, step, fell = neighbors[s], {}, False
            for y, c in partial.items():
                ys = list(y)
                r = ys[s] = -y[s]
                for t, x in row:
                    ys[t] += x * r
                ys = tuple(ys)
                if r > 0:  # y_s < 0: s is a descent
                    fell = True
                    step[y] = step.get(y, 0) + descent * c
                    step[ys] = step.get(ys, 0) + num * c
                else:
                    step[ys] = step.get(ys, 0) + den * c
            partial = {y: c for y, c in step.items() if c} if fell else step
        # bring the term to the shared denominator scale * b_scale * den^k_max
        factor = cw.numerator * (b_scale // cw.denominator) * den ** (k_max - len(peel))
        for y, c in partial.items():
            acc[y] = acc.get(y, 0) + factor * c
    shared = scale * b_scale * den**k_max
    terms = [(_restore(GroupElement, (y, None, diagram, None)), Fraction(c, shared))
             for y, c in sorted(acc.items()) if c]
    return _restore(HeckeElement, (diagram, q, SparseMap._ordered(terms)))


def special_character(x: HeckeElement) -> Fraction:
    """The character sending every e_s to -1, hence e_w to (-1)^l(w)."""
    total = Fraction(0)
    for w, c in _field(x, HeckeElement, "terms", "x"):
        total += c * (-1) ** length(x.diagram, w)
    return total


def convolve_chamber_function(
    f: Mapping[int, Fraction], generator: int, graph: BallGraph
) -> dict[int, Fraction]:
    """Right action of e_s on a function over a ball's chambers.

    ``f`` maps chamber indices to ints or Fractions (missing indices read
    as 0); an ``f`` with no ``items`` to read raises ValueError naming it.
    The result is defined on every chamber whose face of the generator's
    type is interior to the ball; at such a chamber C it is the sum of f
    over the other p chambers sharing that face.  The faces and their
    types are read off the ball's search arrays, so no ``Face`` is built.

    Chambers of the ball whose relevant face touches the boundary are
    omitted from the result, so compositions should stay a step inside
    the radius.
    """
    from .building import BallGraph, generator_face_types

    ctx = _field(graph, BallGraph, "ctx", "graph")
    ftype = generator_face_types(ctx)[_int(generator, "generator", 0, ctx.n)]
    f = {i: _fraction(x, "values") for i, x in _items(f, "f", "chamber indices")}
    full = ctx.p + 1
    out: dict[int, Fraction] = {}
    for members, t in zip(graph._face_members, graph._face_types):
        if len(members) != full or t != ftype:
            continue
        total = sum((f.get(j, 0) for j in members), Fraction(0))
        for i in members:
            out[i] = total - f.get(i, 0)
    return out
