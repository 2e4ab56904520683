"""Harmonic cochains on chamber sets of the building.

A cochain assigns an exact rational to each chamber.  It is harmonic at a
codimension-1 face D when the values over the p + 1 chambers containing D
sum to zero; ``harmonicity_defect`` returns that sum for an interior face
of a ball.

Two storage forms coexist.  Map form keeps its values in the shared
finite map of the ``exact`` module (``SparseMap``: nonzero entries only,
sorted by the chamber's canonical form, O(1) lookup).  Rule form holds a
base chamber and an integer q >= 2 and means

    C  |->  (-1/q)^d(base, C),

the unique cochain of that decay invariant under the base chamber's
stabilizer; it evaluates lazily against a ball centered at the base.
Its defects and decay profiles come from the distances alone, computed in
integers with one ``Fraction`` per result.
``iwahori_vector`` builds it.  Its harmonicity is a sharp cancellation:
among the p + 1 chambers over an interior face, exactly one sits at the
minimal distance d and the other p at d + 1 (``min_distance_chamber``
checks that and returns the minimizer), so the sum is
(-1/q)^d + p (-1/q)^(d+1) = 0 exactly when q = p.

``finite_support_rigidity`` decides that the only cochain supported
strictly inside a ball that is harmonic at every fully visible face is
zero.  It first looks for a unit-triangular certificate: each unknown
chamber C gets an ascent face, an interior face on which C is the closest
chamber and the other p sit at d(C) + 1 (such a face exists because an
affine Weyl group has no longest element, and the gate property of panels
gives the distance shape).  Ordered by decreasing distance, those rows
form a lower triangular matrix with 1 on the diagonal, so the system has
full rank.  Only when some unknown has no ascent face does it fall back to
the exact rank over Q from the sparse row reduction of the ``exact``
module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .building import BallGraph, Face, FlagChamber
from .exact import SparseMap, Value, _int, fraction_json, row_reduce

__all__ = [
    "Cochain",
    "cochain_from_map",
    "iwahori_vector",
    "harmonicity_defect",
    "min_distance_chamber",
    "decay_profile",
    "finite_support_rigidity",
    "cochain_to_json",
]


class Cochain(Value):
    """A chamber function in map form or closed-rule form, exactly one.

    Map form: ``values`` is a ``SparseMap`` of (chamber, nonzero
    rational) pairs, sorted canonically.  Rule form: ``rule`` is (base
    chamber, q) and the function is C -> (-1/q)^d(base, C).
    """

    __slots__ = ("values", "rule")

    def __init__(
        self,
        values: tuple[tuple[FlagChamber, Fraction], ...] | None = None,
        rule: tuple[FlagChamber, int] | None = None,
    ) -> None:
        if (values is None) == (rule is None):
            raise ValueError("exactly one of values and rule must be given")
        if values is not None:
            values = SparseMap(values, FlagChamber.sort_key)
        else:
            base, q = rule
            if not isinstance(base, FlagChamber):
                raise ValueError("rule base must be a chamber")
            _int(q, "rule parameter q", 2)
        self._set(values, rule)

    def value(self, chamber: FlagChamber, graph: BallGraph) -> Fraction:
        """Evaluate at a chamber, resolving distances through ``graph``."""
        if self.values is not None:
            return self.values.lookup(chamber)
        i = graph.index.get(chamber)
        if i is None:
            raise ValueError("chamber outside the ball: distance unknown")
        return self.value_at_index(i, graph)

    def value_at_index(self, i: int, graph: BallGraph) -> Fraction:
        if self.values is not None:
            return self.values.lookup(graph.chambers[i])
        return Fraction(-1, self._rule_q(graph)) ** graph.distance[i]

    def _rule_q(self, graph: BallGraph) -> int:
        """The rule's q, once the ball is known to be centered at its base."""
        base, q = self.rule
        center = graph.chambers[0]
        if center is not base and center != base:
            raise ValueError("rule-form cochain needs a ball centered at its base")
        return q


def cochain_from_map(values: Mapping[FlagChamber, Fraction]) -> Cochain:
    """Map-form cochain; zero entries are dropped."""
    return Cochain(values=tuple(values.items()))


def iwahori_vector(base: FlagChamber, q: int) -> Cochain:
    """The rule-form cochain C -> (-1/q)^d(base, C), with value 1 at base."""
    return Cochain(rule=(base, q))


_ZERO = Fraction(0)


def harmonicity_defect(f: Cochain, face: Face, graph: BallGraph) -> Fraction:
    """Sum of f over all p + 1 chambers containing an interior face.

    A rule-form f is summed in integers over the list of the members'
    distances, with one ``Fraction`` for a nonzero result; the harmonic
    case, a zero numerator, returns a shared ``Fraction(0)``.
    """
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    if f.values is not None:
        return sum((f.value_at_index(i, graph) for i in members), Fraction(0))
    # sum_i (-1/q)^d_i = (-1)^D sum_i (-q)^(D - d_i) / q^D with D = max d_i
    q, dist = f._rule_q(graph), graph.distance
    ds = [dist[i] for i in members]
    top = max(ds)
    num = sum([(-q) ** (top - d) for d in ds])
    if not num:
        return _ZERO
    return Fraction(-num if top % 2 else num, q**top)


def min_distance_chamber(face: Face, graph: BallGraph) -> tuple[FlagChamber, int]:
    """The unique chamber over an interior face closest to the center.

    Asserts the sharp shape of the distance multiset: one chamber at the
    minimum delta and the remaining p at delta + 1; any other shape is
    reported as a failure, not returned.  A tied minimum fails that check,
    so the first minimizer found is the only one.
    """
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    dist = graph.distance
    low = min(members, key=dist.__getitem__)
    delta = dist[low]
    for i in members:
        if i != low and dist[i] != delta + 1:
            raise AssertionError(
                "distance multiset over a face must be one minimum and p at minimum + 1"
            )
    return graph.chambers[low], delta


def decay_profile(f: Cochain, graph: BallGraph) -> tuple[tuple[int, Fraction], ...]:
    """Per-distance maxima of |f| over the ball: (k, max at distance k).
    For a rule-form f it is q^-k at each distance k that occurs, 0 elsewhere."""
    out: list[Fraction] = [Fraction(0)] * (max(graph.distance) + 1)
    if f.values is None:
        q = f._rule_q(graph)
        for k in set(graph.distance):
            out[k] = Fraction(1, q**k)
        return tuple(enumerate(out))
    for i in range(len(graph.chambers)):
        v = abs(f.value_at_index(i, graph))
        k = graph.distance[i]
        if v > out[k]:
            out[k] = v
    return tuple(enumerate(out))


def _ascent_faces(graph: BallGraph) -> dict[int, Face] | None:
    """One ascent face per unknown chamber, or None if some unknown has none.

    The unknowns are the chambers at distance <= R - 1; the ascent face of
    an unknown C is an interior face on which C is the closest chamber and
    the other p sit at d(C) + 1.  Each face has one closest chamber, so
    the chosen faces are distinct.
    """
    dist, full, last = graph.distance, graph.ctx.p + 1, graph.radius - 1
    chosen: dict[int, Face] = {}
    for face, members in graph.faces.items():
        if len(members) != full:
            continue
        low = min(members, key=dist.__getitem__)
        d = dist[low]
        if d > last or low in chosen:
            continue
        if all(dist[j] == d + 1 for j in members if j != low):
            chosen[low] = face
    if len(chosen) != sum(1 for d in dist if d <= last):
        return None
    return chosen


def _full_rank(graph: BallGraph) -> bool:
    """Whether the sparse reduced echelon form over Q of the whole system
    has a pivot in every column."""
    interior = [i for i, d in enumerate(graph.distance) if d <= graph.radius - 1]
    column_of = {i: j for j, i in enumerate(interior)}
    rows = (
        {column_of[i]: 1 for i in graph.faces[face] if i in column_of}
        for face in graph.interior_faces()
    )
    return len(row_reduce(rows)) == len(interior)


def finite_support_rigidity(graph: BallGraph) -> bool:
    """Whether zero is the only cochain supported at distance <= R - 1
    that is harmonic at every face fully visible in the ball.

    The linear system has one 0/1 equation per interior face and one
    unknown per interior chamber.  If every unknown has an ascent face
    (``_ascent_faces``), the rows of those faces, unknowns ordered by
    decreasing distance, are unit lower triangular, so the kernel is
    trivial.  Otherwise the exact rank decides (``_full_rank``).
    """
    if graph.radius < 2:
        raise ValueError("rigidity needs radius at least 2")
    return _ascent_faces(graph) is not None or _full_rank(graph)


def cochain_to_json(f: Cochain, graph: BallGraph | None = None) -> list[dict]:
    """Values as (canonical chamber form, exact rational) records.

    Map form serializes its support; rule form needs a ball and
    serializes over all its chambers.
    """
    if f.values is not None:
        pairs = f.values
    elif graph is None:
        raise ValueError("rule-form serialization needs a ball")
    else:
        pairs = [(c, f.value_at_index(i, graph)) for i, c in enumerate(graph.chambers)]
    return [
        {
            "chamber": [[list(row) for row in cls.hnf] for cls in chamber.classes],
            "value": fraction_json(v),
        }
        for chamber, v in pairs
    ]
