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
Its decay profiles and its defects come from the distances alone.
``iwahori_vector`` builds it.  Its harmonicity is a sharp cancellation:
among the p + 1 chambers over an interior face, exactly one sits at the
minimal distance d and the other p at d + 1 (the ball's profile checks
that, and ``min_distance_chamber`` returns the minimizer), so the sum is
(-1/q)^d + p (-1/q)^(d+1) = (-1)^d (q - p) / q^(d+1), zero exactly when
q = p.

A ball's interior faces and distances are fixed once ``ball`` returns, and
each interior face is sharp: over it one chamber sits at the least
distance d and the other p at d + 1, by the gate property of panels
(Abramenko and Brown, *Buildings: Theory and Applications*, on
projections).  So each face's shape is worked out once per ``BallGraph``:
its profile, a map from each interior face to (closest chamber's index,
d, that chamber), kept in the graph's hidden ``_profile`` slot.  The first
rule-form defect, closest-chamber or rigidity query of a ball fills it;
``ball`` never does.  Building it checks every interior face, and a face
that is not sharp, which only a graph built with other distances than its
ball's can have, is a failed invariant: AssertionError naming the face.
The defect and closest-chamber queries read the slot themselves, so every
later one answers with one lookup in it and calls nothing but the face's
hash; a rule form whose base is the ball's own center flag skips the
comparison with the center.  A map form's defect sums its members.

``finite_support_rigidity`` decides that the only cochain supported
strictly inside a ball that is harmonic at every fully visible face is
zero, from a unit-triangular certificate: each unknown chamber C gets an
ascent face, an interior face on which C is the closest chamber and so
the other p sit at d(C) + 1.  Ordered by decreasing distance, those rows
form a lower triangular matrix with 1 on the diagonal, so the system has
full rank.  Such a face exists because an affine Weyl group has no
longest element; an unknown without one is the same failed invariant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .building import BallGraph, Face, FlagChamber
from .exact import SparseMap, Value, _field, _int

__all__ = [
    "Cochain",
    "cochain_from_map",
    "iwahori_vector",
    "harmonicity_defect",
    "min_distance_chamber",
    "decay_profile",
    "finite_support_rigidity",
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
            values = SparseMap(values, lambda c: c.sort_key())
        else:
            base, q = rule
            if not isinstance(base, FlagChamber):
                raise ValueError("rule base must be a chamber")
            _int(q, "rule parameter q", 2)
        self._set(values, rule)

    def value(self, chamber: FlagChamber, graph: BallGraph) -> Fraction:
        """Evaluate at a chamber, resolving distances through ``graph``."""
        if self.values is not None:
            return self.values.lookup(chamber, FlagChamber)
        q = self._rule_q(graph)
        try:
            i = graph.index[chamber]
        except (KeyError, TypeError):  # the kind is checked on a miss only, as in ``lookup``
            if not isinstance(chamber, FlagChamber):
                raise ValueError(f"key of the wrong type: {chamber!r}") from None
            raise ValueError("chamber outside the ball: distance unknown") from None
        return Fraction(-1, q) ** graph.distance[i]

    def value_at_index(self, i: int, graph: BallGraph) -> Fraction:
        """The value at the ball's chamber of index i; an i that is not an
        int in range(len(graph)) raises ValueError naming it."""
        if not 0 <= _int(i, "i") < len(_field(graph, BallGraph, "distance", "graph")):
            raise ValueError(f"i must be a chamber index in 0..{len(graph) - 1}, got {i!r}")
        if self.values is None:
            return Fraction(-1, self._rule_q(graph)) ** graph.distance[i]
        return self.values.lookup(graph.chambers[i], FlagChamber)

    def _rule_q(self, graph: BallGraph) -> int:
        """The rule's q, once the ball is known to be centered at its base;
        its first read, of the graph's ``_flags``, names a graph that is not
        a ``BallGraph`` (``exact._field``)."""
        base, q = self.rule
        if base.classes != _field(graph, BallGraph, "_flags", "graph")[0]:
            raise ValueError("rule-form cochain needs a ball centered at its base")
        return q


def cochain_from_map(values: Mapping[FlagChamber, Fraction]) -> Cochain:
    """Map-form cochain; zero entries are dropped."""
    return Cochain(values=tuple(values.items()))


def iwahori_vector(base: FlagChamber, q: int) -> Cochain:
    """The rule-form cochain C -> (-1/q)^d(base, C), with value 1 at base."""
    return Cochain(rule=(base, q))


_ZERO = Fraction(0)
_UNSHARP = "distance multiset over a face must be one minimum and p at minimum + 1: {!r}"


def _profile_of(graph: BallGraph) -> dict[Face, tuple[int, int, FlagChamber]]:
    """Each interior face's distance shape (low, delta, chamber low): its
    member low sits at the minimum delta and the other p at delta + 1.
    Built on the first call for a ball and kept in its ``_profile``; later
    calls return that same dict.  A face of any other shape is a failed
    invariant, AssertionError naming it, and leaves no profile."""
    profile = graph._profile
    if profile is None:
        dist, full, chambers = graph.distance, graph.ctx.p + 1, graph.chambers
        profile = {}
        for face, members in graph.faces.items():
            if len(members) == full:
                low = min(members, key=dist.__getitem__)
                up = dist[low] + 1
                if any(dist[i] != up for i in members if i != low):
                    raise AssertionError(_UNSHARP.format(face))
                profile[face] = (low, up - 1, chambers[low])
        object.__setattr__(graph, "_profile", profile)
    return profile


def harmonicity_defect(f: Cochain, face: Face, graph: BallGraph) -> Fraction:
    """Sum of f over all p + 1 chambers containing an interior face.

    A rule-form f on a face whose closest chamber sits at delta has the
    closed form (-1)^delta (q - p) / q^(delta + 1), the shared
    ``Fraction(0)`` when q = p; delta is one lookup in the ball's profile,
    and a base whose flag is the ball's own center flag (``iwahori_vector``
    of ``graph.chambers[0]``) needs no comparison with the center.  A
    map-form defect is the sum of the members' values.  An f that is not a
    ``Cochain``, a graph that is not a ``BallGraph`` and a face that is not
    interior, hashable or not, raise ValueError; each is caught where its
    first read fails, with no check beside it.
    """
    try:
        values = f.values
    except AttributeError:
        values = _field(f, Cochain, "values", "f")
    try:
        profile = graph._profile
    except AttributeError:
        profile = _field(graph, BallGraph, "_profile", "graph")
    if values is None:
        if profile is None:
            profile = _profile_of(graph)
        try:
            shape = profile[face]
        except (KeyError, TypeError):  # not an interior face, or not hashable
            raise ValueError("face is not interior to the ball") from None
        base, q = f.rule
        if base.classes is not graph._flags[0]:
            q = f._rule_q(graph)
        p = graph.ctx.p
        if q == p:
            return _ZERO
        return Fraction(p - q if shape[1] % 2 else q - p, q ** (shape[1] + 1))
    try:
        members = graph.faces[face]
    except (KeyError, TypeError):
        members = ()
    if len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    return sum((values.lookup(graph.chambers[i], FlagChamber) for i in members), Fraction(0))


def min_distance_chamber(face: Face, graph: BallGraph) -> tuple[FlagChamber, int]:
    """The unique chamber over an interior face closest to the center.

    Returns that chamber and its distance delta; the other p sit at
    delta + 1, as building the ball's profile asserts.  One lookup in the
    profile; a graph that is not a ``BallGraph`` and a face that is not
    interior raise ValueError where that read fails.
    """
    try:
        profile = graph._profile
    except AttributeError:
        profile = _field(graph, BallGraph, "_profile", "graph")
    if profile is None:
        profile = _profile_of(graph)
    try:
        shape = profile[face]
    except (KeyError, TypeError):  # not an interior face, or not hashable
        raise ValueError("face is not interior to the ball") from None
    return shape[2], shape[1]


def decay_profile(f: Cochain, graph: BallGraph) -> tuple[tuple[int, Fraction], ...]:
    """Per-distance maxima of |f| over the ball: (k, max at distance k).
    For a rule-form f it is q^-k at each distance k that occurs, 0 elsewhere;
    that form reads the distances once, into the set of those that occur,
    and takes its length from the largest of them."""
    values = _field(f, Cochain, "values", "f")
    distance = _field(graph, BallGraph, "distance", "graph")
    if values is None:
        q = f._rule_q(graph)
        occurring = set(distance)
        out: list[Fraction] = [_ZERO] * (max(occurring) + 1)
        for k in occurring:
            out[k] = Fraction(1, q**k)
        return tuple(enumerate(out))
    out = [_ZERO] * (max(distance) + 1)
    for chamber, k in zip(graph.chambers, distance):
        v = abs(values.lookup(chamber, FlagChamber))
        if v > out[k]:
            out[k] = v
    return tuple(enumerate(out))


def _ascent_faces(graph: BallGraph) -> dict[int, Face]:
    """One ascent face per unknown chamber, the unit-triangular certificate.

    The unknowns are the chambers at distance <= R - 1; the ascent face of
    an unknown C is an interior face on which C is the closest chamber, so
    the other p sit at d(C) + 1.  Each face has one closest chamber, so
    the chosen faces are distinct.  An unknown with no ascent face is a
    failed invariant, AssertionError naming its index.
    """
    last, dist = graph.radius - 1, graph.distance
    chosen: dict[int, Face] = {}
    for face, (low, delta, _) in _profile_of(graph).items():
        if delta <= last:
            chosen.setdefault(low, face)
    if len(chosen) != sum(1 for d in dist if d <= last):
        raise AssertionError("chamber {} at distance <= R - 1 has no ascent face".format(
            next(i for i, d in enumerate(dist) if d <= last and i not in chosen)))
    return chosen


def finite_support_rigidity(graph: BallGraph) -> bool:
    """Whether zero is the only cochain supported at distance <= R - 1
    that is harmonic at every face fully visible in the ball.

    The linear system has one 0/1 equation per interior face and one
    unknown per interior chamber.  Every unknown has an ascent face
    (``_ascent_faces``), so the rows of those faces, unknowns ordered by
    decreasing distance, are unit lower triangular and the kernel is
    trivial: the answer is True once the certificate is found, and a
    graph without one fails the invariant (AssertionError).
    """
    if _field(graph, BallGraph, "radius", "graph") < 2:
        raise ValueError("rigidity needs radius at least 2")
    return bool(_ascent_faces(graph))
