"""Reference routes that check the library by another way than its own.

    from references import full_rank, reference_defect, with_distance

``full_rank`` is the exact rank of a ball's finite-support rigidity
system: the route that ``harmonic.finite_support_rigidity`` answered with
before its unit-triangular certificate became the one route.
``reference_defect`` and ``reference_min_distance_chamber`` are the face
queries as they were before the ball's distance profile: each works a
face's shape out again from its members.  ``with_distance`` rebuilds a
ball with other distances, which the references still read and the
library refuses.  The Tier-1 tests and ``tests/rows.py`` import them.
Stdlib and the package only; not a test module: the default collection
reads it for doctests only.
"""

from __future__ import annotations

from fractions import Fraction

from weylbuildings.building import BallGraph, Face, FlagChamber
from weylbuildings.exact import row_reduce
from weylbuildings.harmonic import _ZERO, Cochain


def full_rank(graph) -> bool:
    """Whether the sparse reduced echelon form over Q of the rigidity
    system has a pivot in every column: one 0/1 row per interior face of
    the ball, one column per chamber at distance <= R - 1."""
    interior = [i for i, d in enumerate(graph.distance) if d <= graph.radius - 1]
    column_of = {i: j for j, i in enumerate(interior)}
    rows = (
        {column_of[i]: 1 for i in graph.faces[face] if i in column_of}
        for face in graph.interior_faces()
    )
    return len(row_reduce(rows)) == len(interior)


def reference_defect(f: Cochain, face: Face, graph: BallGraph) -> Fraction:
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


def reference_min_distance_chamber(face: Face, graph: BallGraph) -> tuple[FlagChamber, int]:
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


def with_distance(g: BallGraph, distance) -> BallGraph:
    """The ball g rebuilt by keyword with other distances, every other shown
    field as it is; the hidden profile is the new graph's own."""
    fields = {name: getattr(g, name) for name in BallGraph._shown}
    return BallGraph(**{**fields, "distance": tuple(distance)})
