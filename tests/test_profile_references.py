"""The profile-reading scan kernels against the member-scanning kernels they replaced.

``harmonicity_defect``, ``min_distance_chamber`` and ``_ascent_faces`` read
each interior face's distance shape from the ball's profile, worked out once
per ``BallGraph``.  The earlier kernels are kept verbatim as references, the
two face queries in ``references`` and the certificate below: each works the
shape out again from the face's members.  Both must give the same results
and raise the same errors on the balls the library serves, on faces at the
ball's edge or outside it too.  On graphs
with other distances the references still find the faces that are not
sharp; the kernels refuse such a graph as a failed invariant, naming the
first of those faces, and only a map form's defect still answers there.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from weylbuildings import (
    BallGraph,
    PrimeContext,
    ball,
    cochain_from_map,
    harmonicity_defect,
    iwahori_vector,
    min_distance_chamber,
)
from weylbuildings.building import Face
from weylbuildings.harmonic import _ZERO, Cochain, _ascent_faces

from references import reference_defect, reference_min_distance_chamber, with_distance

# -- the member-scanning certificate, verbatim ---------------------------------------


def reference_ascent_faces(graph: BallGraph) -> dict[int, Face] | None:
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


# -- comparisons ----------------------------------------------------------------------

SHARP_SHAPE = "distance multiset over a face must be one minimum and p at minimum + 1"

BALLS = [(2, 2, 6), (2, 3, 4), (2, 5, 3), (3, 2, 4), (3, 3, 3)]


def outcome(call):
    """The result with its type, and whether it is the shared zero, or the
    error's type and message."""
    try:
        result = call()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # (closest chamber, delta)
        return tuple, result
    return type(result), result, result is _ZERO


def tampered(g: BallGraph, seed: int) -> BallGraph:
    """g with the members of some interior faces moved to other distances,
    so that those faces take shapes other than one at delta and p at
    delta + 1, ties and far minima among them."""
    rng = random.Random(seed)
    distance = list(g.distance)
    for face in rng.sample(g.interior_faces(), 10):
        for i in g.faces[face]:
            distance[i] = max(0, distance[i] + rng.choice((-1, 0, 1, 2)))
    return with_distance(g, distance)


def cochains(g: BallGraph, seed: int) -> list[Cochain]:
    """Rule form at q = p, p + 1, 2p and 7 centered at g's center, one
    centered elsewhere, and a map form with mixed signs and denominators."""
    p, center = g.ctx.p, g.chambers[0]
    rng = random.Random(seed)
    values = {
        c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in g.chambers if rng.random() < 0.6
    }
    rules = [iwahori_vector(center, q) for q in sorted({p, p + 1, 2 * p, 7})]
    return rules + [iwahori_vector(g.chambers[1], p), cochain_from_map(values)]


def assert_refused(h: BallGraph, faces: list[Face], fs: list[Cochain]) -> None:
    """h has faces the reference finds not sharp: every profile-reading
    query refuses h with the failed invariant naming the first of them,
    and a map form's defect still matches the reference's member sum."""
    unsharp = [face for face in h.interior_faces() if outcome(
        lambda: reference_min_distance_chamber(face, h))[0] is AssertionError]
    assert unsharp
    refused = (AssertionError, f"{SHARP_SHAPE}: {unsharp[0]!r}")
    for face in faces:
        for f in fs:
            got = outcome(lambda: harmonicity_defect(f, face, h))
            if f.values is None:
                assert got == refused
            else:
                assert got == outcome(lambda: reference_defect(f, face, h))
        assert outcome(lambda: min_distance_chamber(face, h)) == refused
    assert outcome(lambda: _ascent_faces(h)) == refused
    assert h._profile is None


def faces_to_query(g: BallGraph) -> list[Face]:
    """Every face of g, interior or at its edge, and a few of the next ball
    out that g does not have."""
    outer = ball(g.ctx, g.radius + 1)
    outside = [face for face in outer.faces if face not in g.faces][:4]
    assert outside
    return [*g.faces, *outside]


def assert_same_answers(g: BallGraph, faces: list[Face], fs: list[Cochain]) -> None:
    kinds = set()
    for face in faces:
        for f in fs:
            got = outcome(lambda: harmonicity_defect(f, face, g))
            assert got == outcome(lambda: reference_defect(f, face, g))
            kinds.add(got[0])
        got = outcome(lambda: min_distance_chamber(face, g))
        expected = outcome(lambda: reference_min_distance_chamber(face, g))
        assert got == expected
        if got[0] is tuple:
            assert got[1][0] is expected[1][0]
        kinds.add(got[0])
    assert _ascent_faces(g) == reference_ascent_faces(g)
    assert {Fraction, tuple, ValueError} <= kinds


@pytest.mark.parametrize("n, p, R", BALLS)
def test_the_profile_kernels_match_the_references_on_every_face(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    faces = faces_to_query(g)
    assert any(len(m) <= p for m in g.faces.values())  # faces at the edge
    assert_same_answers(g, faces, cochains(g, n * 100 + p * 10 + R))
    assert _ascent_faces(g) is not None
    # the rule form at q = p is harmonic: every interior defect the shared zero
    f = iwahori_vector(g.chambers[0], p)
    assert all(harmonicity_defect(f, face, g) is _ZERO for face in g.interior_faces())


@pytest.mark.parametrize("n, p, R", BALLS)
def test_the_profile_kernels_match_the_references_on_other_distances(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    faces = faces_to_query(g)
    for seed in range(3):
        h = tampered(g, 1000 * seed + n * 100 + p * 10 + R)
        assert_refused(h, faces, cochains(h, seed))
    # the last shell moved out by two: every ascent face of an unknown at
    # distance R - 1 loses its shape, so the reference finds no certificate
    distance = [d + 2 if d == R else d for d in g.distance]
    h = with_distance(g, distance)
    assert_refused(h, faces, cochains(h, R))
    assert reference_ascent_faces(h) is None
    # one chamber of the last shell moved out by two at a time: an unknown
    # with a second ascent face keeps a reference certificate through that
    # face, but the kernels refuse the graph all the same
    certificate, changed = _ascent_faces(g), 0
    for x in g.shell(R)[:40]:
        distance = list(g.distance)
        distance[x] += 2
        h = with_distance(g, distance)
        assert outcome(lambda: _ascent_faces(h))[0] is AssertionError
        chosen = reference_ascent_faces(h)
        changed += chosen is not None and chosen != certificate
    if (n, p, R) == (3, 2, 4):
        assert changed
