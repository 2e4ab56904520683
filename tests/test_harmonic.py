"""Chamber cochains: defects, the sign-decaying vector, decay, rigidity."""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from weylbuildings import (
    BallGraph,
    Cochain,
    PrimeContext,
    ball,
    cochain_from_map,
    cochain_to_json,
    decay_profile,
    finite_support_rigidity,
    harmonicity_defect,
    iwahori_vector,
    min_distance_chamber,
)
from weylbuildings.harmonic import _ascent_faces, _full_rank


def with_distance(g, distance):
    """The ball g rebuilt by keyword with other distances, every other field as it is."""
    fields = {name: getattr(g, name) for name in BallGraph.__slots__}
    return BallGraph(**{**fields, "distance": tuple(distance)})


def test_iwahori_vector_frozen_values(tree_p2):
    g = tree_p2
    f = iwahori_vector(g.chambers[0], 2)
    assert f.value_at_index(0, g) == 1
    assert f.value_at_index(g.shell(1)[0], g) == Fraction(-1, 2)
    assert f.value_at_index(g.shell(3)[0], g) == Fraction(-1, 8)
    assert all(f.value_at_index(i, g) == Fraction(-1, 2) for i in g.shell(1))


def test_iwahori_vector_zero_defect_everywhere(tree_p2, tree_p3, gl3_p2):
    for g, p in ((tree_p2, 2), (tree_p3, 3), (gl3_p2, 2)):
        f = iwahori_vector(g.chambers[0], p)
        for face in g.interior_faces():
            assert harmonicity_defect(f, face, g) == 0


def test_decay_profile_halves(tree_p2):
    f = iwahori_vector(tree_p2.chambers[0], 2)
    profile = dict(decay_profile(f, tree_p2))
    assert profile[0] == 1
    assert profile[4] == Fraction(1, 16)
    for k in range(8):
        assert profile[k + 1] == profile[k] / 2


def test_defect_examples(tree_p2):
    g = tree_p2
    face = g.interior_faces()[0]
    members = g.chambers_of_face(face)
    indicator = cochain_from_map({g.chambers[members[0]]: Fraction(1)})
    assert harmonicity_defect(indicator, face, g) == 1
    all_ones = cochain_from_map({g.chambers[i]: Fraction(1) for i in members})
    assert harmonicity_defect(all_ones, face, g) == 3  # p + 1


def test_defect_requires_interior_face(tree_p2):
    g = tree_p2
    exterior = [f for f in g.faces if len(g.faces[f]) < 3]
    assert exterior
    f = cochain_from_map({g.chambers[0]: Fraction(1)})
    with pytest.raises(ValueError):
        harmonicity_defect(f, exterior[0], g)


def test_min_distance_chamber_unique(tree_p2, gl3_p2):
    for g in (tree_p2, gl3_p2):
        for face in g.interior_faces():
            chamber, delta = min_distance_chamber(face, g)
            i = g.index[chamber]
            assert g.distance[i] == delta
            members = g.chambers_of_face(face)
            assert all(g.distance[j] == delta + 1 for j in members if j != i)


def test_cochain_forms_exclusive():
    with pytest.raises(ValueError):
        Cochain(values=None, rule=None)


@pytest.mark.parametrize("q", [2.0, Fraction(2), "2"], ids=repr)
def test_rule_cochain_rejects_non_int_q(q, tree_p2):
    base = tree_p2.chambers[0]
    for make in (lambda: iwahori_vector(base, q), lambda: Cochain(rule=(base, q))):
        with pytest.raises(ValueError, match=re.escape(f"q must be an int, got {q!r}")):
            make()


def test_rule_cochain_requires_matching_center(tree_p2):
    g = tree_p2
    f = iwahori_vector(g.chambers[3], 2)  # centered off the ball center
    with pytest.raises(ValueError):
        f.value_at_index(0, g)
    with pytest.raises(ValueError):
        harmonicity_defect(f, g.interior_faces()[0], g)
    with pytest.raises(ValueError):
        decay_profile(f, g)


def reference_profile(f, g):
    """Per-distance maxima of |f|, one chamber at a time."""
    out = [Fraction(0)] * (max(g.distance) + 1)
    for i, d in enumerate(g.distance):
        out[d] = max(out[d], abs(f.value_at_index(i, g)))
    return tuple(enumerate(out))


def test_rule_defect_and_profile_when_q_is_not_p(tree_p2, gl3_p2):
    # q != p leaves a nonzero defect on every face, so its sign is seen
    for g, q in ((tree_p2, 3), (tree_p2, 5), (gl3_p2, 3)):
        f = iwahori_vector(g.chambers[0], q)
        for face in g.interior_faces():
            defect = harmonicity_defect(f, face, g)
            assert defect == sum((f.value_at_index(i, g) for i in g.faces[face]), Fraction(0))
            _, delta = min_distance_chamber(face, g)
            assert defect == Fraction(-1, q) ** delta * (1 - Fraction(g.ctx.p, q))
        assert decay_profile(f, g) == reference_profile(f, g)


def test_rule_defect_and_profile_on_any_distances():
    g = ball(PrimeContext(p=2, n=2), 4)
    # distance multisets of other shapes than one at delta and p at
    # delta + 1, and no chamber at distance 3
    distance = list(g.distance)
    for face in g.interior_faces()[:12]:
        for step, i in enumerate(g.faces[face]):
            distance[i] = (distance[i] + 2 * step) % 7
    distance = [6 if d == 3 else d for d in distance]
    tampered = with_distance(g, distance)
    shapes = {tuple(sorted(distance[i] - min(distance[j] for j in m) for i in m))
              for m in (tampered.faces[face] for face in tampered.interior_faces())}
    assert len(shapes) > 2
    assert dict(decay_profile(iwahori_vector(g.chambers[0], 2), tampered))[3] == 0
    for q in (2, 3):
        f = iwahori_vector(g.chambers[0], q)
        for face in tampered.interior_faces():
            expected = sum((f.value_at_index(i, tampered) for i in tampered.faces[face]), Fraction(0))
            assert harmonicity_defect(f, face, tampered) == expected
        assert decay_profile(f, tampered) == reference_profile(f, tampered)


def test_map_cochain_outside_ball_is_zero(tree_p2):
    g = tree_p2
    f = cochain_from_map({g.chambers[1]: Fraction(5, 3)})
    assert f.value_at_index(1, g) == Fraction(5, 3)
    assert f.value_at_index(2, g) == 0


def assert_certificate(g):
    """One distinct interior ascent face per unknown, every other member
    of it one step farther out: the unit-triangular certificate."""
    chosen = _ascent_faces(g)
    assert chosen is not None
    assert sorted(chosen) == [i for i, d in enumerate(g.distance) if d <= g.radius - 1]
    assert len(set(chosen.values())) == len(chosen)
    for i, face in chosen.items():
        members = g.faces[face]
        assert len(members) == g.ctx.p + 1
        assert i in members
        assert all(g.distance[j] == g.distance[i] + 1 for j in members if j != i)


def test_finite_support_rigidity():
    ctx2 = PrimeContext(p=2, n=2)
    ctx3 = PrimeContext(p=3, n=2)
    ctx_gl3 = PrimeContext(p=2, n=3)
    for g in (ball(ctx2, 3), ball(ctx3, 3), ball(ctx_gl3, 2)):
        assert_certificate(g)
        assert _full_rank(g)
        assert finite_support_rigidity(g)


@pytest.mark.parametrize(
    "n, p, R", [(2, 2, 6), (2, 3, 4), (3, 2, 4), (2, 7, 3), (2, 11, 3), (3, 5, 3)]
)
def test_finite_support_rigidity_larger_balls(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    assert_certificate(g)
    assert _full_rank(g)
    assert finite_support_rigidity(g)


@pytest.mark.parametrize("n, p, R", [(2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 5)])
def test_rigidity_certificate_on_balls_too_large_for_the_rank(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    assert_certificate(g)
    assert finite_support_rigidity(g)


def test_rigidity_tampered_distances_take_the_rank_fallback():
    g = ball(PrimeContext(p=2, n=2), 4)
    # push one child of a distance-1 chamber out to distance 3: that
    # chamber's outward face no longer has all its other members at 2
    c = g.shell(1)[0]
    child = next(j for j in g.shell(2) if g.parent[j] == c)
    distance = list(g.distance)
    distance[child] = 3
    tampered = with_distance(g, distance)
    assert _ascent_faces(tampered) is None
    assert finite_support_rigidity(tampered) == _full_rank(tampered)


def test_rigidity_requires_room():
    ctx = PrimeContext(p=2, n=2)
    with pytest.raises(ValueError):
        finite_support_rigidity(ball(ctx, 1))


def test_cochain_json(tree_p2):
    g = tree_p2
    f = cochain_from_map({g.chambers[0]: Fraction(-3, 4)})
    blob = cochain_to_json(f, g)
    assert blob == cochain_to_json(f, g)


def test_cochain_json_map_form_literal(tree_p2):
    g = tree_p2
    f = cochain_from_map(
        {g.chambers[5]: Fraction(2), g.chambers[0]: Fraction(-3, 4), g.chambers[3]: Fraction(0)}
    )
    assert cochain_to_json(f, g) == [
        {
            "chamber": [[[1, 0], [0, 1]], [[1, 0], [0, 2]]],
            "value": {"num": "-3", "den": "4"},
        },
        {
            "chamber": [[[1, 0], [0, 4]], [[1, 0], [0, 8]]],
            "value": {"num": "2", "den": "1"},
        },
    ]


def test_cochain_json_rule_form_literal(tree_p2):
    g = tree_p2
    blob = cochain_to_json(iwahori_vector(g.chambers[0], 2), g)
    assert len(blob) == 1021
    assert blob[:2] == [
        {
            "chamber": [[[1, 0], [0, 1]], [[1, 0], [0, 2]]],
            "value": {"num": "1", "den": "1"},
        },
        {
            "chamber": [[[1, 0], [0, 1]], [[1, 1], [0, 2]]],
            "value": {"num": "-1", "den": "2"},
        },
    ]
    assert blob[-1] == {
        "chamber": [[[128, 0], [0, 1]], [[256, 0], [0, 1]]],
        "value": {"num": "1", "den": "256"},
    }
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d40ad8377545a7ba081c221c0cb57335c3065427eb82084d7292bba7990fcbe"
    )


# -- the scan kernels against the sort-based route ------------------------------------


def reference_defect(f, face, graph):
    """``harmonicity_defect`` with a generator over the members for each of
    the maximum and the sum, and a new Fraction for every result."""
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    if f.values is not None:
        return sum((f.value_at_index(i, graph) for i in members), Fraction(0))
    q, dist = f._rule_q(graph), graph.distance
    top = max(dist[i] for i in members)
    num = sum((-q) ** (top - dist[i]) for i in members)
    return Fraction(-num if top % 2 else num, q**top)


def reference_min_distance_chamber(face, graph):
    """``min_distance_chamber`` by sorting the (distance, index) pairs."""
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    dists = [(graph.distance[i], i) for i in members]
    dists.sort()
    delta = dists[0][0]
    if any(d != delta + 1 for d, _ in dists[1:]):
        raise AssertionError(
            "distance multiset over a face must be one minimum and p at minimum + 1"
        )
    return graph.chambers[dists[0][1]], delta


SHARP_SHAPE = "one minimum and p at minimum \\+ 1"
SCAN_BALLS = [(2, 2, 6), (2, 3, 5), (2, 5, 3), (3, 2, 4), (3, 3, 3)]


@pytest.mark.parametrize("n, p, R", SCAN_BALLS)
def test_scan_kernels_match_the_sort_based_route(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    rng = random.Random(n * 100 + p * 10 + R)
    vectors = [iwahori_vector(g.chambers[0], p), iwahori_vector(g.chambers[0], p + 1)]
    if p != 2:
        vectors.append(iwahori_vector(g.chambers[0], 2))
    vectors.append(cochain_from_map({
        c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for c in g.chambers if rng.random() < 0.6
    }))
    faces = g.interior_faces()
    assert faces
    for face in faces:
        for f in vectors:
            got = harmonicity_defect(f, face, g)
            assert type(got) is Fraction and got == reference_defect(f, face, g)
        chamber, delta = min_distance_chamber(face, g)
        expected = reference_min_distance_chamber(face, g)
        assert chamber is expected[0] and delta == expected[1]
    assert all(harmonicity_defect(vectors[0], face, g) == 0 for face in faces)
    # faces with fewer than p + 1 chambers in the ball: both routes refuse them
    for face in [face for face, m in g.faces.items() if len(m) <= p][:5]:
        for route in (min_distance_chamber, reference_min_distance_chamber):
            with pytest.raises(ValueError, match="face is not interior"):
                route(face, g)
        for route in (harmonicity_defect, reference_defect):
            with pytest.raises(ValueError, match="face is not interior"):
                route(vectors[0], face, g)


@pytest.mark.parametrize("n, p, R", [(2, 2, 4), (2, 3, 3), (3, 2, 3)])
def test_a_tied_or_far_minimum_fails_both_routes(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    face = g.interior_faces()[-1]
    members = g.faces[face]
    low = min(members, key=g.distance.__getitem__)
    others = [i for i in members if i != low]
    f = iwahori_vector(g.chambers[0], p)
    for i, d in ((others[0], g.distance[low]), (others[-1], g.distance[low] + 2)):
        # a second chamber at the minimum, or one two steps beyond it
        distance = list(g.distance)
        distance[i] = d
        tampered = with_distance(g, distance)
        for route in (min_distance_chamber, reference_min_distance_chamber):
            with pytest.raises(AssertionError, match=SHARP_SHAPE):
                route(face, tampered)
        got = harmonicity_defect(f, face, tampered)
        assert got != 0 and got == reference_defect(f, face, tampered)


def test_a_warm_face_scan_hashes_no_class(class_hash_calls):
    # a ball's faces carry their hashes: looking one up in the face map, as
    # each defect and each closest-chamber query does, hashes no class
    scans = []
    tree = ball(PrimeContext(p=2, n=2), 8)
    scans.append((tree, random.Random(0).sample(tree.interior_faces(), 160)))
    gl3 = ball(PrimeContext(p=3, n=3), 3)
    scans.append((gl3, gl3.interior_faces()))
    class_hash_calls[0] = 0
    for g, faces in scans:
        f = iwahori_vector(g.chambers[0], g.ctx.p)
        results = [(harmonicity_defect(f, face, g), min_distance_chamber(face, g)) for face in faces]
        assert all(defect == 0 for defect, _ in results)
    assert class_hash_calls[0] == 0
