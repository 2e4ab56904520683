"""Chamber cochains: defects, the sign-decaying vector, decay, rigidity."""

import collections
import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylbuildings import (
    BallGraph,
    Cochain,
    PrimeContext,
    ball,
    cochain_from_map,
    decay_profile,
    finite_support_rigidity,
    harmonicity_defect,
    iwahori_vector,
    min_distance_chamber,
    standard_lattice,
    vertex_tree,
)
from weylbuildings.harmonic import _ascent_faces

from references import full_rank, reference_defect, reference_min_distance_chamber, with_distance


# the failed invariant of a face that is not sharp
SHARP_SHAPE = "one minimum and p at minimum \\+ 1"


def test_iwahori_vector_frozen_values(tree_p2):
    g = tree_p2
    f = iwahori_vector(g.chambers[0], 2)
    assert f.value_at_index(0, g) == 1
    assert f.value_at_index(g.shell(1)[0], g) == Fraction(-1, 2)
    assert f.value_at_index(g.shell(3)[0], g) == Fraction(-1, 8)
    assert all(f.value_at_index(i, g) == Fraction(-1, 2) for i in g.shell(1))
    # by chamber: inside the ball through its index, outside refused
    assert f.value(g.chambers[0], g) == 1
    assert f.value(g.chambers[g.shell(3)[0]], g) == Fraction(-1, 8)
    assert f.value(g.chambers[g.shell(8)[-1]], g) == Fraction(1, 256)
    beyond = ball(g.ctx, 9)
    outside = beyond.chambers[beyond.shell(9)[0]]
    with pytest.raises(ValueError, match="chamber outside the ball: distance unknown"):
        f.value(outside, g)


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


@pytest.mark.parametrize("base", ["chamber", None, (1, 2)], ids=repr)
def test_rule_base_must_be_a_chamber(base):
    with pytest.raises(ValueError, match="rule base must be a chamber"):
        Cochain(rule=(base, 2))


@pytest.mark.parametrize("q", [2.0, Fraction(2), "2"], ids=repr)
def test_rule_cochain_rejects_non_int_q(q, tree_p2):
    base = tree_p2.chambers[0]
    for make in (lambda: iwahori_vector(base, q), lambda: Cochain(rule=(base, q))):
        with pytest.raises(ValueError, match=re.escape(f"q must be an int, got {q!r}")):
            make()


def test_rule_cochain_requires_matching_center(tree_p2):
    g = tree_p2
    f = iwahori_vector(g.chambers[3], 2)  # centered off the ball center
    off_center = "rule-form cochain needs a ball centered at its base"
    with pytest.raises(ValueError, match=off_center):
        f.value_at_index(0, g)
    with pytest.raises(ValueError, match=off_center):
        harmonicity_defect(f, g.interior_faces()[0], g)
    with pytest.raises(ValueError, match=off_center):
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
    # faces that are not sharp fail the profile's invariant, so a rule-form
    # defect refuses the graph; its decay profile reads the distances alone
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
            with pytest.raises(AssertionError, match=SHARP_SHAPE):
                harmonicity_defect(f, face, tampered)
        assert decay_profile(f, tampered) == reference_profile(f, tampered)
    assert tampered._profile is None


# (n, p, R) of the balls the benchmark's session workload queries
SESSION_BALLS = ((2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 4), (3, 3, 3))


@pytest.mark.parametrize("n, p, radius", SESSION_BALLS, ids=str)
def test_rule_decay_profile_matches_the_reference_on_the_session_balls(n, p, radius):
    # the rule form reads the distances once; the reference reads each
    # chamber's value and keeps the largest per distance
    g = ball(PrimeContext(p=p, n=n), radius)
    for q in (p, p + 1, 5):
        f = iwahori_vector(g.chambers[0], q)
        profile = decay_profile(f, g)
        assert profile == reference_profile(f, g)
        assert profile == tuple((k, Fraction(1, q**k)) for k in range(radius + 1))


def test_map_decay_profile_is_the_largest_absolute_value_per_distance(tree_p2):
    g = tree_p2
    f = cochain_from_map(
        {
            g.chambers[0]: Fraction(-2),
            g.chambers[g.shell(1)[0]]: Fraction(1, 3),
            g.chambers[g.shell(1)[1]]: Fraction(-1, 2),
            g.chambers[g.shell(3)[4]]: Fraction(5),
            g.chambers[g.shell(3)[5]]: Fraction(-7, 2),
        }
    )
    assert decay_profile(f, g) == (
        (0, 2), (1, Fraction(1, 2)), (2, 0), (3, 5), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0)
    )
    assert decay_profile(cochain_from_map({}), g) == tuple((k, 0) for k in range(9))


def test_map_cochain_outside_ball_is_zero(tree_p2):
    g = tree_p2
    f = cochain_from_map({g.chambers[1]: Fraction(5, 3)})
    assert f.value_at_index(1, g) == Fraction(5, 3)
    assert f.value_at_index(2, g) == 0


@pytest.mark.parametrize("form", ["rule", "map"])
def test_value_at_index_names_an_index_outside_the_ball(tree_p2, form):
    # a negative index no longer reads from the end, nor True as 1
    g = tree_p2
    last = g.chambers[-1]
    f = iwahori_vector(g.chambers[0], 2) if form == "rule" else cochain_from_map({last: Fraction(3)})
    for i in (-1, len(g), "x", True, 1.0):
        kind = "in 0..{}".format(len(g) - 1) if type(i) is int else "an int"
        with pytest.raises(ValueError, match=re.escape(f"i must be {kind}, got {i!r}")):
            f.value_at_index(i, g)
    assert f.value_at_index(len(g) - 1, g) == f.value(last, g)


def assert_certificate(g):
    """One distinct interior ascent face per unknown, every other member
    of it one step farther out: the unit-triangular certificate."""
    chosen = _ascent_faces(g)
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
        assert full_rank(g)
        assert finite_support_rigidity(g)


@pytest.mark.parametrize(
    "n, p, R", [(2, 2, 6), (2, 3, 4), (3, 2, 4), (2, 7, 3), (2, 11, 3), (3, 5, 3)]
)
def test_finite_support_rigidity_larger_balls(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    assert_certificate(g)
    assert full_rank(g)
    assert finite_support_rigidity(g)


@pytest.mark.parametrize("n, p, R", [(2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 5)])
def test_rigidity_certificate_on_balls_too_large_for_the_rank(n, p, R):
    g = ball(PrimeContext(p=p, n=n), R)
    assert_certificate(g)
    assert finite_support_rigidity(g)


def test_rigidity_tampered_distances_take_the_rank_fallback():
    g = ball(PrimeContext(p=2, n=2), 4)
    # push one child of a distance-1 chamber out to distance 3: that
    # chamber's outward face no longer has all its other members at 2, a
    # failed invariant; the exact rank, a reference route now, still
    # finds the system of the same faces and unknowns of full rank
    c = g.shell(1)[0]
    child = next(j for j in g.shell(2) if g.parent[j] == c)
    distance = list(g.distance)
    distance[child] = 3
    tampered = with_distance(g, distance)
    for query in (_ascent_faces, finite_support_rigidity):
        with pytest.raises(AssertionError, match=SHARP_SHAPE):
            query(tampered)
    assert full_rank(tampered)


def test_rigidity_refuses_a_graph_whose_radius_is_not_its_balls():
    # every face sharp, but one more shell of unknowns than the ball can
    # give ascent faces: the outermost chambers have no interior face outward
    g = ball(PrimeContext(p=2, n=2), 4)
    fields = {name: getattr(g, name) for name in BallGraph._shown}
    wider = BallGraph(**{**fields, "radius": 5})
    first = g.shell(4)[0]
    for query in (_ascent_faces, finite_support_rigidity):
        with pytest.raises(AssertionError, match=f"chamber {first} at distance <= R - 1 has no ascent face"):
            query(wider)
    assert not full_rank(wider)


def test_rigidity_requires_room():
    ctx = PrimeContext(p=2, n=2)
    for radius in (0, 1):
        with pytest.raises(ValueError, match="rigidity needs radius at least 2"):
            finite_support_rigidity(ball(ctx, radius))


def test_cochain_json_map_form_literal(tree_p2):
    g = tree_p2
    f = cochain_from_map(
        {g.chambers[5]: Fraction(2), g.chambers[0]: Fraction(-3, 4), g.chambers[3]: Fraction(0)}
    )
    # the zero value is dropped, and the rest are kept by chamber form
    assert [c.sort_key() for c in f.values.support()] == [
        (((1, 0), (0, 1)), ((1, 0), (0, 2))),
        (((1, 0), (0, 4)), ((1, 0), (0, 8))),
    ]
    assert f.values == ((g.chambers[0], Fraction(-3, 4)), (g.chambers[5], Fraction(2)))


# -- the scan kernels against the member-scanning references -------------------------


def is_sharp(face, graph):
    """Whether the reference route finds the face's shape sharp."""
    try:
        reference_min_distance_chamber(face, graph)
    except AssertionError:
        return False
    return True


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
        # the reference still sums the members; the library refuses the
        # graph at its first face that is not sharp, which it names
        assert reference_defect(f, face, tampered) != 0
        with pytest.raises(AssertionError, match=SHARP_SHAPE) as refused:
            harmonicity_defect(f, face, tampered)
        named = str(refused.value).rsplit(": ", 1)[1]
        unsharp = [repr(other) for other in tampered.interior_faces()
                   if i in tampered.faces[other] and not is_sharp(other, tampered)]
        assert named == unsharp[0]


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


def test_a_warm_face_query_enters_no_function_but_the_face_hash():
    # once a ball's profile is built, a defect of its own sign-decaying
    # vector and a closest-chamber query each answer with one lookup in the
    # profile: the face's hash is the only Python function of the package
    # that either enters
    package = Path(harmonicity_defect.__code__.co_filename).parent
    for ctx, R in ((PrimeContext(p=2, n=2), 8), (PrimeContext(p=3, n=3), 3)):
        g = ball(ctx, R)
        interior = g.interior_faces()  # 510 and 129: a session scan's 160, or all
        faces = random.Random(0).sample(interior, min(160, len(interior)))
        f = iwahori_vector(g.chambers[0], ctx.p)
        min_distance_chamber(faces[0], g)  # builds the profile
        entered = collections.Counter()

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and Path(code.co_filename).parent == package:
                entered[Path(code.co_filename).name, code.co_name] += 1

        sys.setprofile(profiler)
        try:
            results = [(harmonicity_defect(f, face, g), min_distance_chamber(face, g)) for face in faces]
        finally:
            sys.setprofile(None)
        assert all(defect == 0 for defect, _ in results)
        assert entered == {
            ("harmonic.py", "harmonicity_defect"): len(faces),
            ("harmonic.py", "min_distance_chamber"): len(faces),
            ("building.py", "__hash__"): 2 * len(faces),
        }
        # a base equal to the center but not built on the ball's own flag
        # takes the comparison with the center, and answers the same
        for q in (ctx.p, ctx.p + 1):
            own, twin = (iwahori_vector(base, q) for base in (g.chambers[0], copy.deepcopy(g.chambers[0])))
            assert twin.rule[0].classes is not g._flags[0]
            assert [harmonicity_defect(own, face, g) for face in faces] == [
                harmonicity_defect(twin, face, g) for face in faces]


# -- the distance profile, worked out once per ball -----------------------------------


def test_the_first_harmonic_query_fills_the_profile_and_later_ones_reuse_it():
    def fresh():
        return ball(PrimeContext(p=3, n=2), 4)

    g = fresh()
    assert g._profile is None
    faces = g.interior_faces()
    rule, rule5 = iwahori_vector(g.chambers[0], 3), iwahori_vector(g.chambers[0], 5)
    # queries that read no face shape leave it empty
    decay_profile(rule, g)
    harmonicity_defect(cochain_from_map({g.chambers[0]: 1}), faces[0], g)
    assert g._profile is None
    assert harmonicity_defect(rule, faces[0], g) == 0
    profile = g._profile
    assert set(profile) == set(faces) and None not in profile.values()
    for face in faces:
        chamber, delta = min_distance_chamber(face, g)
        assert profile[face] == (g.index[chamber], delta, chamber)
        assert chamber is g.chambers[profile[face][0]]
        harmonicity_defect(rule5, face, g)
    assert finite_support_rigidity(g)
    assert g._profile is profile
    # each reader fills it on a ball no query has read
    for query in (
        lambda h: min_distance_chamber(faces[0], h),
        lambda h: harmonicity_defect(rule5, faces[0], h),
        finite_support_rigidity,
    ):
        h = fresh()
        query(h)
        assert h._profile == profile and h._profile is not profile


def test_copies_and_pickles_answer_as_the_ball_does():
    g = ball(PrimeContext(p=2, n=3), 3)
    faces = g.interior_faces()
    f = iwahori_vector(g.chambers[0], 3)

    def answers(h):
        scan = [(harmonicity_defect(f, face, h), min_distance_chamber(face, h)) for face in faces]
        return scan, _ascent_faces(h), finite_support_rigidity(h)

    def copies(h):
        return [copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))]

    unread = copies(g)
    assert all(h == g and h._profile is None for h in unread)
    expected = answers(g)
    read = copies(g)
    assert all(h == g and h._profile == g._profile for h in read)
    for h in unread + read:
        assert answers(h) == expected
        assert h._profile == g._profile


def test_a_graph_rebuilt_with_other_distances_builds_its_own_profile():
    g = ball(PrimeContext(p=2, n=2), 4)
    face = g.interior_faces()[-1]
    chamber, delta = min_distance_chamber(face, g)
    profile = g._profile
    same = with_distance(g, g.distance)
    assert same._profile is None
    assert min_distance_chamber(face, same) == (chamber, delta)
    assert same._profile == profile and same._profile is not profile
    # the closest chamber two steps farther out: the face is no longer
    # sharp, a failed invariant that leaves the graph with no profile
    distance = list(g.distance)
    distance[g.index[chamber]] += 2
    tampered = with_distance(g, distance)
    assert tampered._profile is None
    with pytest.raises(AssertionError, match=SHARP_SHAPE):
        min_distance_chamber(face, tampered)
    assert tampered._profile is None
    assert g._profile is profile and profile[face] == (g.index[chamber], delta, chamber)


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda v, face, g: harmonicity_defect(v, face, "x"), "graph must be a BallGraph, got 'x'"),
        (
            lambda v, face, g: harmonicity_defect(cochain_from_map({}), face, "x"),
            "graph must be a BallGraph, got 'x'",
        ),
        (lambda v, face, g: harmonicity_defect("x", face, g), "f must be a Cochain, got 'x'"),
        (lambda v, face, g: min_distance_chamber(face, "x"), "graph must be a BallGraph, got 'x'"),
        (lambda v, face, g: decay_profile(v, "x"), "graph must be a BallGraph, got 'x'"),
        (lambda v, face, g: decay_profile("x", g), "f must be a Cochain, got 'x'"),
        (lambda v, face, g: finite_support_rigidity("x"), "graph must be a BallGraph, got 'x'"),
        (lambda v, face, g: v.value(g.chambers[1], "x"), "graph must be a BallGraph, got 'x'"),
        (
            lambda v, face, g: v.value_at_index(0, vertex_tree(g.ctx, standard_lattice(g.ctx), 1)),
            "graph must be a BallGraph, got VertexTree(",
        ),
        (
            lambda v, face, g: cochain_from_map({}).value_at_index(0, "x"),
            "graph must be a BallGraph, got 'x'",
        ),
        (lambda v, face, g: harmonicity_defect(v, [], g), "face is not interior to the ball"),
        (
            lambda v, face, g: harmonicity_defect(cochain_from_map({}), [], g),
            "face is not interior to the ball",
        ),
        (lambda v, face, g: min_distance_chamber([], g), "face is not interior to the ball"),
    ],
    ids=[
        "defect-graph",
        "map-defect-graph",
        "defect-cochain",
        "min-distance-graph",
        "decay-graph",
        "decay-cochain",
        "rigidity-graph",
        "rule-value-graph",
        "rule-value-at-index-tree",
        "map-value-at-index-graph",
        "defect-unhashable-face",
        "map-defect-unhashable-face",
        "min-distance-unhashable-face",
    ],
)
def test_a_harmonic_query_refuses_a_value_that_is_not_a_ball_or_cochain(query, message):
    # one ValueError naming the argument, where an AttributeError came before
    g = ball(PrimeContext(p=2, n=2), 3)
    v = iwahori_vector(g.chambers[0], 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        query(v, g.interior_faces()[0], g)
