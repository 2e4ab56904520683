"""Chamber cochains: defects, the sign-decaying vector, decay, rigidity."""

import hashlib
import json
from fractions import Fraction

import pytest

from weylbuildings import (
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


def test_rule_cochain_requires_matching_center(tree_p2):
    g = tree_p2
    f = iwahori_vector(g.chambers[3], 2)  # centered off the ball center
    with pytest.raises(ValueError):
        f.value_at_index(0, g)


def test_map_cochain_outside_ball_is_zero(tree_p2):
    g = tree_p2
    f = cochain_from_map({g.chambers[1]: Fraction(5, 3)})
    assert f.value_at_index(1, g) == Fraction(5, 3)
    assert f.value_at_index(2, g) == 0


def test_finite_support_rigidity(tree_p2, tree_p3, gl3_p2):
    ctx2 = PrimeContext(p=2, n=2, precision=8)
    ctx3 = PrimeContext(p=3, n=2, precision=8)
    assert finite_support_rigidity(ball(ctx2, 3))
    assert finite_support_rigidity(ball(ctx3, 3))
    ctx_gl3 = PrimeContext(p=2, n=3, precision=8)
    assert finite_support_rigidity(ball(ctx_gl3, 2))


@pytest.mark.parametrize("n, p, R", [(2, 2, 6), (2, 3, 4), (3, 2, 4)])
def test_finite_support_rigidity_larger_balls(n, p, R):
    assert finite_support_rigidity(ball(PrimeContext(p=p, n=n, precision=R + n + 1), R))


def test_rigidity_requires_room():
    ctx = PrimeContext(p=2, n=2, precision=6)
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
