"""The alternating series: partial sums, closed form, tails, geometry."""

import re
from fractions import Fraction

import pytest

import weylbuildings.poincare as poincare
from weylbuildings import (
    PeriodReport,
    PrimeContext,
    absolute_majorant,
    ball,
    geometric_lambda,
    geometric_shell_terms,
    lambda_closed,
    lambda_partial,
    make_report,
    parse_type_label,
    report_to_json,
)

A1 = parse_type_label("A1~")
A2 = parse_type_label("A2~")


def test_partial_sums_frozen():
    assert lambda_partial(A1, 2, 4) == [
        Fraction(1),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 8),
    ]
    assert lambda_partial(A2, 2, 1)[1] == Fraction(-1, 2)


def test_closed_form_frozen():
    assert lambda_closed(A1, 2) == Fraction(1, 3)
    assert lambda_closed(A2, 2) == Fraction(1, 3)
    assert lambda_closed(A1, 3) == Fraction(1, 2)


def test_majorant_frozen():
    assert absolute_majorant(A1, 2) == 3
    assert absolute_majorant(A1, 3) == 2


def test_report_certifies_truncation():
    for label in (A1, A2):
        for q in (2, 3):
            report = make_report(label, q, 20)
            assert report.q_e == q * q
            assert abs(report.partial_sums[-1] - report.closed_form) <= report.tail_bound
            assert report.closed_form == lambda_closed(label, q)
            assert abs(report.closed_form) <= report.majorant


def test_report_validation():
    with pytest.raises(ValueError):
        make_report(A1, 1, 6)


def test_a_report_derives_its_cutoff_and_q_e():
    # q_e and the cutoff are worked out from q_f and the partial sums, so a
    # report built from the six stored fields reads as make_report's does
    for label, q, cutoff in ((A1, 2, 0), (A1, 3, 6), (A2, 5, 4)):
        made = make_report(label, q, cutoff)
        built = PeriodReport(
            made.label, made.q_f, made.partial_sums, made.closed_form, made.tail_bound, made.majorant
        )
        assert built == made
        assert (built.q_e, built.cutoff) == (made.q_e, made.cutoff) == (q * q, cutoff)
        assert report_to_json(built) == report_to_json(made)


def test_a_report_whose_tail_bound_fails_or_has_no_sums_is_refused():
    good = make_report(A1, 2, 6)
    with pytest.raises(ValueError, match="tail bound fails to certify the truncation"):
        PeriodReport(
            good.label, good.q_f, good.partial_sums, good.closed_form, Fraction(0), good.majorant
        )
    with pytest.raises(ValueError, match="partial sums must include S_0"):
        PeriodReport(good.label, good.q_f, (), good.closed_form, good.tail_bound, good.majorant)


@pytest.mark.parametrize(
    "cutoff, problem",
    [(2.0, "an int"), ("2", "an int"), (-1, "nonnegative")],
    ids=["2.0", "'2'", "-1"],
)
def test_report_rejects_bad_cutoff(cutoff, problem):
    with pytest.raises(ValueError, match=re.escape(f"cutoff must be {problem}, got {cutoff!r}")):
        make_report("A1~", 2, cutoff)


def test_a_report_normalizes_the_closed_form_series_once(monkeypatch):
    # every RationalFunction takes one gcd; the closed form, the tail bound
    # and the majorant share one series
    calls = []
    gcd = poincare._poly_gcd
    monkeypatch.setattr(poincare, "_poly_gcd", lambda a, b: calls.append(a) or gcd(a, b))
    poincare._bott_rational.cache_clear()
    report = make_report("E8~", 2, 6)
    assert len(calls) == 1
    assert report == make_report("E8~", 2, 6) and len(calls) == 1
    # the partial sums still come from the enumerated growth counts alone
    monkeypatch.setattr(poincare, "_bott_rational", None)
    assert lambda_partial("E8~", 2, 6) == list(report.partial_sums)


def test_geometric_sum_frozen(tree_p2):
    assert geometric_lambda(tree_p2.ctx, 3, graph=tree_p2) == Fraction(1, 4)
    assert geometric_lambda(tree_p2.ctx, 0, graph=tree_p2) == Fraction(1)


def test_geometric_matches_partials_term_by_term(tree_p2, tree_p3, gl3_p2):
    cases = (
        (tree_p2, A1, 2, 6),
        (tree_p3, A1, 3, 5),
        (gl3_p2, A2, 2, 3),
        (ball(PrimeContext(p=3, n=3), 4), A2, 3, 4),
        (ball(PrimeContext(p=5, n=3), 3), A2, 5, 3),
        (ball(PrimeContext(p=2, n=3), 6), A2, 2, 6),
        (ball(PrimeContext(p=3, n=3), 5), A2, 3, 5),
        (ball(PrimeContext(p=5, n=2), 5), A1, 5, 5),
        (ball(PrimeContext(p=7, n=2), 4), A1, 7, 4),
        (ball(PrimeContext(p=11, n=2), 3), A1, 11, 3),
    )
    for graph, label, q, radius in cases:
        partials = lambda_partial(label, q, radius)
        acc = Fraction(0)
        terms = geometric_shell_terms(graph)
        for k in range(radius + 1):
            acc += terms[k]
            assert acc == partials[k]
        assert geometric_lambda(graph.ctx, radius, graph=graph) == partials[radius]


def test_geometric_requires_large_enough_graph(tree_p2):
    with pytest.raises(ValueError):
        geometric_lambda(tree_p2.ctx, 9, graph=tree_p2)


def test_geometric_names_a_ball_of_another_building(tree_p2):
    # the ball covers the radius; it is the building that differs
    p3 = PrimeContext(p=3, n=2)
    message = "supplied ball belongs to PrimeContext(p=2, n=2), not to PrimeContext(p=3, n=2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        geometric_lambda(p3, 1, graph=tree_p2)
    with pytest.raises(ValueError, match="does not cover the requested radius"):
        geometric_lambda(tree_p2.ctx, 9, graph=tree_p2)


@pytest.mark.parametrize("radius", [2.0, "2"], ids=repr)
def test_geometric_rejects_non_int_radius(tree_p2, radius):
    with pytest.raises(ValueError, match=re.escape(f"radius must be an int, got {radius!r}")):
        geometric_lambda(tree_p2.ctx, radius, graph=tree_p2)
    with pytest.raises(ValueError, match=re.escape(f"radius must be an int, got {radius!r}")):
        geometric_lambda(tree_p2.ctx, radius)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        geometric_lambda(tree_p2.ctx, -2, graph=tree_p2)


def test_report_json_shape():
    blob = report_to_json(make_report(A1, 2, 5))
    assert blob == report_to_json(make_report(A1, 2, 5))
    assert blob["type"] == "A1~"
    assert blob["qF"] == 2
    assert blob["qE"] == 4
    assert blob["K"] == 5
    assert blob["closedForm"] == {"num": "1", "den": "3"}
    assert len(blob["partialSums"]) == 6


def test_report_json_partial_sums_literal():
    blob = report_to_json(make_report(A1, 2, 5))
    assert blob["partialSums"] == [
        {"num": "1", "den": "1"},
        {"num": "0", "den": "1"},
        {"num": "1", "den": "2"},
        {"num": "1", "den": "4"},
        {"num": "3", "den": "8"},
        {"num": "5", "den": "16"},
    ]
