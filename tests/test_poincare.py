"""Closed-form growth series: product form, expansion, evaluation, tails."""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbuildings import (
    ExponentTable,
    PoleError,
    RationalFunction,
    absolute_tail,
    affine_diagram,
    bfs_growth,
    bott_rational,
    evaluate,
    expand,
    exponents_for,
    parse_type_label,
    series_to_json,
)

# -- exponent tables -----------------------------------------------------------

FROZEN_EXPONENTS = {
    "A1~": (1,),
    "A2~": (1, 2),
    "A3~": (1, 2, 3),
    "B3~": (1, 3, 5),
    "C2~": (1, 3),
    "D4~": (1, 3, 3, 5),
    "G2~": (1, 5),
    "F4~": (1, 5, 7, 11),
    "E6~": (1, 4, 5, 7, 8, 11),
    "E7~": (1, 5, 7, 9, 11, 13, 17),
    "E8~": (1, 7, 11, 13, 17, 19, 23, 29),
}


@pytest.mark.parametrize("label", sorted(FROZEN_EXPONENTS))
def test_exponents_frozen(label):
    table = exponents_for(parse_type_label(label))
    assert table.exponents == FROZEN_EXPONENTS[label]


def test_exponent_product_is_finite_group_order():
    # product of (exponent + 1) = order of the finite reflection group
    orders = {"A2~": 6, "A3~": 24, "C2~": 8, "G2~": 12, "F4~": 1152}
    for label, order in orders.items():
        table = exponents_for(parse_type_label(label))
        prod = 1
        for m in table.exponents:
            prod *= m + 1
        assert prod == order


# -- the product form ----------------------------------------------------------


def test_product_form_frozen_a2():
    rf = bott_rational(exponents_for(parse_type_label("A2~")))
    assert rf.numerator == (1, 1, 1)
    assert rf.denominator == (1, -2, 1)


def test_product_form_lowest_terms_and_sign():
    for label in ("A1~", "A2~", "A3~", "C2~", "G2~", "F4~"):
        rf = bott_rational(exponents_for(parse_type_label(label)))
        coeffs = [abs(c) for c in rf.numerator + rf.denominator if c]
        common = 0
        for c in coeffs:
            common = gcd(common, c)
        assert common == 1
        assert rf.denominator[0] > 0


def test_expansion_matches_enumeration():
    sizes = {"A1~": 10, "A2~": 10, "A3~": 22, "C2~": 10, "D5~": 9, "E8~": 8, "G2~": 10}
    sizes.update({"B3~": 16, "B4~": 12, "B5~": 9, "C3~": 14, "C4~": 10, "D4~": 12})
    sizes.update({"F4~": 14, "E6~": 9, "E7~": 8})
    for label, depth in sizes.items():
        counts = bfs_growth(affine_diagram(label), depth).counts
        coeffs = expand(bott_rational(exponents_for(parse_type_label(label))), depth).coefficients
        assert [Fraction(c) for c in counts] == list(coeffs)


def test_expand_frozen_cubic():
    rf = RationalFunction((1, 0, 0, -1), (1, -3, 3, -1))  # (1 - X^3) / (1 - X)^3
    assert expand(rf, 5).coefficients == tuple(
        Fraction(c) for c in (1, 3, 6, 9, 12, 15)
    )


# -- evaluation ------------------------------------------------------------------

FROZEN_VALUES = {
    ("A1~", Fraction(-1, 2)): Fraction(1, 3),
    ("A2~", Fraction(-1, 2)): Fraction(1, 3),
    ("A1~", Fraction(-1, 3)): Fraction(1, 2),
    ("A1~", Fraction(1, 2)): Fraction(3),
    ("A1~", Fraction(1, 3)): Fraction(2),
}


@pytest.mark.parametrize("key", sorted(FROZEN_VALUES, key=str))
def test_evaluate_frozen(key):
    label, x = key
    rf = bott_rational(exponents_for(parse_type_label(label)))
    assert evaluate(rf, x) == FROZEN_VALUES[key]


def test_evaluate_pole():
    rf = bott_rational(exponents_for(parse_type_label("A1~")))
    with pytest.raises(PoleError):
        evaluate(rf, Fraction(1))


@pytest.mark.parametrize("x", [0.5, 2.0, "1/2", None], ids=repr)
def test_evaluate_rejects_non_rational_point(x):
    # a float converts to a Fraction exactly, but not to the value meant
    rf = bott_rational(exponents_for("A1~"))
    with pytest.raises(ValueError, match=re.escape(f"x must be int or Fraction, got {x!r}")):
        evaluate(rf, x)


def test_evaluate_agrees_with_partial_sums_direction():
    # partial sums of the alternating series approach the evaluation
    rf = bott_rational(exponents_for(parse_type_label("A2~")))
    coeffs = expand(rf, 30).coefficients
    x = Fraction(-1, 2)
    partial = sum(c * x**k for k, c in enumerate(coeffs))
    assert abs(partial - evaluate(rf, x)) < Fraction(1, 1000)


# -- tails -----------------------------------------------------------------------


def test_absolute_tail_frozen():
    table = ExponentTable(parse_type_label("A1~"), (1,))
    assert absolute_tail(table, 2, 0) == Fraction(2)
    assert absolute_tail(table, 2, 3) == Fraction(1, 4)


def test_absolute_tail_bounds_the_remainder():
    for label in ("A1~", "A2~", "C2~"):
        table = exponents_for(parse_type_label(label))
        rf = bott_rational(table)
        for q in (2, 3):
            coeffs = expand(rf, 25).coefficients
            closed = evaluate(rf, Fraction(-1, q))
            partial = Fraction(0)
            for k in range(16):
                partial += coeffs[k] * Fraction(-1, q) ** k
                assert abs(closed - partial) <= absolute_tail(table, q, k)


def test_absolute_tail_monotone():
    table = exponents_for(parse_type_label("A2~"))
    tails = [absolute_tail(table, 2, k) for k in range(12)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


# -- rational function arithmetic -------------------------------------------------


def test_rational_function_normalizes():
    rf = RationalFunction((2, 2), (4,))
    assert rf.numerator == (1, 1)
    assert rf.denominator == (2,)
    rf = RationalFunction((1,), (-1, 1))
    assert rf.denominator[0] == 1 or rf.denominator[0] == -1
    # sign anchor: the constant term of the denominator is positive
    assert RationalFunction((1,), (-2, 1)).denominator == (2, -1)


def test_non_int_cutoff_and_q_rejected():
    table = exponents_for(parse_type_label("A1~"))
    for cutoff in (2.0, "2"):
        with pytest.raises(ValueError, match=f"got {cutoff!r}"):
            expand(bott_rational(table), cutoff)
    for q in (2.5, Fraction(5, 2), "3"):
        with pytest.raises(ValueError, match=re.escape(f"q must be an int, got {q!r}")):
            absolute_tail(table, q, 3)


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction((1,), (0,))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
)
def test_expansion_satisfies_recurrence(num, den):
    # d * (expansion of n / d) reproduces n, coefficient by coefficient
    if not any(den) or den[0] == 0:
        return
    rf = RationalFunction(tuple(num), tuple(den))
    K = 8
    coeffs = expand(rf, K).coefficients
    n, d = rf.numerator, rf.denominator
    for k in range(K + 1):
        conv = sum(
            Fraction(d[j]) * coeffs[k - j] for j in range(len(d)) if 0 <= k - j
        )
        want = Fraction(n[k]) if k < len(n) else Fraction(0)
        assert conv == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
    st.fractions(min_value=-2, max_value=2),
)
def test_evaluate_matches_direct_quotient(num, den, x):
    if not any(den):
        return
    rf = RationalFunction(tuple(num), tuple(den))
    # evaluate against the reduced form directly (a removable common factor
    # may make the reduced denominator nonzero where the input one vanishes)
    dval = sum(Fraction(c) * x**k for k, c in enumerate(rf.denominator))
    nval = sum(Fraction(c) * x**k for k, c in enumerate(rf.numerator))
    if dval == 0:
        with pytest.raises(PoleError):
            evaluate(rf, x)
    else:
        assert evaluate(rf, x) == nval / dval
        raw_d = sum(Fraction(c) * x**k for k, c in enumerate(den))
        if raw_d != 0:
            raw_n = sum(Fraction(c) * x**k for k, c in enumerate(num))
            assert evaluate(rf, x) == raw_n / raw_d


def test_series_json_literal():
    blob = series_to_json(expand(bott_rational(exponents_for("A1~")), 5))
    assert blob == {
        "coefficients": [{"num": "1", "den": "1"}] + [{"num": "2", "den": "1"}] * 5
    }
