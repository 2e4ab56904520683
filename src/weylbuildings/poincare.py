"""Closed-form growth series of affine Weyl groups, in exact arithmetic.

For a finite Weyl group with exponents m_1 <= ... <= m_r, the length
generating function of the associated affine Weyl group is the product

    P(X) = prod_{i=1}^{r} (1 - X^(m_i + 1)) / ((1 - X)(1 - X^(m_i))),

a rational function with radius of convergence 1, positive on [0, 1) and
nonvanishing on (-1, 1).  Its Taylor coefficient N(k) counts elements of
length k, which is what ties this module to the BFS tables in
``coxeter``: the two computations must agree coefficient by coefficient.

Everything here is exact: polynomials are integer coefficient tuples
(index = degree), rational functions are normalized quotients of such
polynomials, series coefficients and point evaluations are
``fractions.Fraction`` values.  No floats anywhere.

>>> rf = bott_rational(exponents_for(parse_type_label("A1~")))
>>> (rf.numerator, rf.denominator)
((1, 1), (1, -1))
>>> expand(rf, 4).coefficients
(Fraction(1, 1), Fraction(2, 1), Fraction(2, 1), Fraction(2, 1), Fraction(2, 1))
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .coxeter import AffineTypeLabel, parse_type_label
from .exact import Value, _fraction, _int, fraction_json

__all__ = [
    "ExponentTable",
    "exponents_for",
    "RationalFunction",
    "bott_rational",
    "SeriesTruncation",
    "expand",
    "evaluate",
    "absolute_tail",
    "PoleError",
    "series_to_json",
]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


# -- exponent tables ----------------------------------------------------------


class ExponentTable(Value):
    """Exponents of the spherical Weyl group behind an affine type."""

    __slots__ = ("label", "exponents")

    def __init__(self, label: AffineTypeLabel, exponents: tuple[int, ...]) -> None:
        self._set(label, exponents)
        if len(exponents) != label.rank:
            raise ValueError("need exactly rank many exponents")
        for x in exponents:
            _int(x, "exponents")
        if list(exponents) != sorted(exponents) or exponents[0] < 1:
            raise ValueError("exponents must be ascending positive integers")


_EXCEPTIONAL = {
    ("G", 2): (1, 5),
    ("F", 4): (1, 5, 7, 11),
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
}


def exponents_for(label: AffineTypeLabel | str) -> ExponentTable:
    """Exponent multiset of the spherical Weyl group of the given type."""
    label = parse_type_label(label)
    fam, l = label.family, label.rank
    if fam == "A":
        exps = tuple(range(1, l + 1))
    elif fam in ("B", "C"):
        exps = tuple(range(1, 2 * l, 2))
    elif fam == "D":
        exps = tuple(sorted(list(range(1, 2 * l - 2, 2)) + [l - 1]))
    else:
        exps = _EXCEPTIONAL[(fam, l)]
    return ExponentTable(label, exps)


# -- integer polynomials (coefficient tuples, index = degree) -------------------

Poly = tuple[int, ...]


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _content(a: Poly) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def _primitive(a: Poly) -> Poly:
    g = _content(a)
    return tuple(c // g for c in a) if g > 1 else a


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    # lc(b)^(deg a - deg b + 1) * a reduced mod b, all over Z
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        coef = r[db + k]
        r = [lead * c for c in r]
        for j in range(db + 1):
            r[j + k] -= coef * b[j]
        assert r[db + k] == 0
    return _trim(r[:db])


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    # primitive pseudo-remainder sequence; result primitive, positive lead
    a, b = _primitive(a), _primitive(b)
    while b:
        if len(b) == 1:
            a, b = b, ()
            continue
        r = _pseudo_rem(a, b) if len(a) >= len(b) else a
        a, b = b, _primitive(r) if r else ()
    if not a:
        return (1,)
    return a if a[-1] > 0 else tuple(-c for c in a)


def _div_exact(a: Poly, b: Poly) -> Poly:
    # exact division in Z[X]; caller guarantees b | a
    if not a:
        return ()
    out = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        q, rem = divmod(r[len(b) - 1 + k], b[-1])
        assert rem == 0, "division not exact"
        out[k] = q
        for j in range(len(b)):
            r[j + k] -= q * b[j]
    assert all(c == 0 for c in r), "division not exact"
    return _trim(out)


def _one_minus_x_pow(k: int) -> Poly:
    return _trim([1] + [0] * (k - 1) + [-1])


def _eval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- rational functions --------------------------------------------------------


class RationalFunction(Value):
    """Quotient of integer polynomials, normalized on construction.

    Normalization: the polynomial gcd is cancelled, the shared integer
    content is cancelled, and the sign is fixed so the denominator has a
    positive constant term (positive leading term when the constant term
    vanishes).  Two constructions of the same function compare equal.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly) -> None:
        for x in (*numerator, *denominator):
            _int(x, "coefficients")
        num, den = _trim(list(numerator)), _trim(list(denominator))
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if num:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num, den = _div_exact(num, g), _div_exact(den, g)
            c = gcd(_content(num), _content(den))
            if c > 1:
                num = tuple(x // c for x in num)
                den = tuple(x // c for x in den)
        anchor = den[0] if den[0] != 0 else den[-1]
        if anchor < 0:
            num = tuple(-x for x in num)
            den = tuple(-x for x in den)
        self._set(num, den)


def bott_rational(table: ExponentTable) -> RationalFunction:
    """The growth series as a reduced rational function, built once per table.

    >>> bott_rational(exponents_for("A2~"))
    RationalFunction(numerator=(1, 1, 1), denominator=(1, -2, 1))
    """
    if not table.exponents:
        raise ValueError("empty exponent table")
    return _bott_rational(tuple(table.exponents))


@functools.lru_cache(maxsize=32)  # immutable results; the bound caps a long-lived process
def _bott_rational(exponents: tuple[int, ...]) -> RationalFunction:
    num: Poly = (1,)
    den: Poly = (1,)
    for m in exponents:
        num = _mul(num, _one_minus_x_pow(m + 1))
        den = _mul(den, _mul(_one_minus_x_pow(1), _one_minus_x_pow(m)))
    return RationalFunction(num, den)


# -- series and evaluation -----------------------------------------------------


class SeriesTruncation(Value):
    """Taylor coefficients c_0..c_K of a rational function at X = 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]) -> None:
        self._set(coefficients)

    @property
    def cutoff(self) -> int:
        return len(self.coefficients) - 1


def expand(rf: RationalFunction, cutoff: int) -> SeriesTruncation:
    """Power-series expansion by exact long division.

    Requires a denominator with nonzero constant term.  Coefficients obey
    den_0 c_k = num_k - sum_{j>=1} den_j c_{k-j}.
    """
    _int(cutoff, "cutoff", 0)
    den = rf.denominator
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator has a zero constant term")
    d0 = Fraction(den[0])
    coeffs: list[Fraction] = []
    for k in range(cutoff + 1):
        acc = Fraction(rf.numerator[k]) if k < len(rf.numerator) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc / d0)
    return SeriesTruncation(tuple(coeffs))


def evaluate(rf: RationalFunction, x: Fraction) -> Fraction:
    """Exact value rf(x) at an int or Fraction x; raises PoleError on a pole.

    >>> evaluate(bott_rational(exponents_for("A1~")), Fraction(-1, 2))
    Fraction(1, 3)
    """
    x = _fraction(x, "x")
    den = _eval(rf.denominator, x)
    if den == 0:
        raise PoleError(f"pole at {x}")
    return _eval(rf.numerator, x) / den


def absolute_tail(table: ExponentTable, q: int, cutoff: int) -> Fraction:
    """Exact tail bound P(1/q) - sum_{k<=cutoff} N(k) q^-k, q >= 2.

    All N(k) are non-negative, so this majorizes the absolute value of
    every signed tail with the same coefficients at |x| = 1/q.
    """
    _int(q, "q", 2)
    rf = bott_rational(table)
    total = evaluate(rf, Fraction(1, q))
    partial = sum(
        (c * Fraction(1, q) ** k for k, c in enumerate(expand(rf, cutoff).coefficients)),
        Fraction(0),
    )
    return total - partial


def series_to_json(series: SeriesTruncation) -> dict:
    """Exact coefficients as {num, den} decimal-string pairs."""
    return {
        "coefficients": [fraction_json(c) for c in series.coefficients]
    }
