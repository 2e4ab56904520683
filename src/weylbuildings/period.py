"""The alternating chamber-sum period of the sign-decaying vector.

Summing the cochain C -> (-1/q_E)^d(C_0, C) with q_E = q_F^2 over all
chambers, shell by shell, gives the series

    S = sum_k N(k) q_F^k (-1/q_F^2)^k = sum_k N(k) (-1/q_F)^k,

where N(k) counts affine Weyl elements of length k and q_F^k is the
number of chambers per element in the shell.  The closed form of the
growth series therefore evaluates the full sum: the period equals
P(-1/q_F), which is nonzero since -1/q_F lies inside (-1, 1).

Three independent routes are implemented and compared in tests:
``lambda_partial`` (enumerated growth counts, exact partial sums),
``lambda_closed`` (rational-function evaluation), and
``geometric_lambda`` (a literal sum of (-1/q_E)^distance over an
enumerated ball of the building, no Weyl theory involved).  The exact
tail bound P(1/q_F) - sum_{k<=K} N(k) q_F^{-k} certifies convergence:
|S_K - closed form| never exceeds it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING

from .coxeter import AffineTypeLabel, affine_diagram, bfs_growth, parse_type_label
from .exact import Value, _field, _int, _tuple, fraction_json
from .poincare import absolute_tail, bott_rational, evaluate, exponents_for

if TYPE_CHECKING:
    from .building import BallGraph, PrimeContext

__all__ = [
    "lambda_partial",
    "lambda_closed",
    "absolute_majorant",
    "geometric_lambda",
    "geometric_shell_terms",
    "PeriodReport",
    "make_report",
    "report_to_json",
]


def lambda_partial(label: AffineTypeLabel | str, q: int, cutoff: int) -> list[Fraction]:
    """Exact partial sums S_0..S_K of sum_k N(k) (-1/q)^k.

    N comes from the breadth-first growth table, so this route is
    independent of the closed-form series.
    """
    _int(q, "q", 2)
    counts = bfs_growth(affine_diagram(label), cutoff).counts
    x = Fraction(-1, q)
    return list(itertools.accumulate(n_k * x**k for k, n_k in enumerate(counts)))


def lambda_closed(label: AffineTypeLabel | str, q: int) -> Fraction:
    """Closed form of the period: the growth series evaluated at -1/q."""
    _int(q, "q", 2)
    return evaluate(bott_rational(exponents_for(label)), Fraction(-1, q))


def absolute_majorant(label: AffineTypeLabel | str, q: int) -> Fraction:
    """P(1/q): exact upper bound for the summed absolute values."""
    _int(q, "q", 2)
    return evaluate(bott_rational(exponents_for(label)), Fraction(1, q))


def geometric_shell_terms(graph: BallGraph) -> list[Fraction]:
    """Shell-by-shell contributions sum_{d(C)=k} (-1/p^2)^k on a ball.

    Purely geometric: only enumerated chambers and their distances enter.
    """
    from .building import BallGraph

    p = _field(graph, BallGraph, "ctx", "graph").p
    x = Fraction(-1, p * p)
    sizes = graph.shell_sizes()
    return [sizes[k] * x**k for k in range(len(sizes))]


def geometric_lambda(
    ctx: PrimeContext, radius: int, graph: BallGraph | None = None
) -> Fraction:
    """Partial period over an enumerated ball: the geometric shell terms
    summed up to the radius.  A ctx or a graph of another kind is named."""
    from .building import BallGraph, ball
    from .lattice import _dimension

    _int(radius, "radius", 0)
    _dimension(ctx)
    if graph is None:
        graph = ball(ctx, radius)
    elif _field(graph, BallGraph, "ctx", "graph") != ctx:
        raise ValueError(f"supplied ball belongs to {graph.ctx!r}, not to {ctx!r}")
    elif graph.radius < radius:
        raise ValueError("supplied ball does not cover the requested radius")
    return sum(geometric_shell_terms(graph)[: radius + 1], Fraction(0))


class PeriodReport(Value):
    """Everything the period computation produces, exactly.

    Invariant: partial_sums runs from S_0, and |partial_sums[-1] -
    closed_form| <= tail_bound.  Two values are derived and not stored: the
    cutoff K = len(partial_sums) - 1, and q_e = q_f^2 (the decay parameter
    lives over the quadratic extension).
    """

    __slots__ = ("label", "q_f", "partial_sums", "closed_form", "tail_bound", "majorant")

    def __init__(
        self,
        label: AffineTypeLabel,
        q_f: int,
        partial_sums: tuple[Fraction, ...],
        closed_form: Fraction,
        tail_bound: Fraction,
        majorant: Fraction,
    ) -> None:
        partial_sums = _tuple(partial_sums, "partial_sums", "Fractions")
        self._set(label, q_f, partial_sums, closed_form, tail_bound, majorant)
        if not partial_sums or abs(partial_sums[-1] - closed_form) > tail_bound:
            raise ValueError(
                "tail bound fails to certify the truncation" if partial_sums
                else "partial sums must include S_0"
            )

    @property
    def q_e(self) -> int:
        return self.q_f**2

    @property
    def cutoff(self) -> int:
        return len(self.partial_sums) - 1


def make_report(label: AffineTypeLabel | str, q: int, cutoff: int) -> PeriodReport:
    """Assemble partial sums, closed form, tail bound and majorant."""
    _int(q, "q", 2)
    label = parse_type_label(label)
    sums = lambda_partial(label, q, cutoff)
    return PeriodReport(
        label=label,
        q_f=q,
        partial_sums=sums,
        closed_form=lambda_closed(label, q),
        tail_bound=absolute_tail(exponents_for(label), q, cutoff),
        majorant=absolute_majorant(label, q),
    )


def report_to_json(report: PeriodReport) -> dict:
    return {
        "type": str(_field(report, PeriodReport, "label", "report")),
        "qF": report.q_f,
        "qE": report.q_e,
        "K": report.cutoff,
        "partialSums": [fraction_json(s) for s in report.partial_sums],
        "closedForm": fraction_json(report.closed_form),
        "tailBound": fraction_json(report.tail_bound),
        "majorant": fraction_json(report.majorant),
    }
