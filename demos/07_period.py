"""The alternating period sum, three ways.

Summing (-1/q)^(length) over an affine Weyl group -- equivalently,
summing the sign-decaying vector over the chambers of the residue-q
building -- converges absolutely, and its value is the growth series
evaluated at -1/q.  This script computes the value by exact evaluation,
by certified truncation, and by literally adding up chambers of an
enumerated ball, and watches all three agree.
"""

from fractions import Fraction

from weylbuildings import (
    PrimeContext,
    ball,
    geometric_lambda,
    geometric_shell_terms,
    lambda_closed,
    lambda_partial,
    make_report,
    parse_type_label,
)


def main() -> None:
    label = parse_type_label("A1~")
    q = 2
    print(f"type {label}, q = {q}")
    print(f"closed form: {lambda_closed(label, q)}")

    report = make_report(label, q, 12)
    print(f"partial sums: {[str(s) for s in report.partial_sums[:8]]}")
    print(f"|S_12 - closed| = {abs(report.partial_sums[-1] - report.closed_form)} "
          f"<= tail bound {report.tail_bound}")

    ctx = PrimeContext(p=2, n=2)
    graph = ball(ctx, 6)
    partials = lambda_partial(label, q, 6)
    print("\nchamber-by-chamber against the series:")
    acc = Fraction(0)
    for k, term in enumerate(geometric_shell_terms(graph)):
        acc += term
        print(f"  R={k}: geometric {str(acc):>8}   series {str(partials[k]):>8}   "
              f"equal {acc == partials[k]}")
    print(f"geometric sum at R = 6: {geometric_lambda(ctx, 6, graph=graph)}")

    label3 = parse_type_label("A2~")
    print(f"\ntype {label3}, q = 2: closed form {lambda_closed(label3, 2)} "
          f"(the same value, from a different group)")


if __name__ == "__main__":
    main()
