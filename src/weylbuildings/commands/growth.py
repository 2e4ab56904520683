"""``growth``: enumerated growth table against the closed-form series."""

from __future__ import annotations

from ..cli import Result, UsageError, _comparison, _parse_label


def run(args) -> Result:
    from ..coxeter import affine_diagram, bfs_growth
    from ..exact import fraction_json
    from ..poincare import bott_rational, expand, exponents_for

    label = _parse_label(args.type)
    if args.K < 0:
        raise UsageError("--K must be nonnegative")
    enumerated = bfs_growth(affine_diagram(label), args.K).counts
    closed = expand(bott_rational(exponents_for(label)), args.K).coefficients
    ok, body, table, csv_table = _comparison(
        f"growth table for {label}", enumerated, closed, fraction_json
    )
    return ok, {"command": "growth", "type": str(label), "K": args.K, **body}, table, csv_table
