"""``period``: partial sums, closed form, tail certificate and, for A1~
and A2~ at q = 2 or 3, the geometric sum over a ball."""

from __future__ import annotations

from ..cli import Result, UsageError, _cell, _columns, _parse_label


def run(args) -> Result:
    from ..exact import fraction_json
    from ..period import geometric_lambda, make_report, report_to_json

    label = _parse_label(args.type)
    try:
        q = int(args.q)
    except ValueError as exc:
        raise UsageError("--q must be an integer for period") from exc
    if q < 2:
        raise UsageError("the residue cardinality q must be at least 2")
    if args.K < 0:
        raise UsageError("--K must be nonnegative")
    # construction certifies the truncation: it raises when the tail bound fails
    report = make_report(label, q, args.K)
    payload = {"command": "period", **report_to_json(report), "certified": True}
    grid = [["k", "partial sum"]] + [[str(k), _cell(s)] for k, s in enumerate(report.partial_sums)]
    table = [
        f"period report for {label}, q = {q}",
        *_columns(grid),
        f"closed form: {_cell(report.closed_form)}",
        f"tail bound: {_cell(report.tail_bound)}",
        f"absolute majorant: {_cell(report.majorant)}",
        "truncation certified: yes",
    ]
    ok = True
    n = label.rank + 1
    if label.family == "A" and n in (2, 3) and q in (2, 3):
        from ..lattice import PrimeContext

        radius = min(args.K, 3 if n == 2 else 2)
        ctx = PrimeContext(p=q, n=n)
        geo = geometric_lambda(ctx, radius)
        ok = geo == report.partial_sums[radius]
        payload["geometric"] = {
            "R": radius,
            "enumerated": fraction_json(geo),
            "closedFormPartial": fraction_json(report.partial_sums[radius]),
            "equal": ok,
        }
        table.append(
            f"geometric sum at R = {radius}: {_cell(geo)} (matches partial sum: {_cell(ok)})"
        )
    header = ["k", "partialSum", "closedForm", "tailBound"]
    rows = [
        [k, s, report.closed_form, report.tail_bound]
        for k, s in enumerate(report.partial_sums)
    ]
    return ok, payload, table, (header, rows)
