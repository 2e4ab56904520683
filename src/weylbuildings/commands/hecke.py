"""``hecke``: presentation relations and character checks at a parameter."""

from __future__ import annotations

from fractions import Fraction

from ..cli import Result, UsageError, _cell, _checks, _parse_label


def run(args) -> Result:
    from ..coxeter import INFINITE_ORDER, affine_diagram
    from ..exact import fraction_json
    from ..hecke import basis_element, multiply, special_character, unit

    label = _parse_label(args.type)
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("--q must be a rational number like 3 or 7/2") from exc
    diagram = affine_diagram(label)
    checks: list[tuple[str, bool]] = []
    one = unit(diagram, q)
    for s in diagram.generators:
        e_s = basis_element(diagram, [s], q)
        lhs = multiply(e_s, e_s)
        rhs = (q - 1) * e_s + q * one
        checks.append((f"quadratic relation at generator {s}", lhs == rhs))
    for i, s in enumerate(diagram.generators):
        for t in diagram.generators[i + 1 :]:
            m = diagram.order(s, t)
            if m == INFINITE_ORDER:
                continue
            left = right = one
            for j in range(m):
                left = multiply(left, basis_element(diagram, [s if j % 2 == 0 else t], q))
                right = multiply(right, basis_element(diagram, [t if j % 2 == 0 else s], q))
            checks.append((f"braid relation for generators {s}, {t}", left == right))
    # every affine diagram has at least the generators 0 and 1
    short = [basis_element(diagram, w, q) for w in ([], [0], [1], [0, 1], [1, 0])]
    char_ok = all(
        special_character(multiply(x, y)) == special_character(x) * special_character(y)
        for x in short
        for y in short
    )
    checks.append(("character multiplicativity on short elements", char_ok))
    unit_ok = all(multiply(one, x) == x and multiply(x, one) == x for x in short)
    checks.append(("unit element absorbs", unit_ok))
    ok, body, table, csv_table = _checks(f"relation checks for {label} at q = {_cell(q)}", checks)
    payload = {"command": "hecke", "type": str(label), "q": fraction_json(q), **body}
    return ok, payload, table, csv_table
