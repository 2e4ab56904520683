"""Command-line front end: every verification pipeline, machine-readable.

Subcommands
    growth    enumerated growth table vs closed-form series, side by side
    period    partial sums, closed form, tail certificate, geometric check
    harmonic  defect scan of the sign-decaying vector over a ball
    ball      shell counts of an enumerated ball vs the counting formula
    hecke     presentation relations and character checks at a parameter
    boundary  tree cochain, end chart and boundary-map checks

Shared flags: --type, --q, --p, --n, --R, --K, --format {json,csv,table},
--out PATH, --seed.  All numbers are exact rationals rendered as text;
rows carry a method column (enumerated vs closed-form) where two routes
are compared.  Identical configuration produces byte-identical JSON.

Exit status: 0 when every exact check passes, 1 when any check fails,
2 on usage errors (bad flags, malformed labels, invalid parameters).  A
``ValueError`` or ``AssertionError`` raised by the library once the
arguments are validated is a broken invariant: it is reported as
``error: check failed: <message>`` with exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .boundary import (
    BoundaryFunction,
    boundary_value,
    coboundary,
    end_chart,
    end_count,
    lift,
    primitive_cochain,
    sphere_vertex_count,
    vertex_tree,
    zero_cochain_from_map,
)
from .building import PrimeContext, ball, ball_to_json, standard_lattice
from .coxeter import (
    INFINITE_ORDER,
    affine_diagram,
    bfs_growth,
    element_from_word,
    parse_type_label,
)
from .exact import fraction_json
from .harmonic import harmonicity_defect, iwahori_vector, min_distance_chamber
from .hecke import basis_element, multiply, special_character, unit
from .period import geometric_lambda, make_report, report_to_json
from .poincare import bott_rational, expand, exponents_for

__all__ = ["build_parser", "main", "entrypoint"]


class UsageError(ValueError):
    """Bad parameter combination; maps to exit status 2."""


def _cell(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def _emit(args, payload: dict, table_lines: list[str], csv_table: tuple[list[str], list[list]]) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = csv_table
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
        text = buf.getvalue()
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot open --out {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _columns(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _parse_label(text: str):
    try:
        return parse_type_label(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- growth -----------------------------------------------------------------


def cmd_growth(args) -> int:
    label = _parse_label(args.type)
    if args.K < 0:
        raise UsageError("--K must be nonnegative")
    enumerated = bfs_growth(affine_diagram(label), args.K).counts
    closed = expand(bott_rational(exponents_for(label)), args.K).coefficients
    equal = [Fraction(a) == b for a, b in zip(enumerated, closed)]
    ok = all(equal)
    payload = {
        "command": "growth",
        "type": str(label),
        "K": args.K,
        "rows": [
            {
                "k": k,
                "enumerated": enumerated[k],
                "closedForm": fraction_json(closed[k]),
                "equal": equal[k],
            }
            for k in range(args.K + 1)
        ],
        "allEqual": ok,
    }
    grid = [
        ["method"] + [str(k) for k in range(args.K + 1)],
        ["enumerated"] + [str(c) for c in enumerated],
        ["closed-form"] + [_cell(c) for c in closed],
    ]
    table = [f"growth table for {label}"] + _columns(grid) + [f"all equal: {_cell(ok)}"]
    header = ["k", "enumerated", "closedForm", "equal"]
    rows = [[k, enumerated[k], closed[k], equal[k]] for k in range(args.K + 1)]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- period -----------------------------------------------------------------


def cmd_period(args) -> int:
    label = _parse_label(args.type)
    if args.q is None:
        raise UsageError("period needs --q")
    try:
        q = int(args.q)
    except ValueError as exc:
        raise UsageError("--q must be an integer for period") from exc
    if q < 2:
        raise UsageError("the residue cardinality q must be at least 2")
    if args.K < 0:
        raise UsageError("--K must be nonnegative")
    report = make_report(label, q, args.K)
    certified = abs(report.partial_sums[-1] - report.closed_form) <= report.tail_bound
    ok = certified
    geometric = None
    n = label.rank + 1
    if label.family == "A" and n in (2, 3) and q in (2, 3):
        radius = min(args.K, 3 if n == 2 else 2)
        ctx = PrimeContext(p=q, n=n, precision=radius + n + 1)
        geo = geometric_lambda(ctx, radius)
        partial = report.partial_sums[radius]
        geometric = {
            "R": radius,
            "enumerated": fraction_json(geo),
            "closedFormPartial": fraction_json(partial),
            "equal": geo == partial,
        }
        ok = ok and geo == partial
    payload = {"command": "period", **report_to_json(report), "certified": certified}
    if geometric is not None:
        payload["geometric"] = geometric
    table = [f"period report for {label}, q = {q}"]
    grid = [["k", "partial sum"]] + [
        [str(k), _cell(s)] for k, s in enumerate(report.partial_sums)
    ]
    table += _columns(grid)
    table.append(f"closed form: {_cell(report.closed_form)}")
    table.append(f"tail bound: {_cell(report.tail_bound)}")
    table.append(f"absolute majorant: {_cell(report.majorant)}")
    table.append(f"truncation certified: {_cell(certified)}")
    if geometric is not None:
        table.append(
            f"geometric sum at R = {geometric['R']}: {_cell(geo)}"
            f" (matches partial sum: {_cell(geometric['equal'])})"
        )
    header = ["k", "partialSum", "closedForm", "tailBound"]
    rows = [
        [k, s, report.closed_form, report.tail_bound]
        for k, s in enumerate(report.partial_sums)
    ]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- harmonic ----------------------------------------------------------------


def cmd_harmonic(args) -> int:
    ctx = _context(args)
    graph = ball(ctx, args.R)
    vector = iwahori_vector(graph.chambers[0], ctx.p)
    interior = graph.interior_faces()
    nonzero = 0
    unique_violations = 0
    for face in interior:
        if harmonicity_defect(vector, face, graph) != 0:
            nonzero += 1
        try:
            min_distance_chamber(face, graph)
        except AssertionError:
            unique_violations += 1
    ok = nonzero == 0 and unique_violations == 0
    payload = {
        "command": "harmonic",
        "n": ctx.n,
        "p": ctx.p,
        "R": args.R,
        "chambers": len(graph),
        "interiorFaces": len(interior),
        "nonzeroDefects": nonzero,
        "uniquenessViolations": unique_violations,
        "pass": ok,
    }
    table = [
        f"ball n = {ctx.n}, p = {ctx.p}, R = {args.R}: {len(graph)} chambers",
        f"defects: {nonzero} nonzero / {len(interior)} faces",
        f"minimal-distance uniqueness: {unique_violations} violations / {len(interior)} faces",
        f"pass: {_cell(ok)}",
    ]
    header = ["check", "failures", "total", "pass"]
    rows = [
        ["zero defect", nonzero, len(interior), nonzero == 0],
        ["unique minimum", unique_violations, len(interior), unique_violations == 0],
    ]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- ball --------------------------------------------------------------------


def cmd_ball(args) -> int:
    ctx = _context(args)
    graph = ball(ctx, args.R)
    sizes = graph.shell_sizes()
    counts = bfs_growth(affine_diagram(f"A{ctx.n - 1}~"), args.R).counts
    predicted = [counts[k] * ctx.p**k for k in range(args.R + 1)]
    equal = [a == b for a, b in zip(sizes, predicted)]
    ok = all(equal)
    payload = {
        "command": "ball",
        "rows": [
            {
                "k": k,
                "enumerated": sizes[k],
                "closedForm": predicted[k],
                "equal": equal[k],
            }
            for k in range(args.R + 1)
        ],
        "allEqual": ok,
        "ball": ball_to_json(graph),
    }
    grid = [
        ["method"] + [str(k) for k in range(args.R + 1)],
        ["enumerated"] + [str(s) for s in sizes],
        ["closed-form"] + [str(x) for x in predicted],
    ]
    table = (
        [f"shell counts for n = {ctx.n}, p = {ctx.p}, R = {args.R}"]
        + _columns(grid)
        + [f"all equal: {_cell(ok)}"]
    )
    header = ["k", "enumerated", "closedForm", "equal"]
    rows = [[k, sizes[k], predicted[k], equal[k]] for k in range(args.R + 1)]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- hecke -------------------------------------------------------------------


def cmd_hecke(args) -> int:
    label = _parse_label(args.type)
    if args.q is None:
        raise UsageError("hecke needs --q")
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
            left = one
            right = one
            for j in range(m):
                left = multiply(left, basis_element(diagram, [s if j % 2 == 0 else t], q))
                right = multiply(right, basis_element(diagram, [t if j % 2 == 0 else s], q))
            checks.append((f"braid relation for generators {s}, {t}", left == right))
    words = [[], [0]]
    if diagram.size > 1:
        words += [[1], [0, 1], [1, 0]]
    elements = [element_from_word(diagram, w) for w in words]
    char_ok = True
    for v in elements:
        for w in elements:
            e_v = basis_element(diagram, v, q)
            e_w = basis_element(diagram, w, q)
            if special_character(multiply(e_v, e_w)) != special_character(
                e_v
            ) * special_character(e_w):
                char_ok = False
    checks.append(("character multiplicativity on short elements", char_ok))
    unit_ok = all(
        multiply(one, basis_element(diagram, w, q)) == basis_element(diagram, w, q)
        and multiply(basis_element(diagram, w, q), one) == basis_element(diagram, w, q)
        for w in words
    )
    checks.append(("unit element absorbs", unit_ok))
    ok = all(passed for _, passed in checks)
    payload = {
        "command": "hecke",
        "type": str(label),
        "q": fraction_json(q),
        "checks": [{"name": name, "pass": passed} for name, passed in checks],
        "pass": ok,
    }
    table = [f"relation checks for {label} at q = {_cell(q)}"]
    table += [f"{name}: {_cell(passed)}" for name, passed in checks]
    table.append(f"pass: {_cell(ok)}")
    header = ["check", "pass"]
    rows = [[name, passed] for name, passed in checks]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- boundary ----------------------------------------------------------------


def cmd_boundary(args) -> int:
    if args.n != 2:
        raise UsageError("boundary checks run on the n = 2 tree")
    ctx = _context(args)
    if args.R < 1:
        raise UsageError("--R must be at least 1 for boundary checks")
    rng = random.Random(args.seed)
    origin = standard_lattice(ctx)
    tree = vertex_tree(ctx, origin, args.R)
    checks: list[tuple[str, bool]] = []
    checks.append(
        ("vertex count matches closed form", len(tree) == sphere_vertex_count(ctx.p, args.R))
    )
    ends = tree.ends()
    checks.append(("end count matches closed form", len(ends) == end_count(ctx.p, args.R)))
    charts = [end_chart(e, ctx) for e in ends]
    checks.append(("end charts are pairwise distinct", len(set(charts)) == len(charts)))

    def random_zero_cochain():
        interior = [tree.vertices[i] for i in range(len(tree)) if tree.depth[i] <= args.R - 1]
        picks = rng.sample(interior, k=min(len(interior), rng.randint(1, 4)))
        return zero_cochain_from_map(
            {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in picks}
        )

    constant_ok = True
    recover_ok = True
    for _ in range(10):
        f = random_zero_cochain()
        omega = coboundary(f, ctx)
        bf = boundary_value(omega, origin, args.R, ctx)
        c = bf.constant_value()
        if c is None or c != f.value(origin):
            constant_ok = False
        recovered = primitive_cochain(omega, origin, args.R, ctx)
        if coboundary(recovered, ctx) != omega or recovered != f:
            recover_ok = False
    checks.append(("boundary of a coboundary is constant", constant_ok))
    checks.append(("primitive reconstruction inverts the coboundary", recover_ok))

    lift_ok = True
    for _ in range(10):
        values = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in ends}
        g = BoundaryFunction(depth=args.R, parts=tuple(values.items()))
        omega = lift(g, origin, ctx)
        back = boundary_value(omega, origin, args.R, ctx)
        if back.parts != g.parts:
            lift_ok = False
    checks.append(("lift round-trips through the boundary value", lift_ok))

    ok = all(passed for _, passed in checks)
    payload = {
        "command": "boundary",
        "p": ctx.p,
        "R": args.R,
        "seed": args.seed,
        "vertexCount": len(tree),
        "endCount": len(ends),
        "checks": [{"name": name, "pass": passed} for name, passed in checks],
        "pass": ok,
    }
    table = [f"tree checks for p = {ctx.p}, depth {args.R} (seed {args.seed})"]
    table += [f"{name}: {_cell(passed)}" for name, passed in checks]
    table.append(f"pass: {_cell(ok)}")
    header = ["check", "pass"]
    rows = [[name, passed] for name, passed in checks]
    _emit(args, payload, table, (header, rows))
    return 0 if ok else 1


# -- plumbing ----------------------------------------------------------------


def _context(args) -> PrimeContext:
    if args.n not in (2, 3):
        raise UsageError("--n must be 2 or 3")
    if args.R < 0:
        raise UsageError("--R must be nonnegative")
    try:
        return PrimeContext(p=args.p, n=args.n, precision=args.R + args.n + 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbuildings",
        description="exact checks for Weyl growth, Hecke relations, building balls, "
        "harmonic cochains, tree boundaries and the alternating period",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--out", default=None, help="write output to this path")

    g = sub.add_parser("growth", help="enumerated growth vs closed-form series")
    g.add_argument("--type", required=True, help="affine type label like A2~")
    g.add_argument("--K", type=int, default=10, help="largest length to compare")
    common(g)
    g.set_defaults(func=cmd_growth)

    p = sub.add_parser("period", help="partial sums, closed form, certificates")
    p.add_argument("--type", required=True)
    p.add_argument("--q", required=True, help="residue cardinality, integer >= 2")
    p.add_argument("--K", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_period)

    h = sub.add_parser("harmonic", help="defect scan over an enumerated ball")
    h.add_argument("--n", type=int, default=2)
    h.add_argument("--p", type=int, default=2)
    h.add_argument("--R", type=int, default=4)
    common(h)
    h.set_defaults(func=cmd_harmonic)

    b = sub.add_parser("ball", help="shell counts vs the counting formula")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--p", type=int, default=2)
    b.add_argument("--R", type=int, default=3)
    common(b)
    b.set_defaults(func=cmd_ball)

    k = sub.add_parser("hecke", help="presentation relations at a parameter")
    k.add_argument("--type", required=True)
    k.add_argument("--q", required=True, help="rational parameter, e.g. 3 or 7/2")
    common(k)
    k.set_defaults(func=cmd_hecke)

    d = sub.add_parser("boundary", help="tree boundary-map checks")
    d.add_argument("--n", type=int, default=2)
    d.add_argument("--p", type=int, default=2)
    d.add_argument("--R", type=int, default=2, help="sphere depth")
    d.add_argument("--seed", type=int, default=0)
    common(d)
    d.set_defaults(func=cmd_boundary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
