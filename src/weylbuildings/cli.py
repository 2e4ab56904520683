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
Each subcommand imports the library modules it uses when it runs, so a
request loads only those.

Exit status: 0 when every exact check passes, 1 when any check fails,
2 on usage errors (bad flags, malformed labels, invalid parameters).  A
``ValueError`` or ``AssertionError`` raised by the library once the
arguments are validated is a broken invariant: it is reported as
``error: check failed: <message>`` with exit status 1.  A stdout whose
reader has gone (``... | true``) is reported as one ``error:`` line with
exit status 2, like an ``--out`` path that cannot be opened.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import random
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .building import PrimeContext

__all__ = ["build_parser", "main", "entrypoint"]


class UsageError(ValueError):
    """Bad parameter combination; maps to exit status 2."""


# what a subcommand returns: whether every check passed, the JSON payload,
# the table lines and the CSV (header, rows); ``main`` renders one of them
Result = tuple[bool, dict, list[str], tuple[list[str], list]]


def _cell(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)  # a Fraction prints as n or n/d


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
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


def _columns(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _parse_label(text: str):
    from .coxeter import parse_type_label

    try:
        return parse_type_label(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- shared renderings --------------------------------------------------------


def _comparison(title: str, enumerated, closed, closed_json) -> Result:
    """Enumerated against closed-form values, k by k: the JSON rows and
    ``allEqual``, the transposed table grid and the CSV rows."""
    rows = [[k, a, b, a == b] for k, (a, b) in enumerate(zip(enumerated, closed))]
    ok = all(e for *_, e in rows)
    payload = {
        "rows": [
            {"k": k, "enumerated": a, "closedForm": closed_json(b), "equal": e}
            for k, a, b, e in rows
        ],
        "allEqual": ok,
    }
    grid = [
        [name] + [_cell(row[i]) for row in rows]
        for i, name in enumerate(("method", "enumerated", "closed-form"))
    ]
    table = [title] + _columns(grid) + [f"all equal: {_cell(ok)}"]
    return ok, payload, table, (["k", "enumerated", "closedForm", "equal"], rows)


def _checks(title: str, checks: list[tuple[str, bool]]) -> Result:
    """Named pass/fail checks: the JSON ``checks`` and ``pass``, one
    ``name: yes`` line each and the ``check,pass`` CSV."""
    ok = all(passed for _, passed in checks)
    payload = {"checks": [{"name": name, "pass": passed} for name, passed in checks], "pass": ok}
    table = [title] + [f"{name}: {_cell(passed)}" for name, passed in checks]
    return ok, payload, table + [f"pass: {_cell(ok)}"], (["check", "pass"], checks)


# -- growth -----------------------------------------------------------------


def cmd_growth(args) -> Result:
    from .coxeter import affine_diagram, bfs_growth
    from .exact import fraction_json
    from .poincare import bott_rational, expand, exponents_for

    label = _parse_label(args.type)
    if args.K < 0:
        raise UsageError("--K must be nonnegative")
    enumerated = bfs_growth(affine_diagram(label), args.K).counts
    closed = expand(bott_rational(exponents_for(label)), args.K).coefficients
    ok, body, table, csv_table = _comparison(
        f"growth table for {label}", enumerated, closed, fraction_json
    )
    return ok, {"command": "growth", "type": str(label), "K": args.K, **body}, table, csv_table


# -- period -----------------------------------------------------------------


def cmd_period(args) -> Result:
    from .exact import fraction_json
    from .period import geometric_lambda, make_report, report_to_json

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
        from .building import PrimeContext

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


# -- harmonic ----------------------------------------------------------------


def cmd_harmonic(args) -> Result:
    from .building import ball
    from .harmonic import harmonicity_defect, iwahori_vector, min_distance_chamber

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
    return ok, payload, table, (header, rows)


# -- ball --------------------------------------------------------------------


def cmd_ball(args) -> Result:
    from .building import ball, ball_to_json
    from .coxeter import affine_diagram, bfs_growth

    ctx = _context(args)
    graph = ball(ctx, args.R)
    counts = bfs_growth(affine_diagram(f"A{ctx.n - 1}~"), args.R).counts
    predicted = [counts[k] * ctx.p**k for k in range(args.R + 1)]
    ok, body, table, csv_table = _comparison(
        f"shell counts for n = {ctx.n}, p = {ctx.p}, R = {args.R}",
        graph.shell_sizes(),
        predicted,
        int,
    )
    return ok, {"command": "ball", **body, "ball": ball_to_json(graph)}, table, csv_table


# -- hecke -------------------------------------------------------------------


def cmd_hecke(args) -> Result:
    from .coxeter import INFINITE_ORDER, affine_diagram
    from .exact import fraction_json
    from .hecke import basis_element, multiply, special_character, unit

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


# -- boundary ----------------------------------------------------------------


def cmd_boundary(args) -> Result:
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
    from .building import standard_lattice

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

    ok, body, table, csv_table = _checks(
        f"tree checks for p = {ctx.p}, depth {args.R} (seed {args.seed})", checks
    )
    payload = {
        "command": "boundary",
        "p": ctx.p,
        "R": args.R,
        "seed": args.seed,
        "vertexCount": len(tree),
        "endCount": len(ends),
        **body,
    }
    return ok, payload, table, csv_table


# -- plumbing ----------------------------------------------------------------


def _context(args) -> PrimeContext:
    from .building import PrimeContext

    if args.n not in (2, 3):
        raise UsageError("--n must be 2 or 3")
    if args.R < 0:
        raise UsageError("--R must be nonnegative")
    try:
        return PrimeContext(p=args.p, n=args.n)
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

    def ball_options(p: argparse.ArgumentParser, radius: int, radius_help=None) -> None:
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--R", type=int, default=radius, help=radius_help)

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
    ball_options(h, 4)
    common(h)
    h.set_defaults(func=cmd_harmonic)

    b = sub.add_parser("ball", help="shell counts vs the counting formula")
    ball_options(b, 3)
    common(b)
    b.set_defaults(func=cmd_ball)

    k = sub.add_parser("hecke", help="presentation relations at a parameter")
    k.add_argument("--type", required=True)
    k.add_argument("--q", required=True, help="rational parameter, e.g. 3 or 7/2")
    common(k)
    k.set_defaults(func=cmd_hecke)

    d = sub.add_parser("boundary", help="tree boundary-map checks")
    ball_options(d, 2, "sphere depth")
    d.add_argument("--seed", type=int, default=0)
    common(d)
    d.set_defaults(func=cmd_boundary)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a request builds large acyclic structures, which the cyclic collector
    # would only rescan; it is paused for the subcommand and then restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        ok, payload, table_lines, csv_table = args.func(args)
        _emit(args, payload, table_lines, csv_table)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader of stdout has gone: silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    return 0 if ok else 1


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
