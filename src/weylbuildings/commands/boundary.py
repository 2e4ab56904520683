"""``boundary``: tree cochain, end chart and boundary-map checks on the
n = 2 tree; it reads the vertex layer alone, not the chamber layer."""

from __future__ import annotations

import random
from fractions import Fraction

from ..cli import Result, UsageError, _checks, _context


def run(args) -> Result:
    from ..boundary import (
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
    from ..lattice import standard_lattice

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
