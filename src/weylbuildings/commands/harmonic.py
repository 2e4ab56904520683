"""``harmonic``: defect scan of the sign-decaying vector over a ball.

The first defect builds the ball's distance profile, which fails on a face
without one closest chamber and p one step out (exit 1), so the
uniqueness count reported is always 0."""

from __future__ import annotations

from ..cli import Result, _cell, _context


def run(args) -> Result:
    from ..building import ball
    from ..harmonic import harmonicity_defect, iwahori_vector

    ctx = _context(args)
    graph = ball(ctx, args.R)
    vector = iwahori_vector(graph.chambers[0], ctx.p)
    interior = graph.interior_faces()
    nonzero = sum(1 for face in interior if harmonicity_defect(vector, face, graph) != 0)
    ok = nonzero == 0
    payload = {
        "command": "harmonic",
        "n": ctx.n,
        "p": ctx.p,
        "R": args.R,
        "chambers": len(graph),
        "interiorFaces": len(interior),
        "nonzeroDefects": nonzero,
        "uniquenessViolations": 0,
        "pass": ok,
    }
    table = [
        f"ball n = {ctx.n}, p = {ctx.p}, R = {args.R}: {len(graph)} chambers",
        f"defects: {nonzero} nonzero / {len(interior)} faces",
        f"minimal-distance uniqueness: 0 violations / {len(interior)} faces",
        f"pass: {_cell(ok)}",
    ]
    header = ["check", "failures", "total", "pass"]
    rows = [
        ["zero defect", nonzero, len(interior), nonzero == 0],
        ["unique minimum", 0, len(interior), True],
    ]
    return ok, payload, table, (header, rows)
