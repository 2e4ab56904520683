"""``harmonic``: defect scan of the sign-decaying vector over a ball."""

from __future__ import annotations

from ..cli import Result, _cell, _context


def run(args) -> Result:
    from ..building import ball
    from ..harmonic import harmonicity_defect, iwahori_vector, min_distance_chamber

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
