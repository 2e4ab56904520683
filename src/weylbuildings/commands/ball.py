"""``ball``: shell counts of an enumerated ball against the counting
formula, and the ball itself, its chamber-length arrays as row makers
that the writer calls a slice at a time."""

from __future__ import annotations

from ..cli import Result, _comparison, _context


def run(args) -> Result:
    from ..building import _ball_rows, ball
    from ..coxeter import affine_diagram, bfs_growth

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
    return ok, {"command": "ball", **body, "ball": _ball_rows(graph)}, table, csv_table
