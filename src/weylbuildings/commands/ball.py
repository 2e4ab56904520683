"""``ball``: shell counts of an enumerated ball against the counting
formula, and the ball itself, its chamber-length arrays as row makers
that the writer calls a slice at a time."""

from __future__ import annotations

from ..cli import Result, _comparison, _context


def _counts(n: int, radius: int) -> list[int]:
    """N(0), ..., N(radius): the elements of each length of the affine Weyl
    group A(n-1)~, n in {2, 3}, read off Bott's formula W(q) = (1 + q) / (1 - q)
    for A1~ and (1 + q + q^2) / (1 - q)^2 for A2~: N(0) = 1, then N(k) = 2
    and N(k) = 3k."""
    return [1] + [2 if n == 2 else 3 * k for k in range(1, radius + 1)]


def run(args) -> Result:
    from ..building import _ball_rows, ball

    ctx = _context(args)
    graph = ball(ctx, args.R)
    predicted = [count * ctx.p**k for k, count in enumerate(_counts(ctx.n, args.R))]
    ok, body, table, csv_table = _comparison(
        f"shell counts for n = {ctx.n}, p = {ctx.p}, R = {args.R}",
        graph.shell_sizes(),
        predicted,
        int,
    )
    return ok, {"command": "ball", **body, "ball": _ball_rows(graph)}, table, csv_table
