"""Reference routes that check the library by another way than its own.

    from references import full_rank

``full_rank`` is the exact rank of a ball's finite-support rigidity
system: the route that ``harmonic.finite_support_rigidity`` answered with
before its unit-triangular certificate became the one route.  The Tier-1
tests and ``tests/rows.py`` import it.  Stdlib and the package only; not a
test module: the default collection reads it for doctests only.
"""

from __future__ import annotations

from weylbuildings.exact import row_reduce


def full_rank(graph) -> bool:
    """Whether the sparse reduced echelon form over Q of the rigidity
    system has a pivot in every column: one 0/1 row per interior face of
    the ball, one column per chamber at distance <= R - 1."""
    interior = [i for i, d in enumerate(graph.distance) if d <= graph.radius - 1]
    column_of = {i: j for j, i in enumerate(interior)}
    rows = (
        {column_of[i]: 1 for i in graph.faces[face] if i in column_of}
        for face in graph.interior_faces()
    )
    return len(row_reduce(rows)) == len(interior)
