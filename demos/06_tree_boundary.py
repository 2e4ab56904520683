"""Integration on the tree and the boundary map to the projective line.

A 1-cochain on tree edges integrates along paths; pushing the integrals
out to the rim of a sphere gives a function on the ends, each end carrying
projective coordinates [x : y] that chart a clopen ball of the boundary.
The boundary of a coboundary is constant, the constant recovers the
potential, and any end function lifts back to a 1-cochain exactly.
"""

from fractions import Fraction

from weylbuildings import (
    BoundaryFunction,
    PrimeContext,
    boundary_value,
    coboundary,
    end_chart,
    end_count,
    lattice_from_rows,
    lift,
    primitive_cochain,
    sphere_vertex_count,
    standard_lattice,
    vertex_tree,
    zero_cochain_from_map,
)


def main() -> None:
    ctx = PrimeContext(p=2, n=2)
    o = standard_lattice(ctx)

    for r in (1, 2, 3):
        tree = vertex_tree(ctx, o, r)
        print(f"depth {r}: {len(tree)} vertices "
              f"(closed form {sphere_vertex_count(2, r)}), "
              f"{len(tree.ends())} ends (closed form {end_count(2, r)})")

    tree = vertex_tree(ctx, o, 2)
    charts = sorted(end_chart(e, ctx) for e in tree.ends())
    print(f"end charts at depth 2: {charts}")

    s = lattice_from_rows([[1, 0], [0, 2]], 2)
    f = zero_cochain_from_map({o: Fraction(2), s: Fraction(-1, 3)})
    omega = coboundary(f, ctx)
    g = boundary_value(omega, o, 2, ctx)
    print(f"boundary value of the coboundary of f: constant {g.constant_value()} "
          f"(= f at the origin: {f.value(o)})")
    recovered = primitive_cochain(omega, o, 2, ctx)
    print(f"the primitive construction recovers f exactly: {recovered == f}")

    values = {e: Fraction(k, 2) for k, e in enumerate(tree.ends())}
    h = BoundaryFunction(depth=2, parts=tuple(values.items()))
    back = boundary_value(lift(h, o, ctx), o, 2, ctx)
    print(f"lift and boundary value round-trip exactly: {back.parts == h.parts}")


if __name__ == "__main__":
    main()
