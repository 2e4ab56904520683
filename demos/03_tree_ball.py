"""Lattice classes and chamber balls for GL(2) and GL(3) over Q_p.

A vertex is a homothety class of full lattices, stored as a canonical
integer matrix; a chamber is a cyclic flag of classes.  Enumerating all
chambers within gallery distance R of the standard chamber produces
shells whose sizes are exactly N(k) p^k, the Weyl growth numbers times a
residue power -- the counting form of the Iwahori decomposition.
"""

from weylbuildings import (
    PrimeContext,
    affine_diagram,
    ball,
    bfs_growth,
    chambers_containing,
    face_of,
    face_type,
    lattice_from_rows,
    standard_chamber,
    standard_lattice,
    vertex_label,
)


def main() -> None:
    ctx = PrimeContext(p=2, n=2)
    o = standard_lattice(ctx)
    print(f"standard vertex, p = 2: {o.hnf}, label {vertex_label(o, ctx)}")
    other = lattice_from_rows([[2, 1], [0, 2]], 2)
    print(f"a primitive non-diagonal class: {other.hnf}")

    chamber = standard_chamber(ctx)
    print(f"standard chamber classes: {[c.hnf for c in chamber.classes]}")
    star = chambers_containing(face_of(chamber, 1), ctx)
    print(f"chambers through one vertex-face: {len(star)} (p + 1)")

    for n, p, radius in ((2, 2, 6), (2, 3, 5), (3, 2, 3)):
        ctx = PrimeContext(p=p, n=n)
        graph = ball(ctx, radius)
        counts = bfs_growth(affine_diagram(f"A{n - 1}~"), radius).counts
        predicted = tuple(counts[k] * p**k for k in range(radius + 1))
        print(f"\nn = {n}, p = {p}, R = {radius}: {len(graph)} chambers")
        print(f"  shells     {graph.shell_sizes()}")
        print(f"  N(k) p^k   {predicted}")
        interior = graph.interior_faces()
        print(f"  interior faces: {len(interior)}; each carries p + 1 chambers")
        sample = interior[0]
        print(f"  face types around the center: "
              f"{sorted(face_type(face_of(graph.chambers[0], i), ctx) for i in range(n))}")


if __name__ == "__main__":
    main()
