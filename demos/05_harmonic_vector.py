"""The sign-decaying harmonic cochain and finite-support rigidity.

A cochain is harmonic when its values over the p + 1 chambers of every
interior face sum to zero.  The distinguished vector
f(C) = (-1/q)^{d(C_0, C)} is harmonic everywhere, decays geometrically,
and is an eigenvector of every generator convolution with eigenvalue -1.
No nonzero finitely supported cochain is harmonic: the homogeneous
system has full rank, shown by a unit-triangular certificate of one
ascent face per unknown chamber.
"""

from fractions import Fraction

from weylbuildings import (
    PrimeContext,
    ball,
    cochain_from_map,
    convolve_chamber_function,
    decay_profile,
    finite_support_rigidity,
    harmonicity_defect,
    iwahori_vector,
)


def main() -> None:
    ctx = PrimeContext(p=2, n=2)
    graph = ball(ctx, 8)
    f = iwahori_vector(graph.chambers[0], 2)

    nonzero = sum(1 for face in graph.interior_faces() if harmonicity_defect(f, face, graph))
    print(f"tree ball p = 2, R = 8: {len(graph)} chambers, "
          f"{len(graph.interior_faces())} interior faces")
    print(f"nonzero defects of the sign-decaying vector: {nonzero}")
    print(f"decay profile: {[(k, str(v)) for k, v in decay_profile(f, graph)[:6]]}")

    g = cochain_from_map({graph.chambers[0]: Fraction(1)})
    face = graph.interior_faces()[0]
    print(f"defect of a one-chamber indicator at a face through it: "
          f"{harmonicity_defect(g, face, graph)}")

    values = {i: f.value_at_index(i, graph) for i in range(len(graph))}
    conv = convolve_chamber_function(values, 0, graph)
    inner = [i for i in range(len(graph)) if graph.distance[i] <= 6]
    print(f"f * e_0 == -f on the interior: "
          f"{all(conv[i] == -values[i] for i in inner)}")

    for p in (2, 3):
        rigid = finite_support_rigidity(ball(PrimeContext(p=p, n=2), 3))
        print(f"finite-support rigidity on the p = {p} tree ball R = 3: {rigid}")


if __name__ == "__main__":
    main()
