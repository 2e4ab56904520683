"""Measurement rows of the library's layers, in process.

    python tests/rows.py

Prints one row per measurement: the Coxeter layer's growth, length and
reduced words; the harmonic face queries, the defect of the sign-decaying
vector and the closest chamber, over every interior face of the balls of
the benchmark's ``session`` workload; and the tree boundary maps' two
round trips, lift then ``boundary_value`` and ``coboundary`` then
``primitive_cochain``, on its trees.  Each harmonic row checks every
result it times against the members' distances, and each boundary row
against the input it started from, and says whether all matched; the
script exits 1 when one did not.  Stdlib only, with
no options; it puts the checkout's ``src`` first on the path.  Not a test
module: the default collection reads it for doctests only.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# (n, p, R) of the balls and (p, depth) of the vertex trees, as in the
# session workload
BALLS = ((2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 4), (3, 3, 3))
TREES = ((2, 4), (3, 3), (5, 2))
ROUND_TRIPS = 200  # per tree


def coxeter_rows() -> None:
    # best-of-3 wall seconds of growth, and of length plus reduced word
    # over 500 elements (250 of A3~, 250 of E8~, words of 40 letters)
    from weylbuildings.coxeter import (
        affine_diagram, bfs_growth, element_from_word, length, reduced_word,
    )

    a3, e8 = affine_diagram("A3~"), affine_diagram("E8~")
    rng = random.Random(0)
    words = [(d, [rng.randrange(d.size) for _ in range(40)]) for d in (a3, e8) for _ in range(250)]

    def word_seconds():
        # fresh elements each time: an element keeps its peel once read
        elements = [(d, element_from_word(d, word)) for d, word in words]
        start = time.perf_counter()
        for d, w in elements:
            length(d, w)
            reduced_word(d, w)
        return time.perf_counter() - start

    print(f"bfs_growth E8~ K=8: {best_of_3(lambda: bfs_growth(e8, 8))[0]:.4f} s")
    print(f"bfs_growth A3~ K=30: {best_of_3(lambda: bfs_growth(a3, 30))[0]:.4f} s")
    print(f"length + reduced_word, 500 elements: {min(word_seconds() for _ in range(3)):.4f} s")


def best_of_3(run) -> tuple[float, object]:
    """The least wall seconds of three calls, and the last call's result."""
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return min(seconds), result


def harmonic_rows() -> bool:
    """Best-of-3 wall seconds of ``harmonicity_defect`` of the vector with
    q = p plus ``min_distance_chamber`` over every interior face of each
    ball, the first scan building the ball's profile, and whether each
    result matched the face's members: defect 0, and a member at their
    least distance."""
    from weylbuildings.building import PrimeContext, ball
    from weylbuildings.harmonic import harmonicity_defect, iwahori_vector, min_distance_chamber

    ok = True
    for n, p, radius in BALLS:
        g = ball(PrimeContext(p=p, n=n), radius)
        f, faces = iwahori_vector(g.chambers[0], p), g.interior_faces()

        def scan():
            return [(harmonicity_defect(f, face, g), min_distance_chamber(face, g)) for face in faces]

        seconds, results = best_of_3(scan)
        equal = len(results) == len(faces)
        for face, (defect, (chamber, delta)) in zip(faces, results):
            members = g.faces[face]
            i = g.index.get(chamber)
            equal = equal and defect == 0 and i in members and (
                g.distance[i] == delta == min(g.distance[j] for j in members))
        print(f"defect + closest chamber, (n, p, R) = ({n}, {p}, {radius}), {len(faces)} faces: "
              f"{seconds:.6f} s ({seconds / len(faces) * 1e6:.2f} us per face), all match: {equal}")
        ok = ok and equal
    return ok


def boundary_rows() -> bool:
    """Best-of-3 wall seconds of the two round trips over ROUND_TRIPS seeded
    inputs per tree, and whether each came back equal to its input."""
    from weylbuildings.boundary import (
        BoundaryFunction, boundary_value, coboundary, lift, primitive_cochain, vertex_tree,
        zero_cochain_from_map,
    )
    from weylbuildings.lattice import PrimeContext, standard_lattice

    rng = random.Random(0)
    lifts, primitives = [], []
    for p, depth in TREES:
        ctx = PrimeContext(p=p, n=2)
        origin = standard_lattice(ctx)
        tree = vertex_tree(ctx, origin, depth)
        inner = [v for v, d in zip(tree.vertices, tree.depth) if d < depth]
        for _ in range(ROUND_TRIPS):
            parts = tuple((e, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for e in tree.ends())
            lifts.append((BoundaryFunction(depth, parts), origin, depth, ctx))
            picks = rng.sample(inner, rng.randint(1, 4))
            f = zero_cochain_from_map({v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in picks})
            primitives.append((f, origin, depth, ctx))

    def lifted():
        return [boundary_value(lift(g, o, ctx), o, r, ctx) == g for g, o, r, ctx in lifts]

    def recovered():
        return [primitive_cochain(coboundary(f, ctx), o, r, ctx) == f for f, o, r, ctx in primitives]

    ok = True
    size = f"{len(TREES)} trees x {ROUND_TRIPS}"
    for name, run in (("lift -> boundary_value", lifted), ("coboundary -> primitive_cochain", recovered)):
        seconds, results = best_of_3(run)
        equal = all(results)
        print(f"{name}, {size}: {seconds:.4f} s, all equal: {equal}")
        ok = ok and equal
    return ok


def main() -> int:
    sys.path.insert(0, str(SRC))
    coxeter_rows()
    harmonic = harmonic_rows()
    return 0 if boundary_rows() and harmonic else 1


if __name__ == "__main__":
    sys.exit(main())
