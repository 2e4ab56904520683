"""The warm ``session`` workload: one long-lived process calling the library.

    python3 bench/session.py --seed N --rounds R [--setup-only] [--trace 0|1]

Set-up imports the package, builds the shared balls and vertex trees and
warms each diagram's Cayley index.  The timed phase then runs R rounds; a
round is a fixed mix of request kinds (``ROUND``) with seed-drawn
arguments, shuffled.  Only the library calls of a request are timed.  Each
result is checked before its time counts, by an exact identity computed
with this file's own arithmetic or by a value recorded from the seed
commit; a request that raises or gives a wrong answer records no time.

Set-up and request times are scaled to the machine's usual speed by a
reference timed right after set-up and before every REFERENCE_EVERY
rounds (``run.speed_scale``).  The last line of stdout is one JSON object
with the set-up time, the verified latencies, the failure counts and the
scale factors.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from fractions import Fraction
from time import perf_counter, time

from run import speed_scale

# one round: (request kind, how many per round)
ROUND = (
    ("hecke_multiply", 10),
    ("element_query", 8),
    ("decay_profile", 2),
    ("defect_scan", 2),
    ("weyl_word", 1),
    ("rigidity", 1),
    ("lift_round_trip", 2),
    ("primitive_round_trip", 1),
    ("long_product", 1),
)

# diagram -> largest word length the Hecke products reach (index warm-up)
HECKE_TYPES = {"A2~": 16, "C2~": 16, "G2~": 16, "A3~": 16, "B3~": 16}
HECKE_LENGTHS = (3, 8)
HECKE_Q = (Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5, 3))
# diagram -> largest length of a queried element
QUERY_TYPES = {"A1~": 60, "A2~": 20, "G2~": 20, "A3~": 12, "D4~": 8, "F4~": 8}
# (n, p, R): decay profiles, defect scans and Weyl words run on these
BALLS = ((2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 4), (3, 3, 3))
# (n, p, R): small enough for dense rigidity elimination
RIGIDITY_BALLS = ((2, 2, 4), (2, 3, 3), (3, 2, 3))
# recorded at the seed commit: every rigidity ball above is rigid
RIGIDITY_EXPECTED = True
# (p, depth) of the vertex trees for the boundary round trips
TREES = ((2, 4), (3, 3), (5, 2))
SCAN_FACES = 160
WEYL_WORDS = 6
# A1~ products whose length exceeds the Cayley index cutoff of 64
LONG_FIRST = (30, 50)
LONG_TOTAL = (66, 90)
# recorded at the seed commit (generator_face_types): the face type that
# generator g of A(n-1)~ crosses at the center chamber, per n
FACE_TYPE_OF_GENERATOR = {2: (0, 1), 3: (0, 2, 1)}
# the reference interpreter (run.speed_scale) is timed before every this
# many rounds and scales the request times of those rounds
REFERENCE_EVERY = 4


# -- the benchmark's own Coxeter arithmetic, independent of coxeter.length ------


def _matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def word_matrix(mats, word):
    acc = tuple(tuple(int(i == j) for j in range(len(mats))) for i in range(len(mats)))
    for s in word:
        acc = _matmul(acc, mats[s])
    return acc


def _right_descent(m, s) -> bool:
    # s is a right descent of w iff w(alpha_s), column s of w's matrix, is negative
    return any(row[s] < 0 for row in m)


def random_reduced_word(rng, mats, length):
    """Append letters that are not right descents, so each step is reduced."""
    word: list[int] = []
    m = word_matrix(mats, ())
    while len(word) < length:
        s = rng.choice([s for s in range(len(mats)) if not _right_descent(m, s)])
        word.append(s)
        m = _matmul(m, mats[s])
    return word


def hecke_product(mats, q, v, w) -> dict:
    """e_v e_w as {matrix: coefficient}, for reduced words v and w.

    Multiplies e_v on the right by e_s for each letter s of w:
    e_u e_s = e_us when s is not a right descent of u, and
    (q - 1) e_u + q e_us when it is.
    """
    acc = {word_matrix(mats, v): Fraction(1)}
    for s in w:
        nxt: dict = {}
        for u, c in acc.items():
            us = _matmul(u, mats[s])
            if _right_descent(u, s):
                nxt[u] = nxt.get(u, 0) + (q - 1) * c
                nxt[us] = nxt.get(us, 0) + q * c
            else:
                nxt[us] = nxt.get(us, 0) + c
        acc = {u: c for u, c in nxt.items() if c != 0}
    return acc


def vertex_label(cls, p: int, n: int) -> int:
    # the p-adic valuation of the determinant of the class's canonical basis, mod n
    total = 0
    for i in range(n):
        d = cls.hnf[i][i]
        while d % p == 0:
            d //= p
            total += 1
    return total % n


def gallery_ends(wb, graph, word) -> set[int]:
    """Chambers reached from the center by galleries of the word's type
    along which the distance rises by 1 at every step: exactly the
    chambers at Weyl distance ``word`` from the center (none if the word is
    not reduced)."""
    n, p = graph.ctx.n, graph.ctx.p
    face_types = FACE_TYPE_OF_GENERATOR[n]
    reached = {0}
    for g in word:
        step: set[int] = set()
        for c in reached:
            classes = graph.chambers[c].classes
            pos = next(k for k, cls in enumerate(classes) if vertex_label(cls, p, n) == face_types[g])
            panel = graph.faces[wb.Face(classes[:pos] + classes[pos + 1:])]
            step.update(j for j in panel if graph.distance[j] == graph.distance[c] + 1)
        reached = step
    return reached


# -- set-up ---------------------------------------------------------------------


class Session:
    def __init__(self, wb) -> None:
        self.wb = wb
        self.diagrams = {}
        self.mats = {}
        depths: dict[str, int] = {"A1~": 64}
        for table in (QUERY_TYPES, HECKE_TYPES):
            for label, depth in table.items():
                depths[label] = max(depth, depths.get(label, 0))
        for label, depth in depths.items():
            diagram = wb.affine_diagram(label)
            self.diagrams[label] = diagram
            self.mats[label] = wb.generator_matrices(diagram)
            wb.bfs_growth(diagram, depth)
        self.balls = [self._ball(*spec) for spec in BALLS]
        self.vectors = [wb.iwahori_vector(g.chambers[0], g.ctx.p) for g in self.balls]
        self.interior = [g.interior_faces() for g in self.balls]
        self.rigidity_balls = [self._ball(*spec) for spec in RIGIDITY_BALLS]
        self.trees = []
        for p, depth in TREES:
            ctx = wb.PrimeContext(p=p, n=2, precision=depth + 3)
            origin = wb.standard_lattice(ctx)
            tree = wb.vertex_tree(ctx, origin, depth)
            inner = [tree.vertices[i] for i in range(len(tree)) if tree.depth[i] <= depth - 1]
            self.trees.append((ctx, origin, depth, tree.ends(), inner))

    def _ball(self, n, p, r):
        return self.wb.ball(self.wb.PrimeContext(p=p, n=n, precision=r + n + 1), r)

    # Arguments are built with this file's own arithmetic and the library's
    # classes, never its functions, so building them adds no traced span.

    def _element(self, label, word):
        return self.wb.GroupElement(word_matrix(self.mats[label], word))

    def _basis(self, label, word, q):
        return self.wb.HeckeElement(self.diagrams[label], q, ((self._element(label, word), Fraction(1)),))

    # Each request builder returns (call, check): ``call`` runs the timed
    # library calls, ``check(result)`` verifies the result exactly.

    def hecke_multiply(self, rng):
        wb = self.wb
        label = rng.choice(sorted(HECKE_TYPES))
        diagram, mats, q = self.diagrams[label], self.mats[label], rng.choice(HECKE_Q)
        a, b = rng.randint(*HECKE_LENGTHS), rng.randint(*HECKE_LENGTHS)
        v, w = random_reduced_word(rng, mats, a), random_reduced_word(rng, mats, b)
        ev, ew = self._basis(label, v, q), self._basis(label, w, q)

        def check(product):
            return (product.diagram == diagram and product.q == q
                    and {u.matrix: c for u, c in product.terms} == hecke_product(mats, q, v, w))

        return (lambda: wb.multiply(ev, ew)), check

    def element_query(self, rng):
        wb = self.wb
        label = rng.choice(sorted(QUERY_TYPES))
        diagram, mats = self.diagrams[label], self.mats[label]
        size = rng.randint(1, QUERY_TYPES[label])
        element = self._element(label, random_reduced_word(rng, mats, size))

        def check(result):
            lw, word = result
            return lw == size and len(word) == size and word_matrix(mats, word) == element.matrix

        return (lambda: (wb.length(diagram, element), wb.reduced_word(diagram, element))), check

    def decay_profile(self, rng):
        i = rng.randrange(len(self.balls))
        graph, vector = self.balls[i], self.vectors[i]
        p = graph.ctx.p
        expected = tuple((k, Fraction(1, p**k)) for k in range(graph.radius + 1))
        return (lambda: self.wb.decay_profile(vector, graph)), (lambda got: got == expected)

    def defect_scan(self, rng):
        wb = self.wb
        i = rng.randrange(len(self.balls))
        graph, vector = self.balls[i], self.vectors[i]
        faces = rng.sample(self.interior[i], min(SCAN_FACES, len(self.interior[i])))

        def call():
            return [(wb.harmonicity_defect(vector, f, graph), wb.min_distance_chamber(f, graph))
                    for f in faces]

        def check(results):
            for face, (defect, (chamber, delta)) in zip(faces, results):
                members = graph.faces[face]
                nearest = graph.index.get(chamber)
                if defect != 0 or nearest not in members:
                    return False
                if graph.distance[nearest] != delta or delta != min(graph.distance[j] for j in members):
                    return False
            return len(results) == len(faces)

        return call, check

    def weyl_word(self, rng):
        graph = self.balls[rng.randrange(len(self.balls))]
        picks = [rng.randrange(len(graph)) for _ in range(WEYL_WORDS)]

        def check(words):
            return len(words) == len(picks) and all(
                i in gallery_ends(self.wb, graph, w) for i, w in zip(picks, words))

        return (lambda: [graph.weyl_word(i) for i in picks]), check

    def rigidity(self, rng):
        graph = rng.choice(self.rigidity_balls)
        return (lambda: self.wb.finite_support_rigidity(graph)), (lambda got: got is RIGIDITY_EXPECTED)

    def lift_round_trip(self, rng):
        wb = self.wb
        ctx, origin, depth, ends, _ = rng.choice(self.trees)
        g = wb.BoundaryFunction(
            depth=depth,
            parts=tuple((e, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for e in ends),
        )

        def call():
            return wb.boundary_value(wb.lift(g, origin, ctx), origin, depth, ctx)

        return call, (lambda back: back.parts == g.parts)

    def primitive_round_trip(self, rng):
        wb = self.wb
        ctx, origin, depth, _, inner = rng.choice(self.trees)
        picks = rng.sample(inner, rng.randint(1, 4))
        values = {v: Fraction(rng.randint(1, 6) * rng.choice((-1, 1)), rng.randint(1, 4)) for v in picks}
        f = wb.ZeroCochain(tuple(values.items()))

        def call():
            return wb.primitive_cochain(wb.coboundary(f, ctx), origin, depth, ctx)

        return call, (lambda recovered: recovered == f)

    def long_product(self, rng):
        # In A1~ every alternating word is reduced, so when w starts with
        # the letter v does not end with, e_v e_w = e_vw.  The check never
        # calls coxeter.length, which fails on these at the seed commit.
        q = rng.choice(HECKE_Q)
        a = rng.randint(*LONG_FIRST)
        b = rng.randint(*LONG_TOTAL) - a
        v = [i % 2 for i in range(a)]
        w = [(a + i) % 2 for i in range(b)]
        ev, ew = self._basis("A1~", v, q), self._basis("A1~", w, q)
        expected = self._basis("A1~", v + w, q)
        return (lambda: self.wb.multiply(ev, ew)), (lambda got: got == expected)


def draw_round(rng: random.Random) -> list[str]:
    kinds = [kind for kind, count in ROUND for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def run_rounds(session: Session, seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    latencies: list[float] = []
    attempted = failed = wrong = 0
    busy = 0.0
    errors: dict[str, int] = {}
    scales: list[float] = []
    for r in range(rounds):
        if r % REFERENCE_EVERY == 0:
            scales.append(speed_scale())
        scale = scales[-1]
        for kind in draw_round(rng):
            call, check = getattr(session, kind)(rng)
            attempted += 1
            start = perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed request is counted, not fatal
                busy += (perf_counter() - start) * scale
                failed += 1
                name = f"{kind}: {type(exc).__name__}: {exc}"
                errors[name] = errors.get(name, 0) + 1
                continue
            elapsed = (perf_counter() - start) * scale
            busy += elapsed
            if check(result):
                latencies.append(elapsed)
            else:
                failed += 1
                wrong += 1
                errors[f"{kind}: wrong answer"] = errors.get(f"{kind}: wrong answer", 0) + 1
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "busy_s": busy,
        "errors": errors,
        "scales": scales,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True, help="parent's time() at spawn")
    args = parser.parse_args()

    started = perf_counter()
    import weylbuildings as wb

    start_import_s = time() - args.spawned
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    session = Session(wb)
    setup_s = perf_counter() - started
    out = {"setup_s": setup_s * speed_scale(), "start_import_s": start_import_s}
    if not args.setup_only:
        out.update(run_rounds(session, args.seed, args.rounds))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
